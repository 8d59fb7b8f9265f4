import copy
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, log2

import mpmath
import pytest
from hypothesis import given, strategies as st

from enumerant import exactnum
from enumerant.dyadic import DyadicRational, dyadic_from_string
from enumerant.errors import _DIGITS_CAP, BudgetExceeded, EmptyString, OutOfRange, _check_bits
from enumerant.exactnum import (
    DEFAULT_DIGIT_BUDGET,
    Exact,
    RationalInterval,
    Reciprocal,
    Tower,
    _common_base,
    canonicalize,
    decimal_digit,
    decimal_string,
    log2_interval,
    magnitude_cmp,
    pinned_decimals,
)

class TestDyadicRational:
    def test_strips_to_odd_numerator(self):
        assert DyadicRational(6, 4) == DyadicRational(3, 3)
        assert DyadicRational(4, 4) == DyadicRational(1, 2)
        assert DyadicRational(6, 4).numerator == 3
        assert DyadicRational(3 << 200000, 200002) == DyadicRational(3, 2)

    def test_bounds(self):
        assert DyadicRational(1, 0).value == 1  # the closed right end
        with pytest.raises(OutOfRange):
            DyadicRational(0, 3)
        with pytest.raises(OutOfRange):
            DyadicRational(-1, 3)
        with pytest.raises(OutOfRange):
            DyadicRational(9, 3)  # 9/8 > 1
        with pytest.raises(OutOfRange):
            DyadicRational(4, 1)  # strips to 2/1

    def test_range_check_builds_no_power_of_two(self):
        tracemalloc.start()
        try:
            DyadicRational(1, 10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(st.integers(1, 1 << 13), st.integers(-3, 14))
    def test_range_check_against_the_power_rule(self, n, e):
        # the rule as first written: strip to odd n, then refuse e < 0 or n > 2**e
        odd, exp = n, e
        while not odd & 1:
            odd, exp = odd >> 1, exp - 1
        if exp < 0 or odd > 1 << exp:
            with pytest.raises(OutOfRange):
                DyadicRational(n, e)
        else:
            d = DyadicRational(n, e)
            assert (d.numerator, d.exponent) == (odd, exp)

    def test_from_fraction(self):
        assert DyadicRational.from_fraction(Fraction(3, 8)) == DyadicRational(3, 3)
        with pytest.raises(OutOfRange):
            DyadicRational.from_fraction(Fraction(1, 3))

    def test_bits(self):
        assert DyadicRational(5, 4).bits() == "0101"
        assert DyadicRational(1, 1).bits() == "1"
        with pytest.raises(OutOfRange):
            DyadicRational(1, 0).bits()  # 1 has no fractional expansion

    def test_str(self):
        assert str(DyadicRational(3, 3)) == "3/8"
        assert str(DyadicRational(1, 0)) == "1"

    @given(st.integers(1, 60), st.data())
    def test_bits_value_round_trip(self, exponent, data):
        numerator = data.draw(
            st.integers(0, (1 << (exponent - 1)) - 1)) * 2 + 1  # odd, < 2**e
        d = DyadicRational(numerator, exponent)
        assert d.value == Fraction(numerator, 1 << exponent)
        assert dyadic_from_string(d.bits()) == d

    def test_hash_follows_equality(self):
        assert len({DyadicRational(6, 4), DyadicRational(3, 3)}) == 1

    def test_no_order(self):
        with pytest.raises(TypeError):
            DyadicRational(1, 2) < DyadicRational(3, 2)

    def test_out_of_range_past_the_digit_limit(self):
        # the payload text is built when printed, so an int past the
        # interpreter's default int->str limit still raises OutOfRange
        huge = 10 ** 5000 + 1
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(OutOfRange) as over:
                DyadicRational(huge, 3)
            with pytest.raises(OutOfRange) as non_dyadic:
                DyadicRational.from_fraction(Fraction(huge, 3))
        finally:
            sys.set_int_max_str_digits(previous)
        assert str(over.value) == f"OutOfRange value={huge}/2^3"
        assert repr(non_dyadic.value) == f"OutOfRange(value='{huge}/3', denominator=3)"


class TestDyadicFromString:
    def test_values(self):
        assert dyadic_from_string("1").value == Fraction(1, 2)
        assert dyadic_from_string("0001").value == Fraction(1, 16)
        assert dyadic_from_string("10").value == Fraction(1, 2)  # same value, trimmed

    def test_errors(self):
        with pytest.raises(EmptyString):
            dyadic_from_string("")
        with pytest.raises(ValueError):
            dyadic_from_string("012")
        with pytest.raises(OutOfRange):
            dyadic_from_string("000")


def _set_check_bits(bits):
    """The bit-string check as a set difference: the reference for `_check_bits`."""
    if not bits:
        raise EmptyString()
    if set(bits) - {"0", "1"}:
        raise ValueError(f"not a bit string: {bits!r}")


def _outcome(check, bits):
    try:
        check(bits)
    except (EmptyString, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestCheckBits:
    @given(st.one_of(st.text(), st.text("01"), st.text("01 \t\n\u0660\u0661\uff10\uff11\u2070")))
    def test_agrees_with_the_set_difference(self, bits):
        assert _outcome(_check_bits, bits) == _outcome(_set_check_bits, bits)

    def test_the_empty_string_comes_first(self):
        assert _outcome(_check_bits, "") == (EmptyString, "EmptyString")
        assert _outcome(_check_bits, "0\u06611") == (ValueError, "not a bit string: '0\u06611'")


class TestRationalInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="^interval endpoints out of order$"):
            RationalInterval(Fraction(1), Fraction(0))

    def test_predicates(self):
        iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        assert iv.width == Fraction(1, 6)
        assert iv.contains(Fraction(2, 5))
        assert not iv.contains(Fraction(2, 3))
        outer = RationalInterval(Fraction(0), Fraction(1))
        assert outer.encloses(iv)
        assert outer.strictly_encloses(iv)
        assert not iv.encloses(outer)

    def test_render(self):
        assert str(RationalInterval(Fraction(2), Fraction(2))) == "2"
        assert str(RationalInterval(Fraction(1, 3), Fraction(1, 2))) == "[1/3, 1/2]"


# (class, the fields of one instance in slot order, that instance's repr)
VALUES = [
    (DyadicRational, {"numerator": 3, "exponent": 2}, "DyadicRational(3, 2)"),
    (RationalInterval, {"lo": Fraction(1, 2), "hi": Fraction(1)},
     "RationalInterval(lo=Fraction(1, 2), hi=Fraction(1, 1))"),
    (Exact, {"value": 64}, "Exact(value=64)"),
    (Tower, {"base": 2, "exponent": Exact(64)}, "Tower(base=2, exponent=Exact(value=64))"),
    (Reciprocal, {"denominator": Tower(2, Exact(64))},
     "Reciprocal(denominator=Tower(base=2, exponent=Exact(value=64)))"),
]


# for each class, one other valid value of each field
OTHER = {
    DyadicRational: {"numerator": 1, "exponent": 3},
    RationalInterval: {"lo": Fraction(0), "hi": Fraction(3, 4)},
    Exact: {"value": 65},
    Tower: {"base": 3, "exponent": Exact(65)},
    Reciprocal: {"denominator": Exact(7)},
}


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[c.__name__ for c, _, _ in VALUES])
class TestValueSemantics:
    def test_immutable(self, cls, fields, text):
        value = cls(*fields.values())
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert {name: getattr(value, name) for name in fields} == fields

    def test_equal_only_to_its_own_class(self, cls, fields, text):
        row = tuple(fields.values())
        assert cls(*row) == cls(*row) and not cls(*row) != cls(*row)
        assert cls(*row) != row and not cls(*row) == row
        assert cls(*row).__eq__(row) is NotImplemented

    def test_unequal_when_one_field_differs(self, cls, fields, text):
        value = cls(*fields.values())
        for name, other in OTHER[cls].items():
            changed = cls(*{**fields, name: other}.values())
            assert changed != value and not changed == value, name
            assert value != changed and not value == changed, name

    def test_hash_is_the_hash_of_the_fields(self, cls, fields, text):
        assert hash(cls(*fields.values())) == hash(tuple(fields.values()))

    def test_repr(self, cls, fields, text):
        assert repr(cls(*fields.values())) == text

    def test_match_args_follow_the_fields(self, cls, fields, text):
        # the four former dataclasses keep positional patterns; DyadicRational never had them
        if cls is not DyadicRational:
            assert cls.__match_args__ == tuple(fields)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_round_trip(self, cls, fields, text, clone):
        value = cls(*fields.values())
        twin = clone(value)
        assert type(twin) is cls and twin == value and repr(twin) == text


def log2_by_squaring(n: int, p: int) -> RationalInterval:
    """Independent oracle: the fractional bits of log2(n) one at a time,
    by squaring a dyadic enclosure of the mantissa n / 2**k with outward
    rounding at a guard precision; a blurred bit decision restarts with
    twice the guard."""
    k = n.bit_length() - 1
    if n == 1 << k:
        return RationalInterval(Fraction(k), Fraction(k))
    guard = p + 2 * p.bit_length() + 64
    while True:
        if guard >= k:
            lo = hi = n << (guard - k)
        else:
            lo = n >> (k - guard)
            hi = lo + 1
        frac = 0
        for _ in range(p):
            lo = (lo * lo) >> guard
            hi = -((-(hi * hi)) >> guard)  # round up
            threshold = 1 << (guard + 1)
            if hi < threshold:
                frac = frac * 2
            elif lo >= threshold:
                frac = frac * 2 + 1
                lo >>= 1
                hi = -((-hi) >> 1)
            else:
                break
        else:
            low = Fraction(k * (1 << p) + frac, 1 << p)
            return RationalInterval(low, low + Fraction(1, 1 << p))
        guard *= 2


def log2_forked(n: int, p: int) -> RationalInterval:
    """Oracle for the cut in `log2_interval`, as a fork: n is cut to its top
    w + 1 bits only when k > w + 2, and read whole below."""
    k = n.bit_length() - 1
    w = p + 2 * p.bit_length() + 8
    while True:
        if k > w + 2:
            m, e, cut = n >> (k - w), w, 1
        else:
            m, e, cut = n, k, 0
        low, err = exactnum._atanh_sum(m - (1 << e), m + (1 << e), w)
        third, third_err = exactnum._atanh_third(w)
        frac = (low << p) // (third + third_err)
        if frac == ((low + err + cut) << p) // third:
            lo = Fraction((k << p) + frac, 1 << p)
            return RationalInterval(lo, lo + Fraction(1, 1 << p))
        w *= 2


def _mp_contains(iv, x):
    lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
    hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    return lo <= x <= hi


class TestLog2Interval:
    def test_powers_of_two_are_points(self):
        for k in (0, 1, 5, 20):
            iv = log2_interval(1 << k)
            assert iv.is_point and iv.lo == k

    def test_width_is_exact(self):
        for p in (1, 8, 32, 100):
            assert log2_interval(3, p).width == Fraction(1, 1 << p)

    def test_contains_the_true_value(self):
        mpmath.mp.dps = 80
        for n in (3, 5, 6, 7, 10, 1000, 12345, (1 << 20) + 1):
            iv = log2_interval(n, 32)
            assert _mp_contains(iv, mpmath.log(n, 2)), n

    def test_high_precision(self):
        mpmath.mp.dps = 120
        iv = log2_interval(3, 256)
        assert iv.width == Fraction(1, 1 << 256)
        assert _mp_contains(iv, mpmath.log(3, 2))

    @given(st.integers(2, 10**9))
    def test_random_containment_via_powers(self, n):
        # integer-only oracle: lo <= log2 n <= hi iff 2**(lo*S) <= n**S <= 2**(hi*S)
        p = 12
        iv = log2_interval(n, p)
        scale = 1 << p
        lo_scaled = iv.lo * scale
        hi_scaled = iv.hi * scale
        assert lo_scaled.denominator == 1 and hi_scaled.denominator == 1
        assert (1 << lo_scaled.numerator) <= n ** scale <= (1 << hi_scaled.numerator)

    def test_restart_when_the_value_hugs_a_cell_edge(self):
        # n = floor(sqrt(2) * 2**m) puts log2(n) about 2**-m below m + 1/2
        # and log2(n + 1) just above it, so every guard below about m bits
        # blurs the first bit decision
        m = 600
        n = isqrt(2 << (2 * m))
        half = Fraction(2 * m + 1, 2)
        with mpmath.workprec(2000):
            for p in (32, 256):
                below, above = log2_interval(n, p), log2_interval(n + 1, p)
                assert below.hi == half == above.lo
                assert below.width == above.width == Fraction(1, 1 << p)
                assert _mp_contains(below, mpmath.log(n, 2))
                assert _mp_contains(above, mpmath.log(n + 1, 2))

    @given(st.integers(1, (1 << 64) - 1), st.integers(1, 1024))
    def test_random_cells_against_mpmath(self, n, p):
        iv = log2_interval(n, p)
        if n & (n - 1) == 0:
            assert iv.is_point and iv.lo == n.bit_length() - 1
            return
        assert iv.width == Fraction(1, 1 << p)
        assert (iv.lo * (1 << p)).denominator == 1
        with mpmath.workprec(p + 256):
            assert _mp_contains(iv, mpmath.log(n, 2))

    @given(st.integers(1, (1 << 70) - 1), st.integers(1, 1024))
    def test_same_cell_as_squaring(self, n, p):
        assert log2_interval(n, p) == log2_by_squaring(n, p)

    @given(st.integers(100, 5000).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)), st.integers(1, 1024))
    def test_long_n_is_cut_outward(self, n, p):
        # n longer than the working width plus two bits is cut to its top bits
        assert log2_interval(n, p) == log2_by_squaring(n, p)

    @pytest.mark.parametrize("p", [1, 2, 5, 16, 32, 64, 200, 1000])
    def test_cut_band_against_mpmath(self, p):
        # bit lengths around the working width w, where n is first cut:
        # the cell is the one the forked rule gave, and it holds log2 n
        w = p + 2 * p.bit_length() + 8
        rnd = random.Random(p)
        for bits in range(w - 3, w + 7):
            low, high = 1 << (bits - 1), (1 << bits) - 1
            for n in (low + 1, high, *(rnd.randint(low, high) for _ in range(4))):
                iv = log2_interval(n, p)
                assert iv == log2_forked(n, p), (n, p)
                assert iv.width == Fraction(1, 1 << p)
                with mpmath.workprec(p + 256):
                    assert _mp_contains(iv, mpmath.log(n, 2)), (n, p)

    @pytest.mark.parametrize("n", [3, 0x2B3C_4D5E_6F70_8192_A3])
    @pytest.mark.parametrize("p", [2048, 4096])
    def test_same_cell_as_squaring_deep(self, n, p):
        assert log2_interval(n, p) == log2_by_squaring(n, p)

    def test_domain(self):
        with pytest.raises(ValueError):
            log2_interval(0)
        with pytest.raises(ValueError):
            log2_interval(3, 0)
        with pytest.raises(BudgetExceeded) as exc:
            log2_interval(3, (1 << 15) + 1)
        assert str(exc.value) == "BudgetExceeded requested=32769 cap=32768"


def _prime_exponents(n: int) -> dict:
    """Trial-division oracle: {prime: exponent} for n >= 2."""
    found, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        found[n] = found.get(n, 0) + 1
    return found


def _powers_of_one_base(c):
    top = 1
    while c ** (top + 1) <= 10**6:
        top += 1
    exponent = st.integers(1, top)
    return st.tuples(exponent, exponent).map(lambda ks: (c ** ks[0], c ** ks[1]))


class TestCommonBase:
    def test_samples(self):
        assert _common_base(8, 4) == (3, 2)
        assert _common_base(16, 256) == (1, 2)
        assert _common_base(2, 2) == (1, 1)
        assert _common_base(72, 6) is None
        assert _common_base(12, 18) is None
        assert _common_base(2**120000, 2) == (120000, 1)

    @given(st.one_of(st.integers(2, 1000).flatmap(_powers_of_one_base),
                     st.tuples(st.integers(2, 10**6), st.integers(2, 10**6))))
    def test_none_exactly_when_exponent_vectors_are_not_proportional(self, pair):
        b1, b2 = pair
        v1, v2 = _prime_exponents(b1), _prime_exponents(b2)
        p0 = min(v1)
        proportional = v1.keys() == v2.keys() and all(
            v1[p] * v2[p0] == v2[p] * v1[p0] for p in v1)
        shared = _common_base(b1, b2)
        assert (shared is None) == (not proportional)
        if shared is not None:
            k1, k2 = shared
            assert b1 ** k2 == b2 ** k1 and gcd(k1, k2) == 1


class TestCanonicalize:
    def test_degenerate_towers(self):
        assert canonicalize(Tower(0, Exact(0))) == Exact(1)
        assert canonicalize(Tower(0, Exact(5))) == Exact(0)
        assert canonicalize(Tower(0, Tower(2, Exact(40000)))) == Exact(0)
        assert canonicalize(Tower(1, Tower(9, Exact(9)))) == Exact(1)
        assert canonicalize(Tower(7, Exact(0))) == Exact(1)
        assert canonicalize(Tower(7, Exact(1))) == Exact(7)

    def test_budget_is_an_iff(self):
        # 10**4 has five digits: out at budget 4, in at budget 5
        assert canonicalize(Tower(10, Exact(4)), 4) == Tower(10, Exact(4))
        assert canonicalize(Tower(10, Exact(4)), 5) == Exact(10_000)
        assert canonicalize(Tower(10, Exact(4))) == Exact(10_000)

    def test_nested_exponents_materialize_bottom_up(self):
        assert canonicalize(Tower(2, Tower(2, Exact(4)))) == Exact(65536)
        deep = canonicalize(Tower(2, Tower(2, Exact(40000))))
        assert deep == Tower(2, Tower(2, Exact(40000)))

    def test_exact_values_pass_through_untouched(self):
        big = Exact(10 ** (DEFAULT_DIGIT_BUDGET + 10))
        assert canonicalize(big) is big

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            canonicalize(Exact(-1))
        with pytest.raises(ValueError):
            canonicalize(Tower(-2, Exact(3)))

    def test_rejects_a_non_magnitude(self):
        with pytest.raises(TypeError):
            canonicalize("x")

    @given(st.integers(2, 1 << 40), st.integers(1, 64), st.integers(-2, 2), st.data())
    def test_pow_vs_limit_is_the_exact_rule(self, base, exp, shift, data):
        # limits on both sides of the power, from far below to far above it
        v = base ** exp
        limit = data.draw(st.sampled_from([max(v + shift, 1), max((v >> 3) + shift, 1),
                                           (v << 3) + shift, max(v.bit_length() + shift, 1)]))
        assert exactnum._pow_vs_limit(base, exp, limit) == (v if v < limit else None)


def _mp_log2(m):
    """log2 of a magnitude's value, in mpmath."""
    if isinstance(m, Exact):
        return mpmath.log(m.value, 2)
    e = m.exponent
    value = mpmath.mpf(e.value) if isinstance(e, Exact) else mpmath.power(2, _mp_log2(e))
    return value * mpmath.log(m.base, 2)


def _mp_log2_log2(m):
    """log2(log2(value)) in mpmath, as log2(value(exponent)) plus
    log2(log2(base)): at depth 3 the one power taken is 2**(n*log2(c)), so
    the result keeps its full relative precision."""
    if isinstance(m, Exact):
        return mpmath.log(mpmath.log(m.value, 2), 2)
    return _mp_log2(m.exponent) + mpmath.log(mpmath.log(m.base, 2), 2)


_TOWER_BASES = st.one_of(st.integers(2, 13), st.sampled_from(
    [4, 8, 9, 16, 25, 27, 32, 36, 64, 81, 100, 125, 128, 243, 256, 1024]))


def _towers(depth):
    if depth == 0:
        return st.builds(Exact, st.integers(2, 5000))
    return st.builds(Tower, _TOWER_BASES, _towers(depth - 1))


def _neighbour(m, step, base):
    """A magnitude of m's shape, on other bases, whose exponent is within a
    step of a tie with m's; step() gives -1, 0 or 1 and base() a base."""
    s = step()
    if isinstance(m, Exact):
        return Exact(max(2, m.value + s))
    b = base()
    if isinstance(m.exponent, Exact):
        n = m.exponent.value * log2(m.base) // log2(b)
        return Tower(b, Exact(max(2, int(n) + s)))
    return Tower(b, _neighbour(m.exponent, step, base))


@st.composite
def _tower_pairs(draw):
    """Two random towers, or a tower and its neighbour, so the sandwich and
    log2 get work."""
    a = draw(st.integers(0, 3).flatmap(_towers))
    b = draw(st.one_of(st.integers(0, 3).flatmap(_towers), st.just(None)))
    if b is None:
        b = _neighbour(a, lambda: draw(st.integers(-1, 1)), lambda: draw(_TOWER_BASES))
    return a, b


class TestMagnitudeCmp:
    def test_small_towers_against_int_oracle(self):
        # budget 1 keeps every 2+ digit power symbolic, so this walks the
        # tower-vs-exact and tower-vs-tower paths with checkable values;
        # exponents into the thousands land the probes in the gray zone of
        # the bit-length sandwich, and for base 2 the probe 2**e - 1 sits
        # one below a bit-length boundary
        cases = [(b, e) for b in range(2, 8) for e in range(2, 9)]
        cases += [(b, e) for b in (2, 3, 10) for e in (
            *range(9, 70), 127, 128, 255, 256, 1000, 1023, 1024, 2047, 2048, 3001, 4095, 4096)]
        for b1, e1 in cases:
            v1 = b1 ** e1
            for probe in (v1 - 1, v1, v1 + 1):
                want = (v1 > probe) - (v1 < probe)
                got = magnitude_cmp(Tower(b1, Exact(e1)), Exact(probe), 1)
                assert got == want, (b1, e1, probe)

    def test_tower_pairs_against_int_oracle(self):
        for b1 in range(2, 8):
            for e1 in range(2, 7):
                for b2 in range(2, 8):
                    for e2 in range(2, 7):
                        v1, v2 = b1 ** e1, b2 ** e2
                        want = (v1 > v2) - (v1 < v2)
                        got = magnitude_cmp(
                            Tower(b1, Exact(e1)), Tower(b2, Exact(e2)), 1)
                        assert got == want, (b1, e1, b2, e2)

    def test_cross_base_needs_log_refinement(self):
        # 50500 * log2(3) = 80040.6..., so the bit-length sandwich is silent
        mpmath.mp.dps = 30
        edge = mpmath.log(3, 2) * 50500
        assert 80040 < edge < 80041  # oracle for the two frozen cases below
        assert magnitude_cmp(Tower(2, Exact(80040)), Tower(3, Exact(50500))) == -1
        assert magnitude_cmp(Tower(2, Exact(80041)), Tower(3, Exact(50500))) == 1
        assert magnitude_cmp(Tower(2, Exact(80000)), Tower(3, Exact(50500))) == -1
        # 190537/301994 is a continued-fraction convergent of 1/log2(3):
        # the 32-bit enclosures overlap and the precision doubles once
        edge = mpmath.log(3, 2) * 190537
        assert 301993 < edge < 301994
        assert magnitude_cmp(Tower(2, Exact(301994)), Tower(3, Exact(190537))) == 1
        assert magnitude_cmp(Tower(2, Exact(301993)), Tower(3, Exact(190537))) == -1

    def test_equal_values_in_different_shapes(self):
        big = 10 ** 50
        assert magnitude_cmp(Tower(4, Exact(big)), Tower(2, Exact(2 * big))) == 0
        assert magnitude_cmp(Tower(8, Exact(big)), Tower(2, Exact(3 * big))) == 0
        assert magnitude_cmp(Tower(9, Exact(big)), Tower(3, Exact(2 * big))) == 0
        assert magnitude_cmp(Tower(8, Exact(big)), Tower(2, Exact(3 * big + 1))) == -1
        assert magnitude_cmp(Tower(8, Exact(big)), Tower(2, Exact(3 * big - 1))) == 1
        # 4**(2**10) against 2**e: 2 * 2**10 vs e, settled on the remainder
        # when the quotient ties
        for e, want in ((2047, 1), (2048, 0), (2049, -1)):
            assert magnitude_cmp(Tower(4, Tower(2, Exact(10))), Tower(2, Exact(e)), 1) == want

    def test_same_exponent_compares_bases(self):
        deep = Tower(7, Exact(50000))
        assert magnitude_cmp(Tower(3, deep), Tower(2, deep)) == 1
        assert magnitude_cmp(Tower(2, deep), Tower(3, deep)) == -1
        # 2**40000 == 4**20000: equal exponents of unequal shape
        a = Tower(3, Tower(2, Exact(40000)))
        b = Tower(2, Tower(4, Exact(20000)))
        assert magnitude_cmp(a, b) == 1
        assert magnitude_cmp(b, a) == -1
        # a long base whose log2 the comparator never needs
        base = 2**40000 + 12345
        assert magnitude_cmp(Tower(base, Exact(5)), Tower(base + 1, Exact(5)), 30) == -1

    def test_long_base_without_a_common_power(self):
        base = (1 << 19999) | 12345
        assert magnitude_cmp(Tower(3, Exact(1000)), Tower(base, Exact(2)), 30) == -1

    def test_exact_against_deep_tower(self):
        deep = Tower(2, Tower(2, Exact(40000)))
        assert magnitude_cmp(Exact(10 ** 100), deep) == -1
        assert magnitude_cmp(deep, Exact(10 ** 100)) == 1

    def test_long_int_against_a_symbolic_exponent(self):
        # b**E >= 2**E > n once E >= bitlen(n), decided on E by recursion
        # however many bits n has against the budget
        assert magnitude_cmp(Exact(4009), Tower(3, Tower(27, Exact(744))), 1) == -1
        deep = Tower(12, Tower(4, Tower(3, Exact(37))))
        assert magnitude_cmp(Tower(13, Exact(3607)), deep, 1) == -1
        # 2**(2**4) at budget 1: E = 16 settles every n of at most 16 bits
        t = Tower(2, Tower(2, Exact(4)))
        assert magnitude_cmp(t, Exact(2 ** 16 - 1), 1) == 1
        assert magnitude_cmp(Exact(12345), t, 1) == -1

    def test_symbolic_exponent_below_the_int_bit_length(self):
        # E = 16 < bitlen(2**16) = 17: E is written out and the power decided
        # exactly, on both sides of 65536 and at it
        t = Tower(2, Tower(2, Exact(4)))
        assert [magnitude_cmp(t, Exact(2 ** 16 + d), 1) for d in (-1, 0, 1)] == [1, 0, -1]
        assert [magnitude_cmp(Exact(2 ** 16 + d), t, 1) for d in (-1, 0, 1)] == [-1, 0, 1]
        # two symbolic levels: 2**(2**(2**4)) = 2**65536
        deep = Tower(2, t)
        assert [magnitude_cmp(deep, Exact(2 ** 65536 + d), 1) for d in (-1, 0, 1)] == [1, 0, -1]

    def test_deep_towers_recurse_on_exponents(self):
        a = Tower(2, Tower(2, Exact(40000)))
        b = Tower(2, Tower(2, Exact(40001)))
        assert magnitude_cmp(a, b) == -1
        assert magnitude_cmp(b, a) == 1
        assert magnitude_cmp(a, a) == 0

    def test_gray_zone_exact_comparison(self):
        # 2**13 = 8192 sits between the bit-length bounds at budget 3,
        # forcing the comparator to materialize and compare exactly
        assert magnitude_cmp(Tower(2, Exact(13)), Exact(8192), 3) == 0
        assert magnitude_cmp(Tower(2, Exact(13)), Exact(8193), 3) == -1
        assert magnitude_cmp(Tower(2, Exact(13)), Exact(8191), 3) == 1

    def test_larger_base_and_exponent_decide(self):
        # monotone: 3 > 2 and 2**(2**100) > 2**(2**99), so no sandwich (and
        # no scale of 2 on a tower) is needed
        a = Tower(3, Tower(2, Tower(2, Exact(100))))
        b = Tower(2, Tower(2, Tower(2, Exact(99))))
        with mpmath.workprec(400):
            assert _mp_log2_log2(a) > _mp_log2_log2(b)
        assert magnitude_cmp(a, b, 30) == 1
        assert magnitude_cmp(b, a, 30) == -1

    def test_symbolic_exponent_in_the_band_is_written_out(self):
        # at budget 30, 3**(2**4000) against 2**(2**4000 + 1): the exponents
        # oppose the bases and neither sandwich holds, so the symbolic 2**4000,
        # below bitlen(2) times the exact one, is written out for log2
        a = Tower(3, Tower(2, Exact(4000)))
        b = Tower(2, Exact(2 ** 4000 + 1))
        with mpmath.workprec(400):
            assert _mp_log2_log2(a) > _mp_log2_log2(b)
        assert magnitude_cmp(a, b, 30) == 1
        assert magnitude_cmp(b, a, 30) == -1

    def test_scale_fold(self):
        # 2**(3**3000) against 4**(2**1000): on the common base 2 that is
        # 1 * 3**3000 against 2 * 2**1000, the larger tower on the smaller
        # scale; the fold proves 3**3000 >= 2**3000 > 2 * 2**1000
        a = Tower(2, Tower(3, Exact(3000)))
        b = Tower(4, Tower(2, Exact(1000)))
        assert 3 ** 3000 > 2 * 2 ** 1000  # the int oracle on the powers of 2
        assert magnitude_cmp(a, b, 30) == 1
        assert magnitude_cmp(b, a, 30) == -1

    def test_scale_fold_counts_the_scale(self):
        # 2**(3**8) against (2**500)**(2**4): on the base 2 that is 1 * 6561
        # against 500 * 16 = 8000, the larger tower on the smaller scale;
        # 2**8 >= 2**(2 * 4) covers 2**4 but not 500 * 2**4
        a = Tower(2, Tower(3, Exact(8)))
        b = Tower(2 ** 500, Tower(2, Exact(4)))
        assert 3 ** 8 < 500 * 2 ** 4  # the int oracle on the powers of 2
        for x, y, want in ((a, b, -1), (b, a, 1)):
            try:
                assert magnitude_cmp(x, y, 1) == want
            except ValueError:
                pass  # a refusal is not a wrong answer

    def test_undecidable_fold_raises(self):
        # 16**(2**40000) equals 2**(2**40002) but the multiplicity fold
        # across unequal symbolic exponents is out of scope: refuse loudly
        a = Tower(16, Tower(2, Exact(40000)))
        b = Tower(2, Tower(2, Exact(40002)))
        with pytest.raises(ValueError):
            magnitude_cmp(a, b)

    def test_a_fold_too_loose_to_decide_is_refused_not_inverted(self):
        # 2**(16**2) = 2**256 against 4**(15**2) = 2**450, the exponents kept
        # symbolic at budget 2: on the base 2 the larger tower 16**2 sits on
        # the smaller scale, and `_above` folds the scale 2 in as
        # bitlen(2 - 1) = 1 bit; a bit less and the sandwich calls
        # 16**2 > 2 * 15**2.  Deciding the pair may come; inverting it may not
        a = Tower(2, Tower(16, Exact(2)))
        b = Tower(4, Tower(15, Exact(2)))
        assert 16 ** 2 < 2 * 15 ** 2  # the int oracle on the powers of 2
        for x, y, want in ((a, b, -1), (b, a, 1)):
            try:
                assert magnitude_cmp(x, y, 2) == want
            except ValueError:
                pass  # a refusal is not a wrong answer

    def test_symbolic_exponent_pairs_never_reach_log2(self, monkeypatch):
        # two tower exponents are settled by a sandwich or refused by its
        # fold: certified log2 is only entered with an exponent written out
        rng = random.Random(20)
        frames, log2_calls, both_symbolic = [], [], []
        tower_tower, cmp_log2, value = (
            exactnum._cmp_tower_tower, exactnum._cmp_log2, exactnum._value)

        def symbolic_pair():
            return bool(frames) and all(isinstance(m.exponent, Tower) for m in frames[-1])

        def traced_tower_tower(s, t):
            frames.append((s, t))
            try:
                return tower_tower(s, t)
            finally:
                frames.pop()

        def traced_log2(*args):
            log2_calls.append(args)
            if symbolic_pair():
                both_symbolic.append(frames[-1])
            return cmp_log2(*args)

        def guarded_value(m):
            # fail here rather than write out a symbolic exponent for log2
            assert not (symbolic_pair() and any(m is x.exponent for x in frames[-1]))
            return value(m)

        monkeypatch.setattr(exactnum, "_cmp_tower_tower", traced_tower_tower)
        monkeypatch.setattr(exactnum, "_cmp_log2", traced_log2)
        monkeypatch.setattr(exactnum, "_value", guarded_value)

        def tower(depth):
            m = Exact(rng.randint(2, 5000))
            for _ in range(depth):
                m = Tower(rng.randint(2, 343), m)
            return m

        decided = refused = 0
        for _ in range(10_000):
            a = tower(rng.randint(2, 4))
            if rng.random() < 0.5:
                b = _neighbour(a, lambda: rng.randint(-1, 1), lambda: rng.randint(2, 343))
            else:
                b = tower(rng.randint(2, 4))
            try:
                magnitude_cmp(a, b, rng.randint(1, 100))
                decided += 1
            except ValueError:
                refused += 1
        assert decided > 0 and refused > 0 and log2_calls
        assert both_symbolic == []

    @given(_tower_pairs(), st.integers(1, 30))
    def test_random_towers_against_mpmath(self, pair, budget):
        a, b = pair
        try:
            got = magnitude_cmp(a, b, budget)
        except (ValueError, BudgetExceeded):
            return  # a refusal is not a wrong answer
        # separated relative to the size of log2(log2(value)), which at
        # depth 3 runs to thousands of bits before the binary point
        with mpmath.workprec(400):
            x, y = _mp_log2_log2(a), _mp_log2_log2(b)
            if abs(x - y) > mpmath.mpf(2) ** -300 * (1 + max(abs(x), abs(y))):
                assert got == (1 if x > y else -1)

    @given(_tower_pairs(), st.integers(1, 30))
    def test_antisymmetric(self, pair, budget):
        # one order decides the negation of the other, and a refusal
        # happens both ways round or not at all
        def outcome(x, y):
            try:
                return magnitude_cmp(x, y, budget)
            except (ValueError, BudgetExceeded) as err:
                return type(err)

        a, b = pair
        forward, backward = outcome(a, b), outcome(b, a)
        assert backward == (-forward if isinstance(forward, int) else forward)

    def test_total_order_on_a_mixed_bag(self):
        import functools
        bag = [
            Exact(1), Exact(10 ** 60), Tower(2, Exact(64)),
            Tower(2, Exact(10 ** 6)), Tower(3, Exact(10 ** 6)),
            Tower(2, Tower(2, Exact(40000))), Exact(97),
        ]
        ordered = sorted(bag, key=functools.cmp_to_key(magnitude_cmp))
        rendered = [str(canonicalize(m)) for m in ordered]
        assert rendered == [
            "1", "97", str(2 ** 64), str(10 ** 60),
            "2^(1000000)", "3^(1000000)", "2^(2^(40000))",
        ]


def _render_magnitude(m):
    # the free functions the text came from before it moved into __str__
    if isinstance(m, Exact):
        return str(m.value)
    return f"{m.base}^({_render_magnitude(m.exponent)})"


def _render_reciprocal(r):
    if isinstance(r.denominator, Exact) and r.denominator.value == 1:
        return "1"
    return f"1/{_render_magnitude(r.denominator)}"


def _render_interval(iv):
    if iv.is_point:
        return str(iv.lo)
    return f"[{iv.lo}, {iv.hi}]"


_FRACTIONS = st.fractions(min_value=0, max_value=10 ** 6)


class TestRendering:
    @given(st.integers(0, 3).flatmap(_towers), st.integers(1, 30))
    def test_str_is_the_render_rule(self, m, budget):
        m = canonicalize(m, budget)
        assert str(m) == _render_magnitude(m)
        assert str(Reciprocal(m)) == _render_reciprocal(Reciprocal(m))
        assert str(Reciprocal(Exact(1))) == _render_reciprocal(Reciprocal(Exact(1)))

    @given(_FRACTIONS, _FRACTIONS, st.booleans())
    def test_interval_str_is_the_render_rule(self, x, y, point):
        iv = RationalInterval(x, x) if point else RationalInterval(min(x, y), max(x, y))
        assert str(iv) == _render_interval(iv)

    def test_magnitudes(self):
        assert str(Exact(64)) == "64"
        assert str(Tower(2, Exact(64))) == "2^(64)"
        assert str(Tower(2, Tower(2, Exact(120)))) == "2^(2^(120))"

    def test_reciprocals(self):
        assert str(Reciprocal(Exact(64))) == "1/64"
        assert str(Reciprocal(Tower(2, Exact(120)))) == "1/2^(120)"
        assert str(Reciprocal(Exact(1))) == "1"


class TestDecimals:
    def test_truncates_never_rounds(self):
        assert decimal_string(Fraction(2, 3), 3) == "0.666..."
        assert decimal_string(Fraction(1, 8), 2) == "0.12..."
        assert decimal_string(Fraction(1, 8), 3) == "0.125"
        assert decimal_string(Fraction(1, 8), 6) == "0.125000"

    def test_marker_only_when_cut(self):
        assert decimal_string(Fraction(5, 2), 1) == "2.5"
        assert decimal_string(Fraction(5, 2), 0) == "2..."
        assert decimal_string(Fraction(2), 0) == "2"

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(-1, 2), 3)

    def test_decimal_digit(self):
        x = Fraction(110001, 10 ** 6)
        assert [decimal_digit(x, p) for p in range(1, 8)] == [1, 1, 0, 0, 0, 1, 0]
        with pytest.raises(ValueError):
            decimal_digit(x, 0)

    def test_one_cap_for_every_power_of_ten(self):
        # printed places and digit budgets are refused before 10**d is built
        over, third = _DIGITS_CAP + 1, Fraction(1, 3)
        for call in (lambda: decimal_string(third, over),
                     lambda: decimal_digit(third, over),
                     lambda: pinned_decimals(RationalInterval(third, third), over),
                     lambda: canonicalize(Tower(2, Exact(5)), over),
                     lambda: magnitude_cmp(Tower(2, Exact(5)), Exact(3), over)):
            with pytest.raises(BudgetExceeded) as err:
                call()
            assert err.value.payload == {"requested": over, "cap": _DIGITS_CAP}
        assert canonicalize(Tower(2, Exact(5)), _DIGITS_CAP) == Exact(32)
        assert _DIGITS_CAP > DEFAULT_DIGIT_BUDGET

    def test_pinned_decimals(self):
        iv = RationalInterval(Fraction(271, 100), Fraction(272, 100))
        assert pinned_decimals(iv, 1) == "2.7"
        assert pinned_decimals(iv, 2) is None
        point = RationalInterval(Fraction(1, 4), Fraction(1, 4))
        assert pinned_decimals(point, 3) == "0.250"

    @pytest.mark.parametrize("call", [
        lambda: decimal_digit(Fraction(-1, 3), 1),
        lambda: pinned_decimals(RationalInterval(Fraction(-1, 3), Fraction(-1, 3)), 2),
        lambda: pinned_decimals(RationalInterval(Fraction(-1, 3), Fraction(-1, 3)), 0),
        lambda: pinned_decimals(RationalInterval(Fraction(-1, 3), Fraction(1, 3)), 0),
    ], ids=["decimal_digit", "pinned_point_2", "pinned_point_0", "pinned_across_0"])
    def test_every_decimal_refuses_a_negative_value(self, call):
        # truncation, not a floor: these once read 6, "-1.66" and "-1"
        with pytest.raises(ValueError, match="nonnegative"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: decimal_string(Fraction(1, 3), -1),
        lambda: pinned_decimals(RationalInterval(Fraction(0), Fraction(20)), -1),
        lambda: canonicalize(Tower(2, Exact(3)), -1),
        lambda: magnitude_cmp(Exact(3), Tower(2, Exact(3)), -2),
    ], ids=["decimal_string", "pinned_decimals", "canonicalize", "magnitude_cmp"])
    def test_a_negative_digit_count_is_refused(self, call):
        # 10 ** -1 is a float: refused before it is built
        with pytest.raises(ValueError, match="nonnegative"):
            call()

    @given(st.fractions(min_value=0, max_denominator=10 ** 6), st.integers(0, 40))
    def test_agrees_with_long_division(self, x, digits):
        whole, rem = divmod(x.numerator, x.denominator)
        places = []
        for _ in range(digits):
            digit, rem = divmod(rem * 10, x.denominator)
            places.append(digit)
        text = str(whole) + ("." if digits else "") + "".join(map(str, places))
        assert decimal_string(x, digits) == text + ("..." if rem else "")
        assert pinned_decimals(RationalInterval(x, x), digits) == text
        assert [decimal_digit(x, p) for p in range(1, digits + 1)] == places
