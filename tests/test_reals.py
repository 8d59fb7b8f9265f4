from fractions import Fraction
from math import factorial, isqrt

import mpmath
import pytest

from enumerant import reals
from enumerant.errors import BudgetExceeded, DepthZero
from enumerant.dyadic import DyadicRational
from enumerant.reals import (
    _DEPTH_CAP,
    ComputableReal,
    EulerStream,
    LiouvilleStream,
    RationalStream,
    SqrtStream,
    parse_real,
)
from enumerant.series import (
    _LIOUVILLE_CAP,
    _e_enclosure,
    _e_terms,
    _tau_enclosure,
    _tau_terms,
    e_enclosure,
)

# 64-bit expansions, derived from the integer certificates below and
# cross-checked against an independent high-precision library in-test
SQRT2_BITS = "0110101000001001111001100110011111110011101111001100100100001000"
EULER_BITS = "1011011111100001010100010110001010001010111011010010101001101010"
TAU_BITS = "0001110000101001000001101000100110000110111111001101111011100011"


def mp_bits(x, depth) -> str:
    """Independent oracle: first `depth` binary digits of x in (0,1)."""
    scaled = mpmath.floor(mpmath.ldexp(x, depth))
    return format(int(scaled), f"0{depth}b")


def mp_tau():
    """The Liouville-type sum through its v=7 term, at the working precision."""
    tau = mpmath.mpf(0)
    f = 1
    for v in range(1, 8):
        f *= v
        tau += mpmath.power(10, -f)
    return tau


class TestRationalStream:
    def test_periodic_third(self):
        r = RationalStream(1, 3)
        assert r.prefix(12) == "010101010101"
        assert r.boundary_depth is None
        assert r.exact_dyadic() is None

    def test_period_of_one_seventh(self):
        assert RationalStream(1, 7).prefix(12) == "001001001001"

    def test_terminating_dyadic(self):
        r = RationalStream(5, 16)
        assert r.prefix(10) == "0101000000"
        assert r.boundary_depth == 4  # equals its lower endpoint from here on
        assert r.exact_dyadic() == DyadicRational(5, 4)

    def test_unreduced_input_is_normalized(self):
        r = RationalStream(2, 6)
        assert (r.p, r.q) == (1, 3)

    def test_domain(self):
        for num, den in ((0, 5), (5, 5), (7, 5), (-1, 3)):
            with pytest.raises(ValueError):
                RationalStream(num, den)

    def test_prefix_against_mpmath(self):
        mpmath.mp.prec = 200
        assert RationalStream(3, 7).prefix(100) == mp_bits(mpmath.mpf(3) / 7, 100)

    def test_deep_periodicity(self):
        r = RationalStream(1, 3)
        assert r.prefix(10_000) == "01" * 5_000


class TestSqrtStream:
    def test_sqrt2_prefix(self):
        assert SqrtStream(2, 1).prefix(64) == SQRT2_BITS

    def test_against_mpmath(self):
        mpmath.mp.prec = 300
        assert SqrtStream(2, 1).prefix(200) == mp_bits(mpmath.sqrt(2) - 1, 200)
        assert SqrtStream(5, 4).prefix(100) == mp_bits(mpmath.sqrt(mpmath.mpf(5) / 4) - 1, 100)
        assert SqrtStream(7, 3).prefix(100) == mp_bits(mpmath.sqrt(mpmath.mpf(7) / 3) - 1, 100)

    def test_perfect_squares_rejected(self):
        for a, b in ((4, 1), (9, 4), (16, 1), (1, 4)):
            with pytest.raises(ValueError):
                SqrtStream(a, b)
        with pytest.raises(ValueError):
            SqrtStream(0, 3)

    def test_integer_part_handling(self):
        # sqrt(7/3) = 1.527...: integer part 1, fraction .527...
        s = SqrtStream(7, 3)
        assert s.root_floor == 1
        assert s.prefix(1) == "1"


class TestSeriesStreams:
    def test_euler_prefix(self):
        e = EulerStream()
        assert e.prefix(64) == EULER_BITS
        assert e.prefix(3) == "101"

    def test_tau_prefix(self):
        t = LiouvilleStream()
        assert t.prefix(64) == TAU_BITS
        assert t.prefix(8) == "00011100"

    def test_against_mpmath(self):
        mpmath.mp.prec = 400
        assert EulerStream().prefix(200) == mp_bits(mpmath.e - 2, 200)
        assert LiouvilleStream().prefix(200) == mp_bits(mp_tau(), 200)

    def test_euler_stream_agrees_with_series_enclosures(self):
        e = EulerStream()
        scaled = int(e.prefix(40), 2)
        iv = e_enclosure(30).interval
        # both brackets contain e - 2, so they must overlap
        assert Fraction(scaled, 1 << 40) < iv.hi - 2
        assert iv.lo - 2 < Fraction(scaled + 1, 1 << 40)


class TestNothingBeforeTheFirstPrefix:
    SERIES = ((EulerStream, EULER_BITS), (LiouvilleStream, TAU_BITS))

    def test_construction_sums_no_series(self, monkeypatch):
        def reached(*args):
            raise AssertionError("a stream summed a series before any prefix")

        for cls, _ in self.SERIES:
            monkeypatch.setattr(cls, "_enclosure", staticmethod(reached))
            monkeypatch.setattr(cls, "_terms_for", staticmethod(reached))
            x = cls()
            assert (x.depth, x.scaled_prefix) == (0, 0), cls.name

    def test_first_prefix_at_every_depth_keeps_the_bits(self):
        # a first request tightens from the start, however shallow it is
        for cls, bits in self.SERIES:
            for depth in range(1, 65):
                x = cls()
                assert x.prefix(depth) == bits[:depth], (cls.name, depth)
                assert x.scaled_prefix == int(bits[:depth], 2), (cls.name, depth)

    def test_subclass_init_need_not_call_the_base(self):
        class Third(ComputableReal):
            def __init__(self):
                self.q = 3

            def _floor(self, depth):
                return (1 << depth) // self.q

            def _holds(self, scaled, depth):
                return scaled * self.q <= 1 << depth < (scaled + 1) * self.q

        x = Third()
        assert x.prefix(12) == "010101010101"
        assert x.sandwich_holds(int("0101", 2), 4)
        assert x.depth == 12


def fraction_e_enclosures(last):
    """Independent oracle: (n, lo, hi) with S_n = the sum of 1/v! over
    0 <= v <= n as a reduced Fraction and (lo, hi) = (S_n - 2,
    S_n - 2 + 1/(n*n!)), for n = 1..last."""
    total, fact = Fraction(1), 1
    for n in range(1, last + 1):
        fact *= n
        total += Fraction(1, fact)
        yield n, total - 2, total - 2 + Fraction(1, n * fact)


def fraction_tau_enclosures(last):
    """Independent oracle: (m, lo, hi) with lo the sum of 10**-(v!) over
    1 <= v <= m as a reduced Fraction and hi = lo + 2 * 10**-((m+1)!)."""
    total = Fraction(0)
    for m in range(1, last + 1):
        total += Fraction(1, 10 ** factorial(m))
        yield m, total, total + Fraction(2, 10 ** factorial(m + 1))


class TestIntegerEnclosures:
    # the streams hold lo/den < x < hi/den as integers, from the triples in
    # `series`; each triple must be the Fraction enclosure the oracles define
    def test_euler(self):
        assert EulerStream()._enclosure is _e_enclosure
        for n, lo, hi in fraction_e_enclosures(300):
            num_lo, num_hi, den = _e_enclosure(n)
            assert (Fraction(num_lo, den), Fraction(num_hi, den)) == (lo, hi), n

    def test_tau(self):
        assert LiouvilleStream()._enclosure is _tau_enclosure
        for m, lo, hi in fraction_tau_enclosures(7):
            num_lo, num_hi, den = _tau_enclosure(m)
            assert (Fraction(num_lo, den), Fraction(num_hi, den)) == (lo, hi), m

    def test_euler_terms_fit(self):
        # the count is closed-form, not a search: it fits, and past 64 bits
        # it stays within 1.6 times the least n with n * n! >= 2**bits
        assert EulerStream()._terms_for is _e_terms
        least = fact = 1
        for bits in [*range(1, 3000), 20_009, 100_008]:
            while least * fact < 1 << bits:
                least += 1
                fact *= least
            n = _e_terms(bits)
            assert n * factorial(n) >= 1 << bits, bits
            assert bits < 64 or 5 * n <= 8 * least, bits

    def test_tau_terms_fit(self):
        assert LiouvilleStream()._terms_for is _tau_terms
        for bits in (1, 5, 6, 17, 18, 71, 72, 359, 360, 2159, 2160, 15119, 15120, 120959):
            m = _tau_terms(bits)
            assert 2 << bits < 10 ** factorial(m + 1), bits


class TestStreamInvariants:
    KINDS = (
        lambda: RationalStream(1, 3),
        lambda: RationalStream(5, 16),
        lambda: RationalStream(355, 452),
        lambda: SqrtStream(2, 1),
        lambda: SqrtStream(5, 4),
        lambda: EulerStream(),
        lambda: LiouvilleStream(),
    )

    def test_prefix_extension_is_stable(self):
        for make in self.KINDS:
            x = make()
            head = x.prefix(10)
            assert x.prefix(40).startswith(head)
            assert x.prefix(10) == head

    def test_scaled_prefix_recurrence(self):
        for make in self.KINDS:
            x = make()
            previous = 0
            for depth in range(1, 65):
                bit = int(x.prefix(depth)[-1])
                scaled = int(x.prefix(depth), 2)
                assert scaled == 2 * previous + bit
                previous = scaled

    def test_sandwich_is_sharp_at_every_depth(self):
        # the emitted numerator is the only one the certificate accepts
        for make in self.KINDS:
            x = make()
            bits = x.prefix(64)
            for depth in range(1, 65):
                scaled = int(bits[:depth], 2)
                assert x.sandwich_holds(scaled, depth)
                assert not x.sandwich_holds(scaled + 1, depth)
                if scaled:
                    assert not x.sandwich_holds(scaled - 1, depth)

    def test_depth_errors(self):
        for make in self.KINDS:
            with pytest.raises(DepthZero):
                make().prefix(0)
            with pytest.raises(DepthZero):
                make().prefix(-3)
            with pytest.raises(DepthZero):
                make().sandwich_holds(0, 0)
            with pytest.raises(DepthZero):
                make().sandwich_holds(0, -3)


class TestDepthBudget:
    def test_refuses_before_any_work(self, monkeypatch):
        def reached(depth):
            raise AssertionError("the budget was checked after the work began")

        for make in TestStreamInvariants.KINDS:
            x = make()
            monkeypatch.setattr(x, "_floor", reached)
            with pytest.raises(BudgetExceeded) as refused:
                x.prefix(_DEPTH_CAP + 1)
            assert refused.value.payload == {"requested": _DEPTH_CAP + 1, "cap": _DEPTH_CAP}
            with pytest.raises(BudgetExceeded) as refused:
                x.sandwich_holds(0, _DEPTH_CAP + 1)
            assert refused.value.payload == {"requested": _DEPTH_CAP + 1, "cap": _DEPTH_CAP}
            assert x.depth == 0

    def test_cap_clears_the_bench_and_stays_within_seven_tau_terms(self):
        # the bench draws rational depths up to 75 000 plus a shift per
        # round, and `approximate` asks for one bit more
        assert 75_100 < _DEPTH_CAP
        # the stream's first tightening asks for 8 guard bits
        assert _tau_terms(_DEPTH_CAP + 8) <= _LIOUVILLE_CAP

    def test_the_cap_itself_is_served(self):
        assert RationalStream(1, 3).prefix(_DEPTH_CAP) == "01" * (_DEPTH_CAP // 2)


class TestOneShotPrefixes:
    KINDS = TestStreamInvariants.KINDS

    def test_deep_square_roots_against_isqrt(self):
        # floor(sqrt(a/b) * 2**d) = isqrt(a*b * 4**d) // b, a route the
        # stream does not take
        d = 20_000
        for a, b in ((2, 1), (10, 3)):
            x = SqrtStream(a, b)
            whole = isqrt((a * b) << (2 * d)) // b
            assert x.prefix(d) == format(whole - (x.root_floor << d), f"0{d}b")

    def test_deep_third_against_integer_division(self):
        d = 100_000
        assert int(RationalStream(1, 3).prefix(d), 2) == (1 << d) // 3

    def test_deep_series_streams_against_mpmath(self):
        with mpmath.workprec(4100):
            assert EulerStream().prefix(4000) == mp_bits(mpmath.e - 2, 4000)
        with mpmath.workprec(5100):
            assert LiouvilleStream().prefix(5000) == mp_bits(mp_tau(), 5000)

    def test_prefix_next_to_a_cell_edge(self):
        # 16 and 9 equal bits follow these depths of e, so the first
        # enclosure tried straddles a cell edge and the prefix comes from
        # the retry with a wider guard
        for depth in (3624, 6030):
            deep = EulerStream().prefix(depth + 64)
            assert EulerStream().prefix(depth) == deep[:depth]

    def test_one_deep_certificate_covers_every_shorter_depth(self):
        for make in self.KINDS:
            x = make()
            bits = x.prefix(1000)
            for depth in range(1, 1001):
                assert x.sandwich_holds(int(bits[:depth], 2), depth)

    def test_shallow_request_keeps_the_deep_prefix(self):
        for make in self.KINDS:
            x = make()
            deep = x.prefix(40)
            assert x.prefix(10) == deep[:10]
            assert x.depth == 40
            assert x.scaled_prefix == int(deep, 2)

    def test_boundary_depth_appears_at_the_dyadic_exponent(self):
        r = RationalStream(5, 16)
        r.prefix(3)
        assert r.boundary_depth is None
        r.prefix(4)
        assert r.boundary_depth == 4

    def test_boundary_depth_is_read_only(self):
        r = RationalStream(5, 16)
        r.prefix(8)
        with pytest.raises(AttributeError):
            r.boundary_depth = 2
        assert r.boundary_depth == 4

    def test_prefix_floors_and_checks_once_per_extension(self, monkeypatch):
        for make in self.KINDS:
            x = make()
            calls = []
            floor, holds = x._floor, x._holds
            monkeypatch.setattr(x, "_floor", lambda d: calls.append("floor") or floor(d))
            monkeypatch.setattr(x, "_holds",
                                lambda p, d: calls.append("holds") or holds(p, d))
            x.prefix(40)
            x.prefix(10)
            x.prefix(3000)
            assert calls == ["floor", "holds"] * 2, x.name

    def test_holds_calls_no_stream_method_and_writes_nothing(self, monkeypatch):
        def reached(*args):
            raise AssertionError("_holds called back into the stream")

        for make in self.KINDS:
            x = make()
            scaled = int(x.prefix(64), 2)
            for name in ("_floor", "prefix", "sandwich_holds", "exact_dyadic"):
                monkeypatch.setattr(x, name, reached)
            state = dict(vars(x))
            assert x._holds(scaled, 64) and not x._holds(scaled + 1, 64), x.name
            assert x._holds(scaled >> 30, 34), x.name
            assert vars(x) == state, x.name

    def test_wrong_floor_fails_the_certificate(self):
        for cls, args in ((RationalStream, (1, 3)), (SqrtStream, (2, 1)),
                          (EulerStream, ()), (LiouvilleStream, ())):
            class OffByOne(cls):
                def _floor(self, depth):
                    return super()._floor(depth) + 1

            x = OffByOne(*args)
            with pytest.raises(AssertionError, match="certificate failed at depth 20"):
                x.prefix(20)
            with pytest.raises(AssertionError, match="certificate failed at depth 20"):
                x.sandwich_holds(0, 20)
            assert x.depth == 0


class TestOutsideVerification:
    # sandwich_holds must judge a recorded prefix whatever the stream's state
    SERIES = ((EulerStream, EULER_BITS, lambda: mpmath.e - 2),
              (LiouvilleStream, TAU_BITS, mp_tau))

    @staticmethod
    def deep_bits(value):
        with mpmath.workprec(4100):
            return mp_bits(value(), 4000)

    def test_fresh_streams_accept_correct_prefixes(self):
        for cls, bits, value in self.SERIES:
            assert cls().sandwich_holds(int(bits, 2), 64)
            assert cls().sandwich_holds(int(self.deep_bits(value), 2), 4000)

    def test_fresh_streams_reject_a_flipped_bit(self):
        for cls, bits, value in self.SERIES:
            for position in range(64):
                assert not cls().sandwich_holds(int(bits, 2) ^ (1 << position), 64)
            deep = int(self.deep_bits(value), 2)
            for position in (0, 1, 1999, 3998, 3999):
                assert not cls().sandwich_holds(deep ^ (1 << position), 4000)

    def test_certified_depth_is_judged_without_floor(self, monkeypatch):
        # the bench's oracles call sandwich_holds after every stream call
        def reached(depth):
            raise AssertionError("sandwich_holds floored a certified depth")

        for make in TestStreamInvariants.KINDS:
            x = make()
            bits = x.prefix(200)
            monkeypatch.setattr(x, "_floor", reached)
            assert x.sandwich_holds(int(bits, 2), 200)
            assert x.sandwich_holds(int(bits[:64], 2), 64)
            assert not x.sandwich_holds(int(bits, 2) + 1, 200)

    def test_sandwich_holds_formats_no_prefix(self, monkeypatch):
        # at a certified depth and at an uncertified one, the verdict is
        # an integer check: no prefix text is built only to be dropped
        def reached(*args):
            raise AssertionError("sandwich_holds formatted a prefix")

        for make in TestStreamInvariants.KINDS:
            bits = make().prefix(200)
            x = make()
            monkeypatch.setattr(reals, "format", reached, raising=False)
            assert x.sandwich_holds(int(bits[:100], 2), 100)
            assert x.depth == 100
            assert x.sandwich_holds(int(bits[:64], 2), 64)
            assert not x.sandwich_holds(int(bits[:64], 2) + 1, 64)
            assert x.sandwich_holds(int(bits, 2), 200)
            assert x.depth == 200
            monkeypatch.undo()

    def test_uncertified_depth_is_floored_once_and_kept(self, monkeypatch):
        for make in TestStreamInvariants.KINDS:
            bits = make().prefix(300)
            x = make()
            calls = []
            floor = x._floor
            monkeypatch.setattr(x, "_floor", lambda d: calls.append(d) or floor(d))
            assert x.sandwich_holds(int(bits, 2), 300), x.name
            assert (calls, x.depth) == ([300], 300), x.name
            assert x.prefix(300) == bits
            assert calls == [300], x.name

    def test_deep_stream_accepts_a_shallow_prefix(self):
        for cls, bits, _ in self.SERIES:
            x = cls()
            x.prefix(4000)
            assert x.sandwich_holds(int(bits, 2), 64)
            assert not x.sandwich_holds(int(bits, 2) ^ 1, 64)


class TestParseReal:
    def test_names(self):
        assert isinstance(parse_real("sqrt2"), SqrtStream)
        assert isinstance(parse_real("e"), EulerStream)
        assert isinstance(parse_real("tau"), LiouvilleStream)
        r = parse_real("rat:3/8")
        assert isinstance(r, RationalStream) and (r.p, r.q) == (3, 8)

    def test_rejects_junk(self):
        for bad in ("bogus", "rat:", "rat:3", "rat:3/0", "rat:-1/3", "rat:a/b"):
            with pytest.raises(ValueError):
                parse_real(bad)
