import random
import tracemalloc
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm, prod

import mpmath
import pytest
from hypothesis import example, given, strategies as st

import enumerant.series as series
from enumerant.errors import BudgetExceeded
from enumerant.exactnum import decimal_digit, decimal_string, pinned_decimals
from enumerant.reals import _DEPTH_CAP, EulerStream
from enumerant.series import (
    _E_TERMS_CAP,
    _GEOMETRIC_CAP,
    _HARMONIC_CAP,
    _coprime_fraction,
    _e_enclosure,
    _e_terms,
    _harmonic_range,
    _lowest_terms,
    e_enclosure,
    geometric_partial,
    harmonic_partial,
    liouville_partial,
    oresme_block,
)


class TestOresmeBlocks:
    def test_frozen_first_blocks(self):
        # 1/2; 1/3+1/4; 1/5+...+1/8, summed by hand
        assert oresme_block(1).total == Fraction(1, 2)
        assert oresme_block(2).total == Fraction(7, 12)
        assert oresme_block(3).total == Fraction(533, 840)

    def test_block_boundaries(self):
        b = oresme_block(4)
        assert (b.first, b.last, b.terms) == (9, 16, 8)

    def test_every_block_is_at_least_a_half(self):
        for k in range(1, 15):
            block = oresme_block(k)
            assert block.at_least_half
            # and under 1: each of the 2**(k-1) terms is at most 1/(2**(k-1)+1)
            assert block.total < 1

    def test_blocks_match_a_left_fold(self):
        # independent route: the plain fold of 1/i over the block's range
        for k in range(1, 13):
            block = oresme_block(k)
            fold = Fraction(0)
            for i in range(block.first, block.last + 1):
                fold += Fraction(1, i)
            assert block.total == fold
            assert gcd(block.total.numerator, block.total.denominator) == 1

    def test_blocks_match_an_lcm_route(self):
        # independent route: every term over the lcm L of the block's range
        for k in range(13, 16):
            block = oresme_block(k)
            lcm = 1
            for i in range(block.first, block.last + 1):
                lcm = lcm * i // gcd(lcm, i)
            total = sum(lcm // i for i in range(block.first, block.last + 1))
            assert block.total == Fraction(total, lcm)

    def test_blocks_partition_the_harmonic_sum(self):
        total = Fraction(1)
        for k in range(1, 9):
            total += oresme_block(k).total
        assert total == harmonic_partial(256)

    def test_domain(self):
        with pytest.raises(ValueError):
            oresme_block(0)


class TestHarmonic:
    def test_frozen_values(self):
        assert harmonic_partial(1) == 1
        assert harmonic_partial(2) == Fraction(3, 2)
        assert harmonic_partial(3) == Fraction(11, 6)
        assert harmonic_partial(4) == Fraction(25, 12)

    def test_doubling_bound(self):
        for k in range(0, 11):
            assert harmonic_partial(1 << k) >= 1 + Fraction(k, 2)

    def test_tree_matches_a_left_fold(self):
        # independent route: the plain left-to-right fold of 1/i
        for n in (1, 2, 16, 17, 33, 37, 256, 1000):
            fold = Fraction(0)
            for i in range(1, n + 1):
                fold += Fraction(1, i)
            total = harmonic_partial(n)
            assert total == fold
            assert gcd(total.numerator, total.denominator) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic_partial(0)


def _fold(lo, hi):
    """The plain left fold of 1/i over lo <= i <= hi."""
    fold = Fraction(0)
    for i in range(lo, hi + 1):
        fold += Fraction(1, i)
    return fold


class TestHarmonicRange:
    # structural edges of the smooth / prime-run split, r = isqrt(hi):
    @example(1, 1)  # hi < 4: r = 1, so every term but 1/1 is a prime's
    @example(1, 2)
    @example(2, 3)
    @example(1, 3)
    @example(97, 97)  # lo = hi, a prime
    @example(2048, 2048)  # lo = hi, smooth
    @example(100, 2999)  # hi a prime
    @example(1, 2809)  # hi = 53**2
    @example(1, 2600)  # hi = r**2 + 2r, the last hi with r = 50
    @example(1300, 2600)
    @example(2000, 2010)  # no multiple of the primes in (1005, 1999]
    @example(1, 2048)  # hi a power of two
    @example(1025, 2048)
    # the reduction's two factors, g = gcd(N, c) * gcd(N, d):
    @example(1, 6)  # 3 > r = 2 divides its coefficient: g = 3
    @example(9, 16)  # 5 > r = 4 divides its coefficient: g = 5
    @example(1, 21)  # gcd(N, c) = 9, with r = 4
    @given(st.integers(1, 3000), st.integers(1, 3000))
    def test_matches_a_left_fold(self, a, b):
        lo, hi = min(a, b), max(a, b)
        total = _harmonic_range(lo, hi)
        assert type(total) is Fraction
        # Fraction equality compares numerators and denominators as they are
        assert total == _fold(lo, hi)
        assert gcd(total.numerator, total.denominator) == 1

    def test_block_fourteen_against_the_lcm(self):
        # both factors of the reduction act here: gcd(N, c) = 29, and the
        # primes 157 and 1627 above r = 128 divide their own coefficients.
        # Over a doubling block, c*d is the lcm L of the range.
        lo, hi = (1 << 13) + 1, 1 << 14
        L = lcm(*range(lo, hi + 1))
        want = Fraction(sum(L // i for i in range(lo, hi + 1)), L)
        total = _harmonic_range(lo, hi)
        assert (total.numerator, total.denominator) == (want.numerator, want.denominator)
        assert L // total.denominator == 29 * 157 * 1627

    def test_no_gcd_on_two_full_size_numbers(self, monkeypatch):
        # every gcd has one operand short: N mod c, or a run's coefficient,
        # at most c * H_r < c * r (it runs one or two bits past c)
        def smooth_modulus(hi):
            c = 1
            for p in range(2, isqrt(hi) + 1):
                if all(p % q for q in range(2, p)):
                    power = p
                    while power * p <= hi:
                        power *= p
                    c *= power
            return c

        shorter = []

        def spy(x, y):
            shorter.append(min(x, y))
            return gcd(x, y)

        monkeypatch.setattr(series, "gcd", spy)
        for hi, total in ((1 << 15, lambda: oresme_block(15).total),
                          (36000, lambda: harmonic_partial(36000))):
            shorter.clear()
            bits = total().denominator.bit_length()
            bound = smooth_modulus(hi) * isqrt(hi)
            assert shorter and max(shorter) <= bound
            # and short: under a fortieth of the result's length
            assert bound.bit_length() * 40 < bits

    def test_budget_refuses_before_the_sieve(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                harmonic_partial(_HARMONIC_CAP + 1)
            # the sieve alone would take more than _HARMONIC_CAP bytes
            assert tracemalloc.get_traced_memory()[1] < 16 * 1024
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "BudgetExceeded requested=262145 cap=262144"
        with pytest.raises(BudgetExceeded):
            oresme_block(19)

    def test_block_budget_refuses_before_the_shift(self, monkeypatch):
        def reached(lo, hi):
            raise AssertionError("the budget was checked after the sum began")

        monkeypatch.setattr(series, "_harmonic_range", reached)
        with pytest.raises(BudgetExceeded) as exc:
            oresme_block(19)
        assert str(exc.value) == "BudgetExceeded requested=524288 cap=262144"
        # 2**k past the default digit budget is written as a power
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                oresme_block(10 ** 6)
            # 2**(10**6) alone would take 125 000 bytes
            assert tracemalloc.get_traced_memory()[1] < 16 * 1024
        finally:
            tracemalloc.stop()
        assert exc.value.payload == {"requested": "2^(1000000)", "cap": _HARMONIC_CAP}

    def test_block_seventeen_stays_under_a_mebibyte(self):
        # the sieve (hi bytes) and the largest run's primes dominate; no
        # list holds every prime above isqrt(hi)
        tracemalloc.start()
        try:
            _harmonic_range((1 << 16) + 1, 1 << 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCoprimeFraction:
    @given(st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 60))
    def test_matches_the_public_constructor(self, n, d):
        g = gcd(n, d)
        n, d = n // g, d // g
        value = _coprime_fraction(n, d)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (n, d)
        assert value == Fraction(n, d)
        assert hash(value) == hash(Fraction(n, d))

    def test_takes_no_gcd(self):
        # a pair with a common factor stays as given: the helper never normalizes
        value = _coprime_fraction(6, 4)
        assert (value.numerator, value.denominator) == (6, 4)


class TestLowestTerms:
    _PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    # den over the primes below 30, each at least once, so that their
    # product r divides it; high powers on both sides make the passes repeat
    @example([12] * 10, [0] * 10, 1)
    @example([0] * 10, [12] * 10, 31)
    @given(st.lists(st.integers(0, 12), min_size=10, max_size=10),
           st.lists(st.integers(0, 12), min_size=10, max_size=10),
           st.integers(1, 10 ** 30))
    def test_matches_the_fraction_constructor(self, num_powers, den_powers, cofactor):
        num = cofactor * prod(p ** e for p, e in zip(self._PRIMES, num_powers))
        den = prod(p ** (e + 1) for p, e in zip(self._PRIMES, den_powers))
        want = Fraction(num, den)
        assert _lowest_terms(num, den, prod(self._PRIMES)) == (want.numerator, want.denominator)


class TestGeometric:
    def test_frozen_values(self):
        assert geometric_partial(1) == Fraction(1, 2)
        assert geometric_partial(2) == Fraction(3, 4)
        assert geometric_partial(10) == Fraction(1023, 1024)

    def test_matches_closed_form_up_to_a_thousand(self):
        # the closed form in the code against the term-by-term fold
        fold = Fraction(0)
        for n in range(1, 1001):
            fold += Fraction(1, 1 << n)
            assert geometric_partial(n) == fold == 1 - Fraction(1, 1 << n)

    def test_domain(self):
        with pytest.raises(ValueError):
            geometric_partial(0)

    def test_budget_refuses_before_the_sum(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the budget was checked after the sum began")

        monkeypatch.setattr(series, "Fraction", reached)
        for n in (_GEOMETRIC_CAP + 1, 10 ** 40):
            with pytest.raises(BudgetExceeded) as refused:
                geometric_partial(n)
            assert refused.value.payload == {"requested": n, "cap": _GEOMETRIC_CAP}

    def test_budget_clears_the_bench(self):
        # the bench draws n up to 36 000 plus a shift per round
        assert 36_000 + 1_000 < _GEOMETRIC_CAP


class TestEulerEnclosures:
    def test_first_two(self):
        assert e_enclosure(1).interval.lo == 2
        assert e_enclosure(1).interval.hi == 3
        assert e_enclosure(2).interval.lo == Fraction(5, 2)
        assert e_enclosure(2).interval.hi == Fraction(11, 4)

    def test_nesting_and_shrinking(self):
        previous = e_enclosure(1).interval
        for n in range(2, 51):
            current = e_enclosure(n).interval
            assert previous.strictly_encloses(current)
            assert current.width < previous.width
            previous = current

    def test_binary_splitting_matches_a_left_fold(self):
        # independent route: add 1/v! term by term
        fold, fact = Fraction(1), 1
        for n in range(1, 301):
            fact *= n
            fold += Fraction(1, fact)
            iv = e_enclosure(n).interval
            assert iv.lo == fold
            assert iv.hi == fold + Fraction(1, n * fact)

    def test_reduced_ends_match_the_fraction_constructor(self):
        # the public constructor's full gcds against `_lowest_terms`: every n
        # up to 300, then seeded n up to the cap and the cap itself
        ns = [*range(1, 301), *random.Random(9).sample(range(301, _E_TERMS_CAP), 3),
              _E_TERMS_CAP]
        for n in ns:
            lo, hi, den = _e_enclosure(n)
            iv = e_enclosure(n).interval
            for got, want in ((iv.lo, 2 + Fraction(lo, den)), (iv.hi, 2 + Fraction(hi, den))):
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator), n

    def test_width_at_twenty_five_terms(self):
        assert e_enclosure(25).interval.width < Fraction(1, 10 ** 26)

    def test_twenty_pinned_decimals(self):
        pinned = pinned_decimals(e_enclosure(25).interval, 20)
        assert pinned == "2.71828182845904523536"
        assert pinned == pinned_decimals(e_enclosure(30).interval, 20)

    def test_against_mpmath(self):
        mpmath.mp.dps = 60
        iv = e_enclosure(40).interval
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo < mpmath.e < hi

    def test_domain(self):
        with pytest.raises(ValueError):
            e_enclosure(0)

    def test_budget_refuses_before_the_sum(self, monkeypatch):
        def reached(a, b):
            raise AssertionError("the budget was checked after the sum began")

        monkeypatch.setattr(series, "_factorial_series", reached)
        with pytest.raises(BudgetExceeded) as refused:
            e_enclosure(_E_TERMS_CAP + 1)
        assert refused.value.payload == {"requested": _E_TERMS_CAP + 1, "cap": _E_TERMS_CAP}

    def test_the_stream_shares_the_budget(self, monkeypatch):
        monkeypatch.setattr(series, "_E_TERMS_CAP", 20)
        with pytest.raises(BudgetExceeded) as refused:
            EulerStream().prefix(200)
        assert refused.value.payload["cap"] == 20

    def test_budget_sits_past_the_deepest_stream(self):
        # a stream at the depth cap, even after its guard grows to the
        # whole depth again, never reaches the term cap
        assert _e_terms(2 * _DEPTH_CAP) <= _E_TERMS_CAP


class TestLiouvillePartials:
    def test_frozen_values(self):
        assert liouville_partial(1).value == Fraction(1, 10)
        assert liouville_partial(2).value == Fraction(11, 100)
        assert liouville_partial(3).value == Fraction(110001, 10 ** 6)

    def test_one_places(self):
        assert liouville_partial(4).one_places == (1, 2, 6, 24)

    def test_digits_are_ones_exactly_at_factorial_places(self):
        for m in range(1, 7):
            part = liouville_partial(m)
            places = set(part.one_places)
            last = factorial(m)
            text = decimal_string(part.value, last)
            assert not text.endswith("...")
            digits = text.split(".")[1]
            for p in range(1, last + 1):
                assert int(digits[p - 1]) == (1 if p in places else 0)

    def test_tail_bound_brackets_the_next_partial(self):
        for m in range(1, 6):
            part = liouville_partial(m)
            richer = liouville_partial(m + 1)
            assert part.value < richer.value < part.value + part.tail_bound

    def test_growth_guard(self):
        with pytest.raises(BudgetExceeded):
            liouville_partial(8)

    def test_digit_probe_helper(self):
        part = liouville_partial(4)
        assert decimal_digit(part.value, 24) == 1
        assert decimal_digit(part.value, 23) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            liouville_partial(0)
