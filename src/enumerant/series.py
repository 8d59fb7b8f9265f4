"""Exact partial sums: harmonic blocks, geometric sums, enclosures of e,
and the base-10 sparse sum with 1s at factorial decimal places.

All values are exact Fractions.  Nothing here estimates: enclosures come
with proven tail bounds, and every shortcut (closed forms, balanced
summation, binary splitting) is checked against an independent route in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from . import _EXPORTS
from .errors import BudgetExceeded
from .exactnum import RationalInterval

__all__ = _EXPORTS["series"]


@dataclass(frozen=True)
class OresmeBlock:
    """The k-th doubling block of the harmonic series.

    Block k sums 1/i for i in (2**(k-1), 2**k]; each of its 2**(k-1)
    terms is at least 1/2**k, so the block total is at least 1/2, which
    is what makes the partial sums pass every bound.
    """

    k: int
    first: int
    last: int
    total: Fraction

    @property
    def terms(self) -> int:
        return self.last - self.first + 1

    @property
    def at_least_half(self) -> bool:
        return self.total >= Fraction(1, 2)


def _reciprocal_terms(lo: int, hi: int) -> tuple[int, int]:
    """(p, q), not reduced, with p/q the sum of 1/i for lo <= i <= hi.

    Leaves of up to 16 terms are summed as p/q + 1/i = (p*i + q)/(q*i).
    A merge splits the denominators' gcd out first, as `Fraction` does,
    so q stays near the lcm of lo..hi, but leaves the numerator's common
    factor to the caller: `Fraction(*_reciprocal_terms(lo, hi))`, built
    once at the top, reduces it.
    """
    if hi - lo < 16:
        p, q = 0, 1
        for i in range(lo, hi + 1):
            p, q = p * i + q, q * i
        return p, q
    mid = (lo + hi) // 2
    n1, d1 = _reciprocal_terms(lo, mid)
    n2, d2 = _reciprocal_terms(mid + 1, hi)
    g = gcd(d1, d2)
    s = d1 // g
    return n1 * (d2 // g) + n2 * s, s * d2


def oresme_block(k: int) -> OresmeBlock:
    if k < 1:
        raise ValueError("blocks start at k=1")
    first, last = (1 << (k - 1)) + 1, 1 << k
    return OresmeBlock(k, first, last, Fraction(*_reciprocal_terms(first, last)))


def harmonic_partial(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exactly, by balanced summation (a left
    fold's ever-growing denominators make it quadratic)."""
    if n < 1:
        raise ValueError("H_n needs n >= 1")
    return Fraction(*_reciprocal_terms(1, n))


def geometric_partial(n: int) -> Fraction:
    """Sum of 2**-i for i in 1..n, by the closed form 1 - 2**-n (the tests
    check it against the term-by-term fold)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 1 - Fraction(1, 1 << n)


@dataclass(frozen=True)
class EulerEnclosure:
    """S_n <= e <= S_n + 1/(n*n!) with S_n the factorial series through 1/n!."""

    n: int
    interval: RationalInterval


def _factorial_series(a: int, b: int) -> tuple[int, int]:
    """Binary splitting: (p, q) with q = (a+1)(a+2)...b and p/q the sum
    of a!/v! over a < v <= b.

    Leaves of up to 16 terms use Horner's rule from the last term back:
    the sum is (1 + (1 + ... (1 + 1/b) ... ) / (a+2)) / (a+1).
    """
    if b - a <= 16:
        p, q = 1, b
        for v in range(b - 1, a, -1):
            p, q = p + q, q * v
        return p, q
    mid = (a + b) // 2
    p_left, q_left = _factorial_series(a, mid)
    p_right, q_right = _factorial_series(mid, b)
    return p_left * q_right + p_right, q_left * q_right


def e_enclosure(n: int) -> EulerEnclosure:
    if n < 1:
        raise ValueError("need n >= 1")
    p, fact = _factorial_series(0, n)  # sum of 1/v! over 1 <= v <= n is p/n!
    lo = Fraction(fact + p, fact)
    hi = Fraction(n * (fact + p) + 1, n * fact)
    return EulerEnclosure(n, RationalInterval(lo, hi))


@dataclass(frozen=True)
class LiouvillePartial:
    """Sum of 10**-(v!) for v in 1..m: decimal 1s exactly at the factorial
    places 1, 2, 6, 24, ..., m!, and a tail strictly below 2*10**-((m+1)!)."""

    m: int
    value: Fraction
    one_places: tuple[int, ...]
    tail_bound: Fraction


def _liouville_series(m: int) -> tuple[int, int]:
    """(p, q) with q = 10**(m!) and p/q the sum of 10**-(v!) over
    1 <= v <= m."""
    top = factorial(m)
    return sum(10 ** (top - factorial(v)) for v in range(1, m + 1)), 10 ** top


# a growth guard: the m-th sum's denominator 10**(m!) has 40321 digits at m = 8
_LIOUVILLE_CAP = 7


def liouville_partial(m: int) -> LiouvillePartial:
    """Exact m-term partial sum; m past `_LIOUVILLE_CAP` raises `BudgetExceeded`."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m > _LIOUVILLE_CAP:
        raise BudgetExceeded(requested=m, cap=_LIOUVILLE_CAP)
    places = tuple(factorial(v) for v in range(1, m + 1))
    tail = Fraction(2, 10 ** factorial(m + 1))
    return LiouvillePartial(m, Fraction(*_liouville_series(m)), places, tail)
