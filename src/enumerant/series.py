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
from math import factorial
from typing import Optional

from .errors import BudgetExceeded
from .exactnum import RationalInterval

__all__ = [
    "OresmeBlock",
    "oresme_block",
    "harmonic_partial",
    "geometric_partial",
    "EulerEnclosure",
    "e_enclosure",
    "LiouvillePartial",
    "liouville_partial",
]


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


def _reciprocal_sum(lo: int, hi: int) -> Fraction:
    """Sum of 1/i for lo <= i <= hi, split-and-merge to keep gcds cheap."""
    if hi - lo < 8:
        total = Fraction(0)
        for i in range(lo, hi + 1):
            total += Fraction(1, i)
        return total
    mid = (lo + hi) // 2
    return _reciprocal_sum(lo, mid) + _reciprocal_sum(mid + 1, hi)


def oresme_block(k: int) -> OresmeBlock:
    if k < 1:
        raise ValueError("blocks start at k=1")
    first, last = (1 << (k - 1)) + 1, 1 << k
    return OresmeBlock(k, first, last, _reciprocal_sum(first, last))


def harmonic_partial(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exactly, by balanced summation (a left
    fold's ever-growing denominators make it quadratic)."""
    if n < 1:
        raise ValueError("H_n needs n >= 1")
    return _reciprocal_sum(1, n)


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
    of a!/v! over a < v <= b."""
    if b - a == 1:
        return 1, b
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


DEFAULT_LIOUVILLE_CAP = 7


def liouville_partial(m: int, cap: Optional[int] = DEFAULT_LIOUVILLE_CAP) -> LiouvillePartial:
    """Exact m-term partial sum.  The cap is a growth guard (the m-th term
    already has 10**(m!) in the denominator), not a domain boundary; pass
    a bigger cap or None to go past it deliberately."""
    if m < 1:
        raise ValueError("need m >= 1")
    if cap is not None and m > cap:
        raise BudgetExceeded(requested=m, cap=cap)
    places = tuple(factorial(v) for v in range(1, m + 1))
    value = sum((Fraction(1, 10 ** p) for p in places), Fraction(0))
    tail = Fraction(2, 10 ** factorial(m + 1))
    return LiouvillePartial(m, value, places, tail)
