"""Exact partial sums: harmonic blocks, geometric sums, enclosures of e,
and the base-10 sparse sum with 1s at factorial decimal places.

All values are exact Fractions.  Nothing here estimates: enclosures come
with proven tail bounds, and every shortcut (closed forms, balanced
summation, binary splitting) is checked against an independent route in
the tests.

The module level imports no `exactnum`: `e_enclosure` imports its
interval type, and `oresme_block` the symbolic towers of its refusal, in
their bodies, so `harmonic` loads no `exactnum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count
from math import factorial, gcd, isqrt, prod
from typing import NamedTuple, TYPE_CHECKING

from . import _EXPORTS
from .errors import BudgetExceeded, _within

if TYPE_CHECKING:  # pragma: no cover
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


# a growth guard on hi, the last denominator of a harmonic range, whose sieve
# takes hi bytes: oresme_block(18) takes 0.09-0.12 s and block 19 would take
# 0.26-0.29 s (5 runs, CPython 3.11), while `harmonic --blocks 18` takes
# 1.41-1.74 s wall, most of it writing the sums out.  The golden
# `harmonic-blocks-19` transcripts record the refusal of block 19, so the cap
# stays
_HARMONIC_CAP = 1 << 18
# `series --name geometric --terms 500000` takes 0.72-0.89 s wall in each
# format, most of it writing out the 2**n denominator
_GEOMETRIC_CAP = 500_000
# `series --name e --terms 24000` takes 0.50 s wall, most of it printing the
# ends; with `--digits` at `exactnum._DIGITS_CAP` too, the two costs add:
# 1.80-1.83 s wall in each format (5 runs, CPython 3.11.7, one Xeon core).
# The golden `series-name-e-terms-24001` transcripts record the refusal, so
# the cap stays
_E_TERMS_CAP = 24000
# the m-th tau sum's denominator 10**(m!) has 40321 digits at m = 8
_LIOUVILLE_CAP = 7

_NOT = bytes.maketrans(b"\0\1", b"\1\0")


def _coprime_fraction(n: int, d: int) -> Fraction:
    """n/d with exactly that numerator and denominator, for coprime n and
    d > 0, built with no gcd: the two slot writes of 3.12's private
    ``Fraction._from_coprime_ints``, which fill the same slots on 3.10-3.13."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = n, d
    return value


def _prime_reciprocals(primes: list[int], i: int, j: int) -> tuple[int, int]:
    """(n, d) with d the product of primes[i:j] and n/d the sum of their
    reciprocals.  The denominators are coprime, so a merge only multiplies:
    n1/d1 + n2/d2 = (n1*d2 + n2*d1)/(d1*d2)."""
    if j - i <= 16:
        n, d = 0, 1
        for p in primes[i:j]:
            n, d = n * p + d, d * p
        return n, d
    mid = (i + j) // 2
    n1, d1 = _prime_reciprocals(primes, i, mid)
    n2, d2 = _prime_reciprocals(primes, mid, j)
    return n1 * d2 + n2 * d1, d1 * d2


def _sieve(hi: int) -> bytearray:
    """sieve[i] is 1 exactly where i is a prime, for 0 <= i <= hi, hi >= 1."""
    sieve = bytearray(b"\1") * (hi + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi + 1, p)))
    return sieve


def _lowest_terms(num: int, den: int, r: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0 and an r > 0 that divides den
    and has every prime that num and den share, with no gcd taken on two
    full-size numbers.

    Each pass takes h = gcd(num mod r, r), which is gcd(num, r), divides
    num and den by h exactly (h divides num, and den as r does) and sets r
    to gcd(h, den).  Both conditions on r hold again after a pass:
    - gcd(h, den) divides the new den;
    - a prime p that the new num and den share, they shared before, so p
      divides r; as p divides num too, p divides h, and so the new r.
    The passes stop at h = 1, where no prime of r divides num, so by the
    second condition num and den share none.  Each pass with h > 1 divides
    den by h, so they do stop.  A pass costs one division of the full-size
    num by the short r and two exact divisions by the short h.
    """
    while (h := gcd(num % r, r)) > 1:
        num, den = num // h, den // h
        r = gcd(h, den)
    return num, den


def _harmonic_range(lo: int, hi: int) -> Fraction:
    """The sum of 1/i for lo <= i <= hi, reduced, with no gcd taken on two
    full-size numbers.

    With r = isqrt(hi), every i <= hi is either r-smooth (no prime factor
    above r) or p*m with one prime p > r and m <= r.  Each r-smooth i and
    each such m divides c = prod over primes s <= r of the largest power
    of s that is <= hi, a small number (about 1.2 kbit at hi = 2**17), so
    the smooth terms sum to a/c with a = sum of c // i.  The terms p*m for
    one p sum to coef(p)/(c*p), with coef(p) = sum of c // m over
    (lo - 1)//p < m <= hi//p; that pair of bounds is constant on runs of
    consecutive primes, so each run's coefficient is found once and its
    1/p are added by a product tree.  The runs fold from the smallest
    primes up.  Their denominators are distinct primes, so the fold takes
    no gcd and no division.

    The sum is N/(c*d), with d the product of the primes p > r that have a
    multiple in the range and N = a*d + sum over them of coef(p)*(d/p).  c
    and d are coprime, so gcd(N, c*d) = gcd(N, c) * gcd(N, d), and:
    - d is squarefree, so gcd(N, d) is the product g of the p in d that
      divide N.  Modulo one such p every term of N but p's own vanishes,
      and d/p is prime to p, so p divides N exactly when p divides
      coef(p).  A run shares one coef, so it adds gcd(coef, d2), d2 the
      product of its primes: one division of d2 by the short coef.
    - N/g and c*d/g then share only primes of c, which divides c*d/g, so
      `_lowest_terms` reduces them from residues mod the short c.
    The coprime pair becomes the `Fraction` with no further gcd.

    hi past `_HARMONIC_CAP` raises `BudgetExceeded` before any work.
    """
    _within(hi, _HARMONIC_CAP)
    r = isqrt(hi)
    sieve = _sieve(hi)
    c = 1
    for p in compress(range(r + 1), sieve[:r + 1]):
        power = p
        while power * p <= hi:
            power *= p
        c *= power
    # smooth[i - lo] ends 0 exactly where i = p*m, p a prime above r.  The
    # stride of each m writes 0 at m*p and 1 at m*x for composite x; in
    # increasing m no 1 lands on an earlier 0, since m*p = m'*x with m < m'
    # would need the prime p > r >= m' to divide x < p.
    smooth = bytearray(b"\1") * (hi - lo + 1)
    for m in range(1, r + 1):
        first, last = max(r + 1, -(-lo // m)), hi // m
        if first <= last:
            smooth[m * first - lo:m * last - lo + 1:m] = sieve[first:last + 1].translate(_NOT)
    a = sum(map(c.__floordiv__, compress(range(lo, hi + 1), smooth)))
    cumulative = list(accumulate(map(c.__floordiv__, range(1, r + 1)), initial=0))
    n, d, g = 0, 1, 1
    p = r + 1
    while p <= hi:
        above, below = hi // p, (lo - 1) // p
        end = min(hi // above, (lo - 1) // below) if below else hi // above
        if above > below:
            primes = list(compress(range(p, end + 1), sieve[p:end + 1]))
            n2, d2 = _prime_reciprocals(primes, 0, len(primes))
            coef = cumulative[above] - cumulative[below]
            n, d = n * d2 + coef * n2 * d, d * d2
            g *= gcd(coef, d2)
        p = end + 1
    n += a * d
    return _coprime_fraction(*_lowest_terms(n // g, c * d // g, c))


def oresme_block(k: int) -> OresmeBlock:
    """Block k of the harmonic series.  A last denominator 2**k past
    `_HARMONIC_CAP` raises `BudgetExceeded` before 2**k is built; its
    `requested` is the text of 2**k: digits within the default digit budget
    and 2^(k) past it."""
    if k < 1:
        raise ValueError("blocks start at k=1")
    if k >= _HARMONIC_CAP.bit_length():
        from .exactnum import Exact, Tower, canonicalize

        hi = str(canonicalize(Tower(2, Exact(k))))
        raise BudgetExceeded(requested=hi, cap=_HARMONIC_CAP)
    first, last = (1 << (k - 1)) + 1, 1 << k
    return OresmeBlock(k, first, last, _harmonic_range(first, last))


def harmonic_partial(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exactly, over one common denominator
    (a left fold's ever-growing denominators make it quadratic)."""
    if n < 1:
        raise ValueError("H_n needs n >= 1")
    return _harmonic_range(1, n)


def geometric_partial(n: int) -> Fraction:
    """Sum of 2**-i for i in 1..n, by the closed form 1 - 2**-n (the tests
    check it against the term-by-term fold).  n past `_GEOMETRIC_CAP`
    raises `BudgetExceeded` before 2**n is built."""
    if n < 1:
        raise ValueError("need n >= 1")
    _within(n, _GEOMETRIC_CAP)
    return 1 - Fraction(1, 1 << n)


class EulerEnclosure(NamedTuple):
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


def _e_enclosure(n: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo/den < e - 2 < hi/den over den = n*n!, from the
    sum 2 + p/n! of 1/v! over v <= n.  The tail 1/(n+1)! * (1 + 1/(n+2) +
    ...) is positive and below (n+2)/((n+1)*(n+1)!) < 1/(n*n!).  n past
    `_E_TERMS_CAP` raises `BudgetExceeded` before any work."""
    _within(n, _E_TERMS_CAP)
    p, fact = _factorial_series(0, n)
    lo = n * (p - fact)
    return lo, lo + 1, n * fact


def _e_terms(bits: int) -> int:
    """A term count n at which `_e_enclosure`'s width 1/(n*n!) is at most
    2**-bits: the least n with n * (bitlen(n) - 3) >= bits, which fits but
    need not be the least that fits.

    Sound: n! >= (n/e)**n for every n >= 1, and bitlen(n) - 3 <=
    log2(n) - 2 < log2(n/e), as log2(e) < 2.  So log2(n * n!) >=
    n * log2(n/e) > n * (bitlen(n) - 3) >= bits.  As n * (bitlen(n) - 3)
    grows with n, the least n has the least length L >= 4 at which
    (2**L - 1) * (L - 3) >= bits, and is the larger of 2**(L-1) and
    ceil(bits / (L - 3)).
    """
    length = next(L for L in count(4) if ((1 << L) - 1) * (L - 3) >= bits)
    return max(1 << (length - 1), -(-bits // (length - 3)))


def e_enclosure(n: int) -> EulerEnclosure:
    """The reduced interval S_n <= e <= S_n + 1/(n*n!) about e, with S_n the
    sum of 1/v! over 0 <= v <= n, for n >= 1.  An n past `_E_TERMS_CAP`
    raises `BudgetExceeded` before any work.

    The primes of the common denominator n*n! are those up to n, so
    `_lowest_terms` reduces each end from its residues mod their product
    (35 kbit at the cap, against 314-kbit ends), and 2 + num/den is
    (num + 2*den)/den, still coprime."""
    from .exactnum import RationalInterval

    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi, den = _e_enclosure(n)
    primes = prod(compress(range(n + 1), _sieve(n)))
    lo, lo_den = _lowest_terms(lo, den, primes)
    hi, hi_den = _lowest_terms(hi, den, primes)
    return EulerEnclosure(n, RationalInterval(_coprime_fraction(lo + 2 * lo_den, lo_den),
                                              _coprime_fraction(hi + 2 * hi_den, hi_den)))


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


def _tau_enclosure(m: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo/den < tau < hi/den over den = 10**((m+1)!): the
    tail past the m-th term is positive and, as its exponents step by at
    least one, at most 10/9 of its first term 10**-((m+1)!)."""
    p, q = _liouville_series(m)
    scale = 10 ** (factorial(m + 1) - factorial(m))
    return p * scale, p * scale + 2, q * scale


def _tau_terms(bits: int) -> int:
    """The least m with 3 * (m+1)! > bits: then `_tau_enclosure`'s width
    2 * 10**-((m+1)!) < 2**(1 - 3 * (m+1)!) is below 2**-bits."""
    m = 1
    while 3 * factorial(m + 1) <= bits:
        m += 1
    return m


def liouville_partial(m: int) -> LiouvillePartial:
    """Exact m-term partial sum; m past `_LIOUVILLE_CAP` raises `BudgetExceeded`."""
    if m < 1:
        raise ValueError("need m >= 1")
    _within(m, _LIOUVILLE_CAP)
    places = tuple(factorial(v) for v in range(1, m + 1))
    tail = Fraction(2, 10 ** factorial(m + 1))
    return LiouvillePartial(m, Fraction(*_liouville_series(m)), places, tail)
