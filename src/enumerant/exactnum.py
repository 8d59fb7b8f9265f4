"""Exact number kernel: rational intervals, certified log2 enclosures,
symbolic power-tower magnitudes and truncated decimals.

Everything in this module is exact.  Unbounded naturals and integers are
Python ``int``; rationals are ``fractions.Fraction``, which already keeps
the canonical form this package relies on (lowest terms, positive
denominator).  No code path here ever touches a float.

The hand-built types are the ones no stdlib type covers:

* ``RationalInterval``: closed interval with exact rational endpoints;
* ``log2_interval``: a certified dyadic enclosure of log2(n), exact width
  ``2**-p``, from two atanh series summed with floors and proven error
  bounds;
* ``Magnitude``: an exact natural or a symbolic tower ``base ** exponent``
  for quantities such as 2**(2**720) that must be ordered without ever
  being written out.

The value types are small immutable ``__slots__`` classes, each with its
own ``__init__`` and ``__str__`` (the exact text the package prints), on
one base that states equality, hashing, copying and repr once from the
fields; importing this module (and the package's CLI) never loads
``dataclasses``.  That base, ``_Immutable``, lives in `dyadic` beside
``DyadicRational``, the canonical ``m / 2**k`` in (0, 1] that the
enumeration's entries hold, so that `enum` loads neither this module nor
``fractions``.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import _EXPORTS
from .dyadic import _Immutable
from .errors import _DIGITS_CAP, _within

__all__ = _EXPORTS["exactnum"]


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


# ---------------------------------------------------------------------------
# rational intervals and certified log2


class RationalInterval(_Immutable):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_encloses(self, other: "RationalInterval") -> bool:
        return self.lo < other.lo and other.hi < self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.is_point else f"[{self.lo}, {self.hi}]"


def _atanh_sum(a: int, b: int, w: int) -> tuple[int, int]:
    """(S, E) with S <= 2**w * atanh(a/b) < S + E, for 0 <= a/b <= 1/3.

    S is the sum of floor(P_j / (2j+1)) with P_0 = floor(a * 2**w / b)
    and P_{j+1} = floor(P_j * a**2 / b**2), stopped at the first P_J = 0;
    E = 2J + 2.

    Proof.  With x = a/b, 2**w * atanh(x) is the sum over j of
    T_j / (2j+1), where T_j = 2**w * x**(2j+1).  Every floor rounds down,
    so P_j <= T_j, no summand exceeds its term and the dropped tail is
    positive: S <= 2**w * atanh(x).  For the other side let
    e_j = T_j - P_j.  Then e_0 < 1 and e_{j+1} < x**2 * e_j + 1
    <= e_j / 9 + 1, so every e_j < 9/8.  Summand j loses at most
    e_j / (2j+1) + 1 < 2 against its term (e_0 < 1 at j = 0, and
    9/8 / 3 + 1 after).  The tail from J on is at most
    T_J / (2J+1) / (1 - x**2) <= 9/8 * e_J / (2J+1), since T_J = e_J:
    below 9/8 at J = 0 and below 1/2 after.  So
    2**w * atanh(x) - S < 2J + 9/8 < 2J + 2.
    """
    aa, bb = a * a, b * b
    term = (a << w) // b
    total, j = 0, 1
    while term:
        total += term // j
        term = term * aa // bb
        j += 2
    return total, j + 1  # j = 2J + 1 on exit


@lru_cache(maxsize=8)
def _atanh_third(w: int) -> tuple[int, int]:
    """`_atanh_sum(1, 3, w)`: ln 2 / 2, shared by every log2 at width w."""
    return _atanh_sum(1, 3, w)


# one log2 enclosure of a short n at this precision: about 0.13 s (CPython
# 3.11, one Xeon core), and about four times that for each doubling past it
_LOG2_BITS_CAP = 1 << 15


def log2_interval(n: int, precision_bits: int = 32) -> RationalInterval:
    """Certified enclosure of log2(n) with width exactly ``2**-precision_bits``.

    Exact powers of two give a point interval.  Otherwise, with
    2**k < n < 2**(k+1) and p = precision_bits,

        log2 n = k + atanh(x) / atanh(1/3),  x = (n - 2**k) / (n + 2**k) < 1/3,

    since ln(n / 2**k) = 2 atanh(x) and ln 2 = 2 atanh(1/3).  Both series
    are summed in w-bit fixed point by `_atanh_sum`, which brackets
    2**w * atanh(x) in [A, A + E_A) and 2**w * atanh(1/3) in [L, L + E_L),
    so log2(n) - k lies strictly between A / (L + E_L) and
    (A + E_A) / L.  When both ends have the same floor f at 2**-p, the
    cell [k + f/2**p, k + (f+1)/2**p] holds log2 n; it is the only such
    cell, since log2 n is irrational.  When the floors differ, w doubles
    and both sums are redone.

    x depends on n / 2**s alone, for any shift s, so n is cut to its top
    bits m = n >> s with s = max(k - w, 0).  For k > w, m has w + 1 bits
    and n' = n / 2**s has m <= n' < m + 1: atanh is monotone, and with
    m >= 2**w, x grows by at most 2**-(w+1) from m to m + 1, while
    atanh' <= 9/8 below 1/3, so 2**w * atanh(x) lies in [A, A + E_A + 1).
    Integer arithmetic throughout.  A precision past ``_LOG2_BITS_CAP``
    raises `BudgetExceeded` before any work.
    """
    if n < 1:
        raise ValueError("log2 needs n >= 1")
    if precision_bits < 1:
        raise ValueError("precision must be at least one bit")
    _within(precision_bits, _LOG2_BITS_CAP)
    k = n.bit_length() - 1
    if n == 1 << k:
        point = Fraction(k)
        return RationalInterval(point, point)
    p = precision_bits
    w = p + 2 * p.bit_length() + 8
    while True:
        s = max(k - w, 0)
        m, e, cut = n >> s, k - s, s > 0  # cutting n costs one unit
        low, err = _atanh_sum(m - (1 << e), m + (1 << e), w)
        third, third_err = _atanh_third(w)
        frac = (low << p) // (third + third_err)
        if frac == ((low + err + cut) << p) // third:
            scale = 1 << p
            lo = (k << p) + frac
            return RationalInterval(Fraction(lo, scale), Fraction(lo + 1, scale))
        w *= 2


# ---------------------------------------------------------------------------
# magnitudes: exact naturals and symbolic power towers


class Magnitude(_Immutable):
    """Marker base class; instances are Exact or Tower."""

    __slots__ = ()


class Exact(Magnitude):
    """A natural number held in full."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


class Tower(Magnitude):
    """Symbolic ``base ** exponent`` with a natural base >= 2."""

    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: int, exponent: Magnitude):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __str__(self) -> str:
        return f"{self.base}^({self.exponent})"


DEFAULT_DIGIT_BUDGET = 10_000


@lru_cache(maxsize=8)
def _ten_to(digits: int) -> int:
    """10**digits, refused before it is built: a negative count with
    `ValueError` (``10 ** -1`` is a float), one past ``_DIGITS_CAP`` with
    `BudgetExceeded`; every power of ten sized by a caller's count comes here."""
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    _within(digits, _DIGITS_CAP)
    return 10 ** digits


def _pow_vs_limit(base: int, exp: int, limit: int) -> Optional[int]:
    """``base**exp`` if it is < limit, else None.  Never builds huge values:
    a power of at least 2**bitlen(limit) is refused by bit lengths alone,
    and any other is below 2**(2 * bitlen(limit)), so it is built and
    compared exactly."""
    if (base.bit_length() - 1) * exp >= limit.bit_length():
        return None
    value = base ** exp
    return value if value < limit else None


def canonicalize(m: Magnitude, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> Magnitude:
    """Canonical form: a power is written out if and only if its value has
    at most ``digit_budget`` decimal digits; degenerate towers collapse.

    Invariant: every canonical Tower denotes a value of more than
    ``digit_budget`` digits.  A budget past ``_DIGITS_CAP`` raises
    `BudgetExceeded` before a power is sized against it.
    """
    if isinstance(m, Exact):
        if m.value < 0:
            raise ValueError("magnitudes are naturals")
        return m
    if not isinstance(m, Tower):
        raise TypeError(f"not a magnitude: {m!r}")
    exp = canonicalize(m.exponent, digit_budget)
    e = exp.value if isinstance(exp, Exact) else None
    if m.base < 0:
        raise ValueError("magnitudes are naturals")
    if e == 0 or m.base == 1:
        return Exact(1)
    if e == 1 or m.base == 0:
        return Exact(m.base)
    if e is not None:
        value = _pow_vs_limit(m.base, e, _ten_to(digit_budget))
        if value is not None:
            return Exact(value)
    return Tower(m.base, exp)


def _common_base(b1: int, b2: int) -> Optional[tuple[int, int]]:
    """(k1, k2) with b1 = c**k1 and b2 = c**k2 for one c, or None when no
    power of b1 equals a power of b2 (b1, b2 >= 2).  Euclid on the unknown
    exponents by exact division: if a > b are c**j and c**k, then
    q = (bitlen(a) - 1) // bitlen(b) <= j/k, as 2**(bitlen(a) - 1) <= a and
    b < 2**bitlen(b), so b**q divides a and a // b**q > 1 is again a power
    of c; a nonzero remainder proves that no common base exists.  Reading q
    from bit lengths keeps the steps O(log) where dividing by b would not.
    """
    a, b, p1, q1, p2, q2 = b1, b2, 1, 0, 0, 1  # b1 = a**p1 * b**q1, b2 = a**p2 * b**q2
    while a != b:
        if a < b:
            a, b, p1, q1, p2, q2 = b, a, q1, p1, q2, p2
        q = max(1, (a.bit_length() - 1) // b.bit_length())
        a, r = divmod(a, b ** q)
        if r:
            return None
        q1, q2 = q1 + q * p1, q2 + q * p2
    return p1 + q1, p2 + q2


def _value(m: Magnitude) -> int:
    """The value of a magnitude already known to be small, written out."""
    return m.value if isinstance(m, Exact) else m.base ** _value(m.exponent)


def _cmp_scaled(k1: int, m1: Magnitude, k2: int, m2: Magnitude,
                c: Optional[int] = None) -> int:
    """Sign of k1*value(m1) - k2*value(m2), for positive int scales and
    canonical magnitudes: the comparator's one recursion.  A caller that
    already holds the unscaled order of two towers passes it as c."""
    if isinstance(m1, Exact):
        if isinstance(m2, Exact):
            return _sign(k1 * m1.value - k2 * m2.value)
        return -_cmp_scaled(k2, m2, k1, m1)
    if isinstance(m2, Exact):
        # k2*n = k1*q + r (0 <= r < k1), so k1*V - k2*n = k1*(V - q) - r
        q, r = divmod(k2 * m2.value, k1)
        e = m1.exponent
        if isinstance(e, Tower) and _cmp_scaled(1, e, 1, Exact(q.bit_length())) >= 0:
            return 1  # V >= 2**E > q once E >= bitlen(q)
        # E is exact, or below bitlen(q), an int already held: write it out
        value = _pow_vs_limit(m1.base, _value(e), q + 1)
        return 1 if value is None else _sign(value - q) or -_sign(r)
    c = _cmp_tower_tower(m1, m2) if c is None else c
    order = _sign(k1 - k2)
    if c * order >= 0:  # the towers and the scales agree, or one side ties
        return c or order
    # they disagree: the larger tower must beat the other scale on its own
    # (k*V >= V > k'*V'), so fold that scale's bits into the sandwich
    big, k, small = (m1, k2, m2) if c > 0 else (m2, k1, m1)
    if _above(big, k, small):
        return c
    raise ValueError("comparison would exceed the digit budget")


def _above(s: Tower, k: int, t: Tower, c: Optional[int] = None) -> bool:
    """Whether the 2-power sandwich proves s > k*t, for canonical towers
    b**E and d**F, given the order c of E and F if the caller holds it.
    s >= 2**((bl(b) - 1)*E); with j = bitlen(k - 1), k <= 2**j and F >= 1,
    so k*t < 2**(bl(d)*F + j) <= 2**((bl(d) + j)*F).  On b = a**i both
    bounds are at least as tight as on a."""
    return _cmp_scaled(s.base.bit_length() - 1, s.exponent,
                       t.base.bit_length() + (k - 1).bit_length(), t.exponent, c) >= 0


def _cmp_log2(b1: int, m1: int, b2: int, m2: int) -> int:
    """Order b1**m1 vs b2**m2 for bases with no common power (so never equal),
    doubling certified log2 precision up to `log2_interval`'s budget."""
    precision = 32
    while True:
        i1 = log2_interval(b1, precision)
        i2 = log2_interval(b2, precision)
        if i1.lo * m1 > i2.hi * m2:
            return 1
        if i1.hi * m1 < i2.lo * m2:
            return -1
        precision *= 2


def _cmp_tower_tower(s: Tower, t: Tower) -> int:
    """Sign of value(s) - value(t), for canonical towers.  Two symbolic
    exponents never reach log2: the larger has the smaller base, so its side's
    `_above` scales bl - 1 < bl' oppose c, and the fold returns c or raises."""
    b1, e1, b2, e2 = s.base, s.exponent, t.base, t.exponent
    shared = _common_base(b1, b2)
    if shared is not None:
        return _cmp_scaled(shared[0], e1, shared[1], e2)
    # monotone: b1 > b2 >= 2 and E1 >= E2 give b1**E1 > b2**E2, and equal
    # exponents leave the order to the bases (unequal, as no common power)
    c, order = _cmp_scaled(1, e1, 1, e2), _sign(b1 - b2)
    if c == 0 or c == order:
        return order
    # the exponents oppose the bases: the sandwich, then certified log2
    if _above(s, 1, t, c):
        return 1
    if _above(t, 1, s, -c):
        return -1
    # both sandwiches failed, (bl1 - 1)*E1 < bl2*E2 and (bl2 - 1)*E2 < bl1*E1:
    # a symbolic exponent is below the exact one times a bit length, so write it out
    return _cmp_log2(b1, _value(e1), b2, _value(e2))


def magnitude_cmp(a: Magnitude, b: Magnitude,
                  digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Three-way order on magnitudes, decided exactly.

    Both sides are canonicalized once under the digit budget; past that a
    value is written out only when an int already held bounds it.  A tower
    goes against an int by its exponent against the int's bit length; two
    towers go by a common base, by monotonicity, by the 2-power sandwich
    (with any scale's bits folded in), then by certified log2.  What none
    settles raises ValueError, not a guess: 16^(2^40000) vs 2^(2^40002), or
    2^(2^720) vs 3^(2^719) at budget 30.  A log2 past ``_LOG2_BITS_CAP``
    bits raises BudgetExceeded.
    """
    return _cmp_scaled(1, canonicalize(a, digit_budget), 1, canonicalize(b, digit_budget))


class Reciprocal(_Immutable):
    """Exact ``1 / denominator`` where the denominator may stay symbolic."""

    __slots__ = __match_args__ = ("denominator",)

    def __init__(self, denominator: Magnitude):
        object.__setattr__(self, "denominator", denominator)

    def __str__(self) -> str:
        return "1" if self.denominator == Exact(1) else f"1/{self.denominator}"


# ---------------------------------------------------------------------------
# decimal rendering (always truncation, never rounding)


def _truncate(value: Fraction, digits: int) -> tuple[int, int]:
    """(floor(value * 10**digits), the remainder's numerator) for a
    nonnegative rational: the one truncation behind every decimal."""
    if value.numerator < 0:
        raise ValueError("decimals are written for nonnegative values")
    return divmod(value.numerator * _ten_to(digits), value.denominator)


def _fixed(scaled: int, digits: int) -> str:
    """``scaled / 10**digits`` written as whole.frac with `digits` places."""
    text = f"{scaled:0{digits + 1}d}"
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def decimal_string(value: Fraction, digits: int) -> str:
    """Decimal expansion of a nonnegative rational, truncated to `digits`
    fractional places; a trailing ``...`` marks a nonzero cut remainder."""
    scaled, tail = _truncate(value, digits)
    return _fixed(scaled, digits) + ("..." if tail else "")


def decimal_digit(value: Fraction, place: int) -> int:
    """Digit at 10**-place (place >= 1) of the truncated expansion of a
    nonnegative rational."""
    if place < 1:
        raise ValueError("place starts at 1")
    return _truncate(value, place)[0] % 10


def pinned_decimals(interval: RationalInterval, digits: int) -> Optional[str]:
    """The first `digits` decimal places shared by every point of a
    nonnegative interval, or None if the endpoints disagree that early."""
    lo, hi = _truncate(interval.lo, digits)[0], _truncate(interval.hi, digits)[0]
    return _fixed(lo, digits) if lo == hi else None
