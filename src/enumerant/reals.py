"""Computable reals in (0, 1) as certified binary bit streams.

A stream reads the depth-d prefix of its value x in one shot: it computes
the numerator P = floor(x * 2**d) directly and then checks the
kind-specific integer certificate

    P/2**d  <=  x  <  (P+1)/2**d

once, at that final depth.  One certificate covers every shorter prefix:
the depth-k prefix of P is Q = P >> (d-k), and Q/2**k <= P/2**d and
(P+1)/2**d <= (Q+1)/2**k, so the sandwich at depth d implies it at every
k < d.  For every non-dyadic value both inequalities are strict at every
depth, which is what entitles `approximate` to report a certified
non-membership.  Dyadic rationals follow the terminating convention (the
expansion ends in repeating 0s); `boundary_depth` reports the depth at
which the value meets the lower endpoint exactly rather than raising.

`_floor` computes P (an enclosure tightens first) and writes nothing else;
its one caller is `_certify`, which `prefix` and `sandwich_holds` both
call, so every route to a deeper depth passes the same depth checks.  Each
kind's pure `_holds` is its certificate; it never reads `_floor`'s answer,
so a wrong `_floor` cannot certify itself.

`ApproximationReport`, what `enumeration.approximate` finds for a stream,
is defined here beside the streams, so that a command which never reads
a stream loads no `dataclasses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from . import _EXPORTS
from .errors import DepthZero, _within
from .exactnum import DyadicRational
from .series import _e_enclosure, _e_terms, _tau_enclosure, _tau_terms

__all__ = _EXPORTS["reals"]

# a growth guard on depth for both `prefix` and `sandwich_holds`, below
# 120 952 bits, where tau would need an 8th term: `approx --depth 99999`
# takes 0.06 s for rat:1/3 and 0.14 s for e
_DEPTH_CAP = 100_000


class ComputableReal:
    """Base class: the deepest certified prefix and its shorter views."""

    name = "real"
    # nothing is certified until a prefix is asked for; the start is stated
    # on the class, so a subclass's own __init__ need not call the base's
    _depth = 0
    _scaled = 0  # the certified depth-_depth prefix as an integer

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def scaled_prefix(self) -> int:
        return self._scaled

    @property
    def boundary_depth(self) -> Optional[int]:
        """The dyadic value's exponent, once certified that deep, else None."""
        exact = self.exact_dyadic()
        return exact.exponent if exact is not None and exact.exponent <= self._depth else None

    def prefix(self, depth: int) -> str:
        """The first `depth` bits after the point.

        A request deeper than any before computes and certifies the
        prefix at exactly that depth; a shallower one reads the top bits
        of the deepest certified prefix.  A depth past `_DEPTH_CAP` raises
        `BudgetExceeded` before any work.
        """
        self._certify(depth)
        return format(self._scaled >> (self._depth - depth), f"0{depth}b")

    def _certify(self, depth: int) -> None:
        """Certify the stream to at least `depth`, after the depth checks:
        `DepthZero` below 1, then `BudgetExceeded` past `_DEPTH_CAP`."""
        if depth < 1:
            raise DepthZero(depth=depth)
        _within(depth, _DEPTH_CAP)
        if depth > self._depth:
            scaled = self._floor(depth)
            if not self._holds(scaled, depth):
                raise AssertionError(f"{self.name}: certificate failed at depth {depth}")
            self._depth, self._scaled = depth, scaled

    def exact_dyadic(self) -> Optional[DyadicRational]:
        """The value as a dyadic rational, when it is one (else None)."""
        return None

    def sandwich_holds(self, scaled: int, depth: int) -> bool:
        """Exact check that the value lies in [scaled/2**d, (scaled+1)/2**d).

        Usable by outside verifiers on any recorded prefix, not just the
        stream's own: the stream is first certified to `depth` by
        `_certify`, as in `prefix`, with the same refusals (`DepthZero`
        below 1, `BudgetExceeded` past `_DEPTH_CAP`, before any work), and
        then `_holds` judges the recorded prefix in pure integer
        arithmetic; no prefix text is formatted.
        """
        self._certify(depth)
        return self._holds(scaled, depth)

    def _floor(self, depth: int) -> int:
        """floor(x * 2**depth), before certification."""
        raise NotImplementedError


class RationalStream(ComputableReal):
    """Exact expansion of a rational p/q in (0, 1) by integer division."""

    def __init__(self, numerator: int, denominator: int):
        value = Fraction(numerator, denominator)
        if not 0 < value < 1:
            raise ValueError("rational streams live strictly inside (0, 1)")
        self.p = value.numerator
        self.q = value.denominator
        self.name = f"rat:{self.p}/{self.q}"

    def _floor(self, depth: int) -> int:
        return (self.p << depth) // self.q

    def exact_dyadic(self) -> Optional[DyadicRational]:
        if self.q & (self.q - 1):
            return None
        return DyadicRational(self.p, self.q.bit_length() - 1)

    def _holds(self, scaled: int, depth: int) -> bool:
        lhs = self.p << depth  # p * 2**d vs bounds scaled by q
        return scaled * self.q <= lhs < (scaled + 1) * self.q


class SqrtStream(ComputableReal):
    """Fractional part of sqrt(a/b) for a non-square ratio.

    The depth-d numerator is P = isqrt(floor(a * 4**d / b)) - c * 2**d,
    where c is the integer part of the root (floor(sqrt(floor(y))) equals
    floor(sqrt(y))).  It is certified by the integer square sandwich
    (c*2**d + P)**2 * b < a * 4**d < (c*2**d + P + 1)**2 * b;
    irrationality keeps every inequality strict.
    """

    def __init__(self, a: int, b: int):
        ratio = Fraction(a, b)
        if ratio <= 0:
            raise ValueError("need a positive radicand")
        self.a = ratio.numerator
        self.b = ratio.denominator
        s = isqrt(self.a * self.b)
        if s * s == self.a * self.b:  # reduced a/b is square iff a*b is
            raise ValueError("perfect-square ratio: the root is rational")
        self.root_floor = s // self.b
        self.name = f"sqrt({self.a}/{self.b})" if self.b != 1 else f"sqrt{self.a}"

    def _floor(self, depth: int) -> int:
        return isqrt((self.a << (2 * depth)) // self.b) - (self.root_floor << depth)

    def _holds(self, scaled: int, depth: int) -> bool:
        lo = (self.root_floor << depth) + scaled
        hi = lo + 1
        target = self.a << (2 * depth)
        return self.b * lo * lo < target < self.b * hi * hi


class _EnclosureStream(ComputableReal):
    """Bits from a strict enclosure lo/den < x < hi/den on plain integers.

    Subclasses bind a constant's two functions in `series`:
    `_enclosure(terms)`, the triple (lo, hi, den), nested and shrinking to
    zero width as `terms` grows, and `_terms_for(bits)`, a term count at
    which the width is at most 2**-bits.  A depth-d prefix tightens until the
    enclosure fits inside one cell of width 2**-d and reads the cell's
    floor: sound for any irrational value, which lies strictly inside some
    cell.  Both decisions are integer cross-multiplications.  `_holds` is
    containment in the current enclosure.  At a certified depth the
    enclosure already fits one cell, since a cell lies inside one cell at
    every shallower depth, so `_holds` judges a recorded prefix at any
    depth the stream has certified.

    A stream holds nothing until the first prefix is asked for: e and tau
    both start from the unit interval 0/1 < x < 1/1 at zero terms, which
    strictly holds every stream's value, and the first request tightens
    from there by the same loop as every later one.
    """

    _terms, _lo, _hi, _den = 0, 0, 1, 1

    def _floor(self, depth: int) -> int:
        """Tighten until the enclosure fits one cell of width 2**-depth
        and return that cell's floor."""
        guard = 8
        while True:
            scaled = (self._lo << depth) // self._den
            if self._hi << depth <= (scaled + 1) * self._den:
                return scaled
            terms = self._terms_for(depth + guard)
            if terms > self._terms:
                self._terms = terms
                self._lo, self._hi, self._den = self._enclosure(terms)
            guard *= 2  # if this still straddles, x lies close to a cell edge

    def _holds(self, scaled: int, depth: int) -> bool:
        return (scaled * self._den <= self._lo << depth
                and self._hi << depth <= (scaled + 1) * self._den)


class EulerStream(_EnclosureStream):
    """The fractional part of e, enclosed by its factorial series."""

    name = "e"
    _enclosure, _terms_for = staticmethod(_e_enclosure), staticmethod(_e_terms)


class LiouvilleStream(_EnclosureStream):
    """The sum of 10**-(v!) over v >= 1: decimal 1s at 1, 2, 6, 24, ..."""

    name = "tau"
    _enclosure, _terms_for = staticmethod(_tau_enclosure), staticmethod(_tau_terms)


def parse_real(text: str) -> ComputableReal:
    """CLI-facing names: sqrt2, e, tau, or rat:P/Q with 0 < P/Q < 1."""
    if text == "sqrt2":
        return SqrtStream(2, 1)
    if text == "e":
        return EulerStream()
    if text == "tau":
        return LiouvilleStream()
    if text.startswith("rat:"):
        num, sep, den = text[4:].partition("/")
        if sep and num.isdigit() and den.isdigit() and int(den) > 0:
            return RationalStream(int(num), int(den))
        raise ValueError(f"malformed rational: {text!r}")
    raise ValueError(f"unknown real name: {text!r}")


@dataclass(frozen=True)
class ApproximationReport:
    """Outcome of hunting a real number through the enumeration.

    `verdict` is "exact-member" when the target is a dyadic rational in
    (0, 1) (then `member_index` is its index), else "no-finite-index"
    with a `reason`.  In both cases `best_*` give the enumerated value
    nearest the target at the examined depth, with a proven error bound.
    """

    target: str
    depth: int
    prefix: str
    verdict: str
    member_index: Optional[int]
    reason: Optional[str]
    best_index: int
    best_bits: str
    best_value: DyadicRational
    error_bound: Fraction
