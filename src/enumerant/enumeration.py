"""Breadth-first enumeration of all finite binary strings.

Entry n (n >= 1) is the binary expansion of n written in reverse, so the
2**(k-1) strings of length k occupy the index block [2**(k-1), 2**k) in
lexicographic-by-construction order, and every enumerated string ends in
a 1 bit.  Read as binary fractions (bit i after the point contributing
2**-i), the entries are exactly the odd-numerator dyadic rationals in
(0, 1), each appearing at exactly one index.

The diagonal pairing `cantor_pair` and its inverse `cantor_unpair`, the
bijection between naturals and pairs of naturals, sit beside the string
bijection.

`approximate` runs the enumeration against a certified real bit stream:
dyadic targets get their exact index, everything else gets a refutation
plus the nearest enumerated value at the requested depth.

The module level imports neither `exactnum` nor `fractions`: `entries`
and `approximate` import the value types in their bodies, so `pair`,
`diag` and `locate --bits` load neither.
"""

from __future__ import annotations

from itertools import count, repeat
from math import isqrt
from operator import add
from typing import Iterator, NamedTuple, TYPE_CHECKING

from . import _EXPORTS
from .errors import DepthZero, NotInImage, ZeroIndex, _check_bits

if TYPE_CHECKING:  # pragma: no cover
    from .exactnum import DyadicRational
    from .reals import ApproximationReport, ComputableReal

__all__ = _EXPORTS["enumeration"]


def index_to_string(n: int) -> str:
    """The n-th enumerated string: binary digits of n, reversed."""
    if n < 1:
        raise ZeroIndex(index=n)
    return format(n, "b")[::-1]


def index_to_string_recursive(n: int) -> str:
    """Same map built the way the table grows: length-k strings are the
    length-(k-1) strings each extended by a leading 0 and a leading 1.

    Kept deliberately independent of `index_to_string`; the two are
    compared exhaustively in the tests.
    """
    if n < 1:
        raise ZeroIndex(index=n)
    k = n.bit_length()
    if k == 1:
        return "1"
    j = n - (1 << (k - 1))  # 0-based offset within the length-k block
    prefix = "1" if j & 1 else "0"
    return prefix + index_to_string_recursive((1 << (k - 2)) + (j >> 1))


def string_to_index(bits: str) -> int:
    """Inverse of `index_to_string`.

    Only strings ending in 1 are enumerated.  A string with trailing
    zeros denotes the same value as its trimmed form, so the error
    carries the index of that equivalent entry.
    """
    _check_bits(bits)
    if bits.endswith("0"):
        trimmed = bits.rstrip("0")
        if not trimmed:
            raise NotInImage(value=bits)
        raise NotInImage(
            "trailing zeros do not change the denoted value",
            equivalent=int(trimmed[::-1], 2),
        )
    return int(bits[::-1], 2)


def cantor_pair(i: int, j: int) -> int:
    """Diagonal pairing code of (i, j), a bijection on pairs of naturals."""
    if i < 0 or j < 0:
        raise ValueError("pairing is defined on naturals")
    s = i + j
    return s * (s + 1) // 2 + j


def cantor_unpair(n: int) -> tuple[int, int]:
    """Inverse of `cantor_pair` via one integer square root."""
    if n < 0:
        raise ValueError("codes are naturals")
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


class ColumnPosition(NamedTuple):
    column: int
    position: int  # 1-based within the column


def column_of(n: int) -> ColumnPosition:
    """Which length block holds index n, and where in it."""
    if n < 1:
        raise ZeroIndex(index=n)
    k = n.bit_length()
    return ColumnPosition(k, n - (1 << (k - 1)) + 1)


def column_index(column: int, position: int) -> int:
    """Inverse of `column_of`."""
    if column < 1 or not 1 <= position <= (1 << (column - 1)):
        raise ZeroIndex(column=column, position=position)
    return (1 << (column - 1)) + position - 1


def column_entries(column: int) -> Iterator[str]:
    """All length-`column` entries, in enumeration order."""
    if column < 1:
        raise ZeroIndex(column=column)
    for n in range(1 << (column - 1), 1 << column):
        yield index_to_string(n)


class Entry(NamedTuple):
    index: int
    bits: str
    value: DyadicRational


# tuple.__new__ is all that Entry.__new__ does, minus its frame
_new_tuple = tuple.__new__


def entries(count: int) -> Iterator[Entry]:
    """The first `count` entries with their dyadic values."""
    from .exactnum import DyadicRational

    if count < 0:
        raise ValueError("count must be nonnegative")
    # an entry ends in 1, so its value is (int(bits, 2), len(bits)) as read
    for n, bits in zip(range(1, count + 1), all_strings()):
        yield _new_tuple(Entry, (n, bits, DyadicRational(int(bits, 2), len(bits))))


# the 8-bit reversals: entry 256*h + j is _LOW_BYTE[j] followed by entry h
_LOW_BYTE = tuple(format(j, "08b")[::-1] for j in range(256))


def all_strings() -> Iterator[str]:
    """Endless iterator over the whole enumeration (index 1, 2, ...),
    256 entries per C-level pass from index 256 on."""
    yield from map(index_to_string, range(1, 256))
    for head in map(index_to_string, count(1)):
        yield from map(add, _LOW_BYTE, repeat(head))


def locate_value(value: DyadicRational) -> int:
    """Index of the entry denoting `value`; the domain is (0, 1) dyadics."""
    return string_to_index(value.bits())  # value 1 is rejected by bits()


def approximate(x: ComputableReal, depth: int) -> ApproximationReport:
    """Search the enumeration for a real x in (0, 1) to a given depth.

    The depth-d prefix of x's certified bit stream pins x inside a
    half-open dyadic interval of width 2**-d; one extra bit picks the
    nearer endpoint as the best enumerated approximation.
    """
    # the report is a dataclass beside the streams, so that the rest of
    # this module loads no `dataclasses`.  `reals` binds the two value types
    # too: one statement costs a shallow call less than one per module
    from .reals import ApproximationReport, DyadicRational, Fraction

    if depth < 1:
        raise DepthZero(depth=depth)
    bits = x.prefix(depth + 1)
    prefix = bits[:depth]
    scaled = int(prefix, 2)
    exact = x.exact_dyadic()
    member = exact is not None
    top = 1 << depth
    if member:
        best = exact
        bound = Fraction(0)
    else:
        # the nearer endpoint, kept off 0 and 1, which are not enumerated;
        # an end cell may so take its far endpoint
        near = scaled + (bits[depth] == "1")
        best = DyadicRational(min(max(near, 1), top - 1), depth)
        bound = Fraction(1, top if scaled in (0, top - 1) else 2 * top)
    best_bits = best.bits()
    index = string_to_index(best_bits)
    return ApproximationReport(
        target=x.name,
        depth=depth,
        prefix=prefix,
        verdict="exact-member" if member else "no-finite-index",
        member_index=index if member else None,
        reason=None if member else (
            "every enumerated entry is a terminating binary fraction; "
            f"the target is certified distinct from every dyadic of exponent <= {depth}"),
        best_index=index,
        best_bits=best_bits,
        best_value=best,
        error_bound=bound,
    )
