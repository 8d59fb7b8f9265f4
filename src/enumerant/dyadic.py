"""Dyadic rationals in (0, 1], the values of the enumerated strings, and
the immutable base that every value type of the package stands on.

``DyadicRational`` is canonical ``m / 2**k`` with odd numerator.  It is
its own module so that `enum`, which prints one per row, loads neither
`exactnum` nor ``fractions``: only `DyadicRational.value` builds a
``Fraction``, and it imports ``fractions`` when it is read.
"""

from typing import TYPE_CHECKING

from . import _EXPORTS
from .errors import OutOfRange, _Text, _check_bits

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

__all__ = _EXPORTS["dyadic"]


class _Immutable:
    """Base of the value types: fields are ``__slots__`` set once by
    ``__init__``, equal only within one class and hashed as a tuple.
    Copies and pickles call the class on its fields in slot order, so
    ``__init__`` must take them positionally in that order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class DyadicRational(_Immutable):
    """Canonical ``numerator / 2**exponent`` with odd numerator, in (0, 1].

    Trailing factors of two are stripped on construction, so equal values
    are structurally equal.  The exceptional point 1 is represented as
    ``1 / 2**0``; everything else lies strictly inside the unit interval.
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int):
        if numerator <= 0:
            raise OutOfRange(value=_Text("{}/2^{}", numerator, exponent))
        if not numerator & 1:  # strip to the odd canonical form in one shift
            zeros = (numerator & -numerator).bit_length() - 1
            numerator >>= zeros
            exponent -= zeros
        # odd n <= 2**e is bitlen(n) <= e, or n = 1 at e = 0; a negative e
        # fails too, with no e-bit power built
        if numerator.bit_length() > (exponent or 1):
            raise OutOfRange(value=_Text("{}/2^{}", numerator, exponent))
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    @classmethod
    def from_fraction(cls, value: "Fraction") -> "DyadicRational":
        """Build from an exact rational; the denominator must be a power of 2."""
        den = value.denominator
        if den & (den - 1):
            raise OutOfRange(value=_Text("{}", value), denominator=den)
        return cls(value.numerator, den.bit_length() - 1)

    @property
    def value(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self.numerator, 1 << self.exponent)

    def bits(self) -> str:
        """Terminating binary expansion after the point (values < 1 only)."""
        if self.exponent == 0:
            raise OutOfRange(value="1", note="1 has no fractional expansion")
        return format(self.numerator, f"0{self.exponent}b")

    def __str__(self) -> str:
        return f"{self.numerator}/{1 << self.exponent}" if self.exponent else "1"

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.exponent})"


def dyadic_from_string(bits: str) -> DyadicRational:
    """Value of a finite bit string read as a binary fraction.

    Bit i (1-based, left to right) contributes ``2**-i``; the empty string
    is rejected rather than mapped to 0.
    """
    _check_bits(bits)
    if "1" not in bits:
        raise OutOfRange(value=bits, note="all-zero strings denote 0, outside (0, 1]")
    return DyadicRational(int(bits, 2), len(bits))
