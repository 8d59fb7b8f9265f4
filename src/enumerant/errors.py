"""Typed domain errors shared by every module in the package.

Each error carries a payload of named fields.  ``str(err)`` renders as
``<ErrorName> key=value ...``, which is exactly what the command line
prints on stderr before exiting with status 1.  Usage mistakes (bad
flags, malformed numbers) are not domain errors and exit with status 2.
"""

from __future__ import annotations

import functools
import gc

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class DomainError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, note: str = "", **payload):
        super().__init__(note)
        self.note = note
        self.payload = dict(payload)

    def __str__(self) -> str:
        parts = [type(self).__name__]
        parts.extend(f"{key}={value}" for key, value in self.payload.items())
        return " ".join(parts)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.payload.items())
        if self.note:
            fields = f"{fields}, note={self.note!r}" if fields else f"note={self.note!r}"
        return f"{type(self).__name__}({fields})"


class _Text:
    """Payload text formatted when it is printed, not when it is raised, so
    an error about an int past the int-to-str digit limit can still be built."""

    def __init__(self, form: str, *args):
        self.form, self.args = form, args

    def __str__(self) -> str:
        return self.form.format(*self.args)

    def __repr__(self) -> str:
        return repr(str(self))


class EmptyString(DomainError):
    """A bit string argument was empty."""


class ZeroIndex(DomainError):
    """An enumeration index was below 1 (the enumeration starts at 1)."""


class NotInImage(DomainError):
    """The bit string is not an enumerated entry (it does not end in 1).

    The payload carries ``equivalent``: the index of the string with the
    trailing zeros trimmed, which denotes the same value.
    """


class OutOfRange(DomainError):
    """A value fell outside the operation's stated domain."""


class DepthZero(DomainError):
    """A bit-stream depth below 1 was requested."""


class EnumerationExhausted(DomainError):
    """An enumeration handle yielded fewer entries than the stage requires."""


class EmptySet(DomainError):
    """The checked set was empty."""


class NotEvenPositiveDistinct(DomainError):
    """Set elements must be distinct positive even integers."""


class BudgetExceeded(DomainError):
    """A growth guard tripped: the work asked for is past a fixed budget."""


def _within(requested: int, cap: int) -> None:
    """Refuse a count past its cap: every growth guard that sizes work by a
    count calls this before the work starts."""
    if requested > cap:
        raise BudgetExceeded(requested=requested, cap=cap)


def _paused_gc(fn):
    """Run each call of `fn` with the cyclic collector off, and turn it on
    again however the call ends.

    For calls that fill a container with `count` tracked objects before
    they return: CPython starts a young pass every few hundred to few
    thousand tracked allocations, and each pass (every tenth an older one)
    walks the container still being filled.  The records the package
    builds form no cycles, so the pause frees nothing late.  A call made
    while the collector is already off, by a caller or by an outer paused
    call, leaves it off.  Never for a generator function: the pause would
    last into the consumer's code.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _check_bits(bits: str) -> None:
    """Reject the empty string and anything but ``0`` and ``1``."""
    if not bits:
        raise EmptyString()
    if bits.count("0") + bits.count("1") != len(bits):
        raise ValueError(f"not a bit string: {bits!r}")
