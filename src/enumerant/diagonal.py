"""Finite-stage diagonalization against an enumeration of bit strings.

At stage N the diagonal takes the i-th bit of the i-th entry (entries
shorter than i are padded with 0s) and flips it.  The result differs
from each of the first N entries at a witnessed position, which is the
whole refutation: no finite prefix of the enumeration contains it.  A
certificate records every witness so anyone can re-check the claim from
the enumeration alone; the verifier below deliberately shares no logic
with the construction.
"""

from __future__ import annotations

from itertools import chain, count, islice, repeat, takewhile
from operator import eq, itemgetter, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from . import _EXPORTS
from .errors import EnumerationExhausted, _paused_gc, _within

__all__ = _EXPORTS["diagonal"]

# a re-iterable collection, or a zero-argument callable yielding a fresh
# iterator per call (generators are one-shot; wrap them in a callable)
EnumerationSource = Union[Iterable[str], Callable[[], Iterable[str]]]

# a certificate holds every record, so the stage bounds the time and memory
# of one call: at this stage `certify_absence` takes 0.065-0.067 s, and `diag
# --count` 0.15-0.16 s wall in plain, 0.26 s in csv and 0.31-0.32 s in
# json-lines, at a 61 MiB peak RSS (CPython 3.11.7, 2 shared cores, 5 runs each)
_STAGE_CAP = 200_000
# bounds on a certificate's text and on each of its lines, checked before any
# field is parsed: with the CLI's int-to-str digit limit removed, `int` takes
# time quadratic in a field's length.  At the stage cap `certificate_to_text`
# writes 3 377 808 characters, none of its lines longer than 17.  The worst
# text within both bounds claims a stage at the cap and holds more records:
# 524 000 lines of "0 0 0 0" are all parsed before the count is refused, so
# `diag --verify` takes about 0.40-0.41 s and a 99 MiB peak RSS, against
# 0.25-0.30 s and 65 MiB for the valid certificate at the cap (same host)
_TEXT_CHARS = 1 << 22
_LINE_CHARS = 80


def _fresh(source: EnumerationSource) -> Iterator[str]:
    return iter(source() if callable(source) else source)


class MismatchRecord(NamedTuple):
    index: int  # which entry
    position: int  # which bit (1-based); equals index on the diagonal
    entry_bit: int  # that entry's bit there, 0-padded past its end
    diagonal_bit: int  # the flipped bit the diagonal uses


class DiagonalCertificate:
    """Stage-N absence certificate.

    Equality, hashing and the text form cover the core fields (stage,
    padding rule, records, and the diagonal they spell); the convenience
    flags `ends_in_one` and `occurs_in_prefix` are derived, may be None
    on parsed certificates, and are recomputed during verification.
    """

    def __init__(self, stage: int, records: tuple[MismatchRecord, ...],
                 padding: str = "zero",
                 ends_in_one: Optional[bool] = None,
                 occurs_in_prefix: Optional[bool] = None):
        self.stage = stage
        self.records = records
        self.padding = padding
        # %s is str() of each bit, without a call through the str type
        self.diagonal = "%s" * len(records) % tuple(map(itemgetter(3), records))
        self.ends_in_one = ends_in_one
        self.occurs_in_prefix = occurs_in_prefix

    def _core(self):
        return (self.stage, self.padding, self.records)

    def __eq__(self, other):
        if not isinstance(other, DiagonalCertificate):
            return NotImplemented
        return self._core() == other._core()

    def __hash__(self):
        return hash(self._core())

    def __repr__(self):
        return (f"DiagonalCertificate(stage={self.stage}, "
                f"diagonal={self.diagonal!r}, padding={self.padding!r})")


def diagonal_prefix(source: EnumerationSource, stage: int) -> str:
    """The stage-N diagonal string (flipped diagonal bits)."""
    return certify_absence(source, stage).diagonal


@_paused_gc
def certify_absence(source: EnumerationSource, stage: int) -> DiagonalCertificate:
    """Build the stage-N diagonal plus one mismatch witness per entry.

    Reads the first N entries once; the records, the diagonal and both
    flags all come from that one read, column by column.  A stage past
    `_STAGE_CAP` raises `BudgetExceeded` before the source is read.

    The cyclic collector is paused for the call, the source's reads
    included, and on again when it returns or raises (left off if it was
    off): the records form no cycles, and each young pass would walk them
    all.  A `gc.disable()` from another thread during the call may find
    the collector on again when the call ends.
    """
    if stage < 1:
        raise ValueError("stage must be at least 1")
    _within(stage, _STAGE_CAP)
    feed = _fresh(source)
    positions = range(1, stage + 1)
    entries = list(islice(feed, stage))
    # zero padding: positions past the end of an entry read as 0
    bits = [int(entry[i - 1]) if i <= len(entry) else 0
            for i, entry in zip(positions, entries)]
    if len(entries) < stage:
        raise EnumerationExhausted(needed=stage, available=len(entries))
    index = list(positions)  # one int object serves as index and position
    flipped = [1 - bit for bit in bits]
    # tuple.__new__ is all that MismatchRecord.__new__ does, minus its frame
    records = tuple(map(tuple.__new__, repeat(MismatchRecord),
                        zip(index, index, bits, flipped)))
    cert = DiagonalCertificate(stage, records)
    cert.ends_in_one = cert.diagonal.endswith("1")
    cert.occurs_in_prefix = cert.diagonal in entries
    return cert


def verify_certificate(cert: DiagonalCertificate,
                       source: EnumerationSource) -> bool:
    """Re-check a certificate against the enumeration from scratch.

    Reads the first N entries itself, confirms every record (position,
    recorded entry bit under zero padding, flipped diagonal bit, spelled
    diagonal), and rescans the prefix for the diagonal.  Returns False
    on any discrepancy, including an enumeration that runs dry.
    Intentionally re-derives everything instead of calling the builder.
    """
    if cert.padding != "zero":
        return False
    n = cert.stage
    records, diagonal = cert.records, cert.diagonal
    if n < 1 or len(records) != n or len(diagonal) != n:
        return False
    feed = _fresh(source)
    seen = list(islice(feed, n))
    if len(seen) != n:
        return False
    actual = [int(entry[k]) if len(entry) > k else 0
              for k, entry in enumerate(seen)]
    # record i must read (i, i, bit, 1 - bit) for entry i's padded bit
    wanted = zip(count(1), count(1), actual, map(sub, repeat(1), actual))
    if not all(map(eq, records, wanted)):
        return False
    if diagonal != "%s" * n % tuple(map(itemgetter(3), records)):
        return False
    # the record checks imply this, but the certificate's claim is checked as made
    if diagonal in seen:
        return False
    if cert.occurs_in_prefix not in (None, False):  # the scan above found none
        return False
    if cert.ends_in_one not in (None, diagonal.endswith("1")):
        return False
    return True


def certificate_to_text(cert: DiagonalCertificate) -> str:
    """Line format: `N=<stage> pad=<rule>` then one record per line."""
    fields = tuple(chain.from_iterable(cert.records))
    body = "%s %s %s %s\n" * len(cert.records) % fields
    return f"N={cert.stage} pad={cert.padding}\n" + body


def _refuse_line(length: int) -> None:
    if length > _LINE_CHARS:
        raise ValueError(f"a line of {length} characters, over {_LINE_CHARS}")


@_paused_gc
def certificate_from_text(text: str) -> DiagonalCertificate:
    """Parse the text form; the derived flags stay `None`, which the
    verifier reads as no claim.

    A text past `_TEXT_CHARS` characters is refused first.  The header,
    the first non-blank line, is read next, alone: past `_LINE_CHARS`,
    malformed, or claiming a stage past `_STAGE_CAP` (`BudgetExceeded`),
    it is refused before the rest of the text is split into lines.  Then
    a line past `_LINE_CHARS` is refused before any record field is
    parsed.  Past those bounds, the first fault in text order is the one
    reported: a bad integer in a well-formed record line ahead of a line
    without four fields wins.

    The cyclic collector is paused for the call and on again when it
    returns or raises (left off if it was off), as for `certify_absence`;
    a `gc.disable()` from another thread during the call may find the
    collector on again when the call ends.
    """
    if len(text) > _TEXT_CHARS:
        raise ValueError(f"certificate longer than {_TEXT_CHARS} characters")
    rest = text.lstrip()  # the text itself, not a copy, when nothing is stripped
    if not rest:
        raise ValueError("empty certificate")
    # the header, read from the blanks that `lstrip` took and one line's bound
    # past them (one character past the bound is enough to refuse it; the
    # whole line is measured only for the report)
    header = next(filter(str.strip, text[:len(text) - len(rest) + _LINE_CHARS + 1].splitlines()))
    if len(header) > _LINE_CHARS:
        _refuse_line(len(next(filter(str.strip, text.splitlines()))))
    head = header.split()
    if len(head) != 2 or not head[0].startswith("N=") or not head[1].startswith("pad="):
        raise ValueError(f"malformed header: {header!r}")
    stage = int(head[0][2:])
    _within(stage, _STAGE_CAP)
    padding = head[1][4:]
    lines = list(filter(str.strip, text.splitlines()))
    _refuse_line(max(map(len, lines)))
    # each line is split once, and parsing stops at the first line without
    # four fields; the lines before it are parsed first, so a bad int there wins
    rows = takewhile(lambda row: len(row) == 4, map(str.split, islice(lines, 1, None)))
    values = map(int, chain.from_iterable(rows))
    records = tuple(map(tuple.__new__, repeat(MismatchRecord),
                        zip(values, values, values, values)))
    if len(records) < len(lines) - 1:
        raise ValueError(f"malformed record: {lines[len(records) + 1]!r}")
    if len(records) != stage:
        raise ValueError(f"expected {stage} records, found {len(records)}")
    return DiagonalCertificate(stage, records, padding=padding)
