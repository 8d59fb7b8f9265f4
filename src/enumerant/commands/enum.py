"""``enum``: the first N entries with their dyadic values."""

from __future__ import annotations

from . import _emit, _nonnegative


def _cmd_enum(args) -> None:
    from ..enumeration import Entry, entries

    _emit(Entry._fields, entries(args.count), args.format)


def _fill_enum(p) -> None:
    p.add_argument("--count", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_enum)
