"""``enum``: the first N entries with their dyadic values."""

from . import _emit, _nonnegative


def run(args) -> None:
    from ..enumeration import Entry, entries

    _emit(Entry._fields, entries(args.count), args.format)


def fill(p) -> None:
    p.add_argument("--count", type=_nonnegative, required=True)
