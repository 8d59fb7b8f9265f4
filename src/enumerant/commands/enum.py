"""``enum``: the first N entries with their dyadic values."""

from . import _emit, _nonnegative


def run(args) -> None:
    from ..enumeration import Entry, entries

    _emit(Entry._fields, entries(args.count), args.format)


OPTIONS = {"--count": {"type": _nonnegative, "required": True}}
