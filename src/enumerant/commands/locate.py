"""``locate``: the index of a bit string or of a dyadic value."""

import re

from ..errors import _DIGITS_CAP, _within
from . import _emit


def run(args) -> None:
    from ..enumeration import locate_value, string_to_index

    if args.bits is not None:
        index = string_to_index(args.bits)
    else:
        from ..dyadic import DyadicRational

        index = locate_value(DyadicRational.from_fraction(args.value))
    _emit(("index",), [(index,)], args.format)


def _fraction(text: str) -> "Fraction":
    # Fraction("1/0") raises ZeroDivisionError, which argparse would let
    # through as a traceback; both faults get argparse's own wording.  The
    # grammar is that of Python 3.10's `Fraction` on every version: the "_"
    # between digits that 3.11 reads and the blanks beside "/" that 3.12
    # reads are refused the same way.  A well-formed value whose exponent N
    # would build 10**|N| past the digit cap is refused before `Fraction`
    # builds it.
    from fractions import Fraction

    # a decimal exponent at the end of the text, as `Fraction` reads one
    exponent = re.search(r"e([-+]?\d+)\s*\Z", text, re.IGNORECASE)
    try:
        if "_" in text or re.search(r"\s/|/\s", text):
            raise ValueError
        if exponent:
            Fraction(text[:exponent.start()] + "e0")  # a malformed head stays a usage error
            _within(abs(int(exponent[1])), _DIGITS_CAP)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        import argparse

        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


OPTIONS = {"--bits": {}, "--value": {"type": _fraction, "help": "dyadic rational like 3/8"}}
ONE_OF = ("--bits", "--value")
