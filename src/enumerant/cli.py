"""Command-line front end.

Every subcommand is a pure function of its arguments: same invocation,
byte-identical output.  Each command builds a header of column names
and rows, each row a tuple in header order, most of them straight from
the library's records; one emitter prints them in the ``--format``
chosen: plain (space-separated values, or key=value lines for a single
report), csv (with a header row; a cell that holds a comma, a quote or
a line break, CR or LF, is quoted, the same on every supported Python),
or json-lines (one object per row; ints and bools stay JSON numbers and
booleans, a missing value is null, and everything else, exact rationals
included, is its text, like "7/12").  Decimals are truncated, never
rounded; the library refuses a negative value or digit count, which
argparse already keeps out.

Exit codes: 0 success, 1 domain error (a typed one-line report on
stderr, e.g. ``NotInImage equivalent=1``) or a stdout closed before the
output ended (one stderr line), 2 usage error.  Only the commands whose
verdict can fail, ``diag --verify`` and ``theorem --exhaustive``, return
a status of their own; every other command returns nothing, which is 0.

A CLI call is mostly process start and import, so each command imports
its own library modules when it runs; the module level imports only
``argparse``, ``re`` (which ``argparse`` loads), ``sys``, ``fractions``
and the package's ``errors``.
``enum`` loads ``enumeration`` and ``table`` loads ``finitist``, but
neither loads the other, and only the csv and json-lines formats import
``csv`` and ``json``.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .errors import DomainError, _within

# a cell's text by its exact type; a type not listed is its `str`
_TEXTS = {
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "",
    tuple: lambda items: ",".join(map(str, items)),
}


def _text(value) -> str:
    return _TEXTS.get(type(value), str)(value)


# characters of rows joined into one write: a stream of rows is held one
# chunk at a time
_CHUNK_CHARS = 1 << 16


def _emit(fields, rows, fmt, report=False) -> None:
    """Print `rows`, tuples in `fields` order, in the format `fmt`.

    In plain, a single `report` prints as key=value lines, because
    reports carry free-text fields.  Plain and json-lines build one ``%``
    template per call from the field names (identifiers, so no ``%`` to
    escape) and fill it with each row's cells; csv goes through
    `csv.writer`.  The lines go out in joined chunks of
    about `_CHUNK_CHARS` characters, one write each, so `rows` may be a
    stream of any length.  A chunk is written only once every row in it
    is built, so a stream that raises on row 1 writes nothing at all.
    """
    if fmt == "csv":
        import csv
        from itertools import chain
        from types import SimpleNamespace

        # writerow returns what its file's write returns: here, the line.  Every
        # Python quotes a cell that holds a character of the terminator, so
        # "\r\n" quotes both line breaks; the line then ends in "\n" alone
        writerow = csv.writer(SimpleNamespace(write=lambda line: line[:-2] + "\n"),
                              lineterminator="\r\n").writerow
        lines = map(writerow, chain([fields], (map(_text, row) for row in rows)))
    else:
        if fmt == "plain":
            cell = _text
            template = ("".join(f"{f}=%s\n" for f in fields) if report
                        else " ".join(["%s"] * len(fields)) + "\n")
        else:
            from json.encoder import encode_basestring_ascii as quote

            def cell(value) -> str:
                # ints and bools in `_text` are already JSON
                return ("null" if value is None else _text(value) if isinstance(value, int)
                        else quote(_text(value)))

            # the separators of `json.dumps`
            template = "{" + ", ".join(quote(f) + ": %s" for f in fields) + "}\n"
        lines = (template % tuple(map(cell, row)) for row in rows)
    write, chunk, size = sys.stdout.write, [], 0
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= _CHUNK_CHARS:
            write("".join(chunk))
            chunk, size = [], 0
    write("".join(chunk))


def _attrs(record) -> tuple:
    """A record's fields in column order: its ``__match_args__``."""
    return tuple(getattr(record, f) for f in record.__match_args__)


def _cmd_enum(args) -> None:
    from .enumeration import Entry, entries

    _emit(Entry._fields, entries(args.count), args.format)


def _cmd_locate(args) -> None:
    from .enumeration import locate_value, string_to_index
    from .exactnum import DyadicRational

    if args.bits is not None:
        index = string_to_index(args.bits)
    else:
        index = locate_value(DyadicRational.from_fraction(args.value))
    _emit(("index",), [(index,)], args.format)


def _cmd_approx(args) -> None:
    from .enumeration import approximate

    report = approximate(args.real, args.depth)
    _emit(report.__match_args__, [_attrs(report)], args.format, report=True)


def _cmd_diag(args) -> int | None:
    from .diagonal import (
        _TEXT_CHARS,
        MismatchRecord,
        certificate_from_text,
        certificate_to_text,
        certify_absence,
        verify_certificate,
    )
    from .enumeration import all_strings

    if args.verify is not None:
        try:
            with open(args.verify, "r", encoding="ascii") as fh:
                # one character past the bound is enough to refuse the text
                cert = certificate_from_text(fh.read(_TEXT_CHARS + 1))
        except (OSError, ValueError) as err:
            print(f"unreadable certificate: {err}", file=sys.stderr)
            return 1
        ok = verify_certificate(cert, all_strings)
        _emit(("stage", "valid"), [(cert.stage, ok)], args.format)
        return 0 if ok else 1
    cert = certify_absence(all_strings, args.count)
    if args.format == "plain":
        sys.stdout.write(certificate_to_text(cert))
        return
    if args.format == "json-lines":
        _emit(("stage", "pad", "diagonal", "ends_in_one", "occurs_in_prefix"),
              [(cert.stage, cert.padding, cert.diagonal, cert.ends_in_one,
                cert.occurs_in_prefix)], args.format)
    _emit(MismatchRecord._fields, cert.records, args.format)


def _cmd_harmonic(args) -> None:
    from .series import harmonic_partial, oresme_block

    # the last block first: past the budget it refuses before any block is summed
    blocks = [oresme_block(k) for k in range(args.blocks, 0, -1)]
    rows = []
    for k, block in enumerate(reversed(blocks), 1):
        cumulative = harmonic_partial(1 << k)
        rows.append((k, block.first, block.last, block.terms, block.total, cumulative,
                     block.at_least_half, cumulative >= 1 + Fraction(k, 2)))
    _emit(("k", "first", "last", "terms", "block", "cumulative", "at_least_half",
           "meets_bound"), rows, args.format)


def _cmd_series(args) -> None:
    from math import factorial

    from .exactnum import decimal_string, pinned_decimals
    from .series import e_enclosure, geometric_partial, liouville_partial

    if args.name == "e":
        enc = e_enclosure(args.terms)
        iv = enc.interval
        fields = ("terms", "lo", "hi", "lo_decimal", "hi_decimal", "pinned")
        # an enclosure too wide to pin a digit prints "", in json too
        row = (enc.n, iv.lo, iv.hi, decimal_string(iv.lo, args.digits),
               decimal_string(iv.hi, args.digits), pinned_decimals(iv, args.digits) or "")
    elif args.name == "tau":
        part = liouville_partial(args.terms)
        fields = ("terms", "value", "decimal", "one_places", "tail_bound")
        row = (part.m, part.value, decimal_string(part.value, args.digits),
               part.one_places, f"2/10^{factorial(part.m + 1)}")
    else:
        value = geometric_partial(args.terms)
        p, q = value.numerator, value.denominator
        # the terms 2**-i, i = 1..n, summed as written: n one-bits over 2**n
        written = p.bit_count() == p.bit_length() == q.bit_length() - 1 == args.terms
        fields = ("terms", "value", "matches_closed_form")
        row = (args.terms, value, written and not q & (q - 1))
    _emit(fields, [row], args.format, report=True)


def _cmd_theorem(args) -> int | None:
    from .finitist import check_even_set, induction_trace

    if args.set is not None:
        report = check_even_set(args.set)
        _emit(report.__match_args__, [_attrs(report)], args.format, report=True)
        return
    trace = induction_trace(args.exhaustive)
    total = ("total", trace.total_checked, sum(lv.failures for lv in trace.levels))
    _emit(("size", "checked", "failures"), [*trace.levels, total], args.format)
    return 0 if trace.all_hold else 1


def _cmd_pair(args) -> None:
    from .finitist import cantor_pair, cantor_unpair

    if args.unpair is not None:
        if args.i is not None or args.j is not None:
            args.parser.error("--unpair does not combine with --i/--j")
        _emit(("i", "j"), [cantor_unpair(args.unpair)], args.format)
        return
    if args.i is None or args.j is None:
        args.parser.error("pair needs either --unpair N or both --i and --j")
    _emit(("code",), [(cantor_pair(args.i, args.j),)], args.format)


def _cmd_table(args) -> None:
    from .finitist import (
        _TABLE2_ROWS_CAP,
        TABLE2_DIGIT_BUDGET,
        Table1Row,
        table1_row,
        table2_row,
    )

    span = range(1, args.rows + 1)
    if args.id == 1:
        _emit(Table1Row.__match_args__, (_attrs(table1_row(n)) for n in span), args.format)
        return
    _within(args.rows, _TABLE2_ROWS_CAP)
    budget = TABLE2_DIGIT_BUDGET if args.digit_budget is None else args.digit_budget
    # every other budget refuses on row 1, before `_emit` writes its first chunk
    rows = (table2_row(n, budget, args.log2_bits).cells() for n in span)
    _emit(("recip_two_pow_fact", "recip_fact", "log2_n", "n", "two_pow", "fact",
           "two_pow_fact", "tower"), rows, args.format)


def parse_real(text: str):
    """``--real`` type; argparse names this function in its error message."""
    from .reals import parse_real

    return parse_real(text)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _fraction(text: str) -> Fraction:
    # Fraction("1/0") raises ZeroDivisionError, which argparse would let
    # through as a traceback; both faults get argparse's own wording.  A
    # well-formed value whose exponent N would build 10**|N| past the digit
    # cap is refused before `Fraction` builds it.
    from .exactnum import _DIGITS_CAP

    # a decimal exponent at the end of the text, as `Fraction` reads one
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    try:
        if exponent:
            Fraction(text[:exponent.start()] + "e0")  # a malformed head stays a usage error
            _within(abs(int(exponent[1])), _DIGITS_CAP)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def _even_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumerant",
        description="Exact arithmetic around a breadth-first enumeration of "
                    "binary strings: bijections, certified reals, diagonal "
                    "certificates, series, and growth tables.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("plain", "csv", "json-lines"),
                        default="plain", help="output shape (default plain)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", parents=[shared],
                       help="first N entries with their dyadic values")
    p.add_argument("--count", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("locate", parents=[shared],
                       help="index of a bit string or of a dyadic value")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bits")
    g.add_argument("--value", type=_fraction, help="dyadic rational like 3/8")
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("approx", parents=[shared],
                       help="hunt a real through the enumeration to a depth")
    p.add_argument("--real", type=parse_real, required=True,
                   help="sqrt2, e, tau, or rat:P/Q")
    p.add_argument("--depth", type=_positive, required=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("diag", parents=[shared],
                       help="stage-N diagonal certificate, or verify one")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", type=_positive)
    g.add_argument("--verify", metavar="FILE")
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("harmonic", parents=[shared],
                       help="doubling blocks of the harmonic series")
    p.add_argument("--blocks", type=_positive, required=True)
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("series", parents=[shared],
                       help="exact partial sums and enclosures")
    p.add_argument("--name", choices=("e", "tau", "geometric"), required=True)
    p.add_argument("--terms", type=_positive, required=True)
    p.add_argument("--digits", type=_nonnegative, default=30,
                   help="decimal places to print (truncated, default 30)")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("theorem", parents=[shared],
                       help="even-set counting check, single or exhaustive")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", type=_even_list, metavar="E1,E2,...")
    g.add_argument("--exhaustive", type=_positive, metavar="M",
                   help="check every nonempty subset of {2, 4, ..., 2M}")
    p.set_defaults(func=_cmd_theorem)

    p = sub.add_parser("pair", parents=[shared],
                       help="diagonal pairing code of (i, j), or its inverse")
    p.add_argument("--i", type=_nonnegative)
    p.add_argument("--j", type=_nonnegative)
    p.add_argument("--unpair", type=_nonnegative, metavar="N")
    p.set_defaults(func=_cmd_pair, parser=p)

    p = sub.add_parser("table", parents=[shared],
                       help="growth tables: 1 (n, 2n, n^2, 1/n) or 2 (towers)")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--rows", type=_positive, required=True)
    p.add_argument("--digit-budget", type=_positive, dest="digit_budget",
                   help="decimal digits past which table-2 cells stay symbolic")
    p.add_argument("--log2-bits", type=_positive, dest="log2_bits", default=32,
                   help="fractional bits certified for the log2 column")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    # printing exact values is the point: no int->str digit limit (0).  The
    # limit is process-wide; restore it on every exit, SystemExit included
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # a type function's budget refuses during parsing, as a DomainError
        args = build_parser().parse_args(argv)
        # only a command whose verdict can fail returns a status
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code or 0
    except DomainError as err:
        print(str(err), file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        import os

        # the interpreter flushes stdout once more on exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output ended", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
