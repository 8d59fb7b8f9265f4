"""Command-line front end.

Every subcommand is a pure function of its arguments: same invocation,
byte-identical output.  Each command builds a header of column names
and rows, each row a tuple in header order, most of them straight from
the library's records; one emitter prints them in the ``--format``
chosen: plain (space-separated values, or key=value lines for a single
report), csv (with a header row; a cell that holds a comma, a quote or
a line break, CR or LF, is quoted, as is the empty cell of a one-column
row, and a quote inside doubles, the same on every supported Python),
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

A CLI call is mostly process start, import and exit.  The parser lists
all nine commands but builds the arguments of the invoked one alone.
Each command imports its own library modules when it runs.  The process
entry, `run`, runs the command with the cyclic collector paused and
freezes the collector on its way out, so neither the command's imports
nor the interpreter's exit walk every object that start and import
made.  The module level imports only ``argparse``, ``gc`` (built in),
``re`` (which ``argparse`` loads), ``sys`` and the package's ``errors``.
The CLI itself builds a ``Fraction`` only in ``_fraction`` (``locate
--value``) and ``harmonic``, and imports ``fractions`` there.  ``pair``
and ``locate --bits`` load ``enumeration`` alone, and ``diag`` adds
``diagonal``.  ``enum`` loads ``enumeration`` and ``dyadic``, the home
of ``DyadicRational``, and no ``exactnum`` or ``fractions``; ``locate
--value`` adds ``exactnum``, for the exponent cap ``_DIGITS_CAP``.
``approx`` loads ``reals`` and ``series`` beside those two, but no
``exactnum``.  ``table`` loads ``finitist``, which loads ``exactnum``
and ``dyadic``, but no ``enumeration``.  Only the json-lines format
imports ``json``.  ``harmonic`` loads ``series`` alone, and so does
``series`` but for e and tau, whose rows print decimals: it loads
``exactnum`` for those, and for no refused tau term count.
``enum``, ``locate``, ``diag`` and ``pair`` load no ``dataclasses``; the
other five commands still do, through the report records of ``reals``,
``series`` and ``finitist``.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys

from .errors import DomainError, _paused_gc, _within

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
    reports carry free-text fields.  Every format builds one ``%``
    template per call from the field names (identifiers, so no ``%`` to
    escape) and fills it with each row's cells; csv's header is the field
    names through that template.  The lines go out in joined chunks of
    about `_CHUNK_CHARS` characters, one write each, so `rows` may be a
    stream of any length.  A chunk is written only once every row in it
    is built, so a stream that raises on row 1 writes nothing at all.
    """
    head = ""
    if fmt == "plain":
        cell = _text
        template = ("".join(f"{f}=%s\n" for f in fields) if report
                    else " ".join(["%s"] * len(fields)) + "\n")
    elif fmt == "csv":
        def cell(value) -> str:
            if type(value) is int:  # not a bool, whose text is true or false
                return str(value)
            text = _text(value)
            # an empty lone cell is quoted, or its line would read as a blank one
            if ("," in text or '"' in text or "\r" in text or "\n" in text
                    or not text and len(fields) == 1):
                return '"%s"' % text.replace('"', '""')
            return text

        template = ",".join(["%s"] * len(fields)) + "\n"
        head = template % tuple(fields)
    else:
        from json.encoder import encode_basestring_ascii as quote

        def cell(value) -> str:
            # ints and bools in `_text` are already JSON
            return ("null" if value is None else _text(value) if isinstance(value, int)
                    else quote(_text(value)))

        # the separators of `json.dumps`
        template = "{" + ", ".join(quote(f) + ": %s" for f in fields) + "}\n"
    # the csv header opens the first chunk, so it too waits for that chunk's rows
    write, chunk, size = sys.stdout.write, [head], len(head)
    for line in (template % tuple(map(cell, row)) for row in rows):
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

    if args.bits is not None:
        index = string_to_index(args.bits)
    else:
        from .dyadic import DyadicRational

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
    from fractions import Fraction

    from .series import harmonic_partial, oresme_block

    # the last block first: past the budget it refuses before any block is summed
    blocks = [oresme_block(k) for k in range(args.blocks, 0, -1)]
    rows = []
    for block in reversed(blocks):
        cumulative = harmonic_partial(block.last)
        rows.append((block.k, block.first, block.last, block.terms, block.total, cumulative,
                     block.at_least_half, cumulative >= 1 + Fraction(block.k, 2)))
    _emit(("k", "first", "last", "terms", "block", "cumulative", "at_least_half",
           "meets_bound"), rows, args.format)


def _cmd_series(args) -> None:
    from .series import e_enclosure, geometric_partial, liouville_partial

    # only a printed decimal needs `exactnum`: geometric prints none
    if args.name == "e":
        from .exactnum import decimal_string, pinned_decimals

        enc = e_enclosure(args.terms)
        iv = enc.interval
        fields = ("terms", "lo", "hi", "lo_decimal", "hi_decimal", "pinned")
        # an enclosure too wide to pin a digit prints "", in json too
        row = (enc.n, iv.lo, iv.hi, decimal_string(iv.lo, args.digits),
               decimal_string(iv.hi, args.digits), pinned_decimals(iv, args.digits) or "")
    elif args.name == "tau":
        part = liouville_partial(args.terms)
        # after the sum, so a term count past the cap loads no `exactnum`
        from math import factorial

        from .exactnum import decimal_string

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
    from .enumeration import cantor_pair, cantor_unpair

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
        _emit(Table1Row._fields, map(table1_row, span), args.format)
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
    # through as a traceback; both faults get argparse's own wording.  The
    # grammar is that of Python 3.10's `Fraction` on every version: the "_"
    # between digits that 3.11 reads and the blanks beside "/" that 3.12
    # reads are refused the same way.  A well-formed value whose exponent N
    # would build 10**|N| past the digit cap is refused before `Fraction`
    # builds it.
    from fractions import Fraction

    from .exactnum import _DIGITS_CAP

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
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def _even_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _fill_enum(p) -> None:
    p.add_argument("--count", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_enum)


def _fill_locate(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bits")
    g.add_argument("--value", type=_fraction, help="dyadic rational like 3/8")
    p.set_defaults(func=_cmd_locate)


def _fill_approx(p) -> None:
    p.add_argument("--real", type=parse_real, required=True,
                   help="sqrt2, e, tau, or rat:P/Q")
    p.add_argument("--depth", type=_positive, required=True)
    p.set_defaults(func=_cmd_approx)


def _fill_diag(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", type=_positive)
    g.add_argument("--verify", metavar="FILE")
    p.set_defaults(func=_cmd_diag)


def _fill_harmonic(p) -> None:
    p.add_argument("--blocks", type=_positive, required=True)
    p.set_defaults(func=_cmd_harmonic)


def _fill_series(p) -> None:
    p.add_argument("--name", choices=("e", "tau", "geometric"), required=True)
    p.add_argument("--terms", type=_positive, required=True)
    p.add_argument("--digits", type=_nonnegative, default=30,
                   help="decimal places to print (truncated, default 30)")
    p.set_defaults(func=_cmd_series)


def _fill_theorem(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", type=_even_list, metavar="E1,E2,...")
    g.add_argument("--exhaustive", type=_positive, metavar="M",
                   help="check every nonempty subset of {2, 4, ..., 2M}")
    p.set_defaults(func=_cmd_theorem)


def _fill_pair(p) -> None:
    p.add_argument("--i", type=_nonnegative)
    p.add_argument("--j", type=_nonnegative)
    p.add_argument("--unpair", type=_nonnegative, metavar="N")
    p.set_defaults(func=_cmd_pair, parser=p)


def _fill_table(p) -> None:
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--rows", type=_positive, required=True)
    p.add_argument("--digit-budget", type=_positive,
                   help="decimal digits past which table-2 cells stay symbolic")
    p.add_argument("--log2-bits", type=_positive, default=32,
                   help="fractional bits certified for the log2 column")
    p.set_defaults(func=_cmd_table)


# each command's help line and the function that adds its arguments, in the
# order `enumerant -h` lists them
_COMMANDS = {
    "enum": ("first N entries with their dyadic values", _fill_enum),
    "locate": ("index of a bit string or of a dyadic value", _fill_locate),
    "approx": ("hunt a real through the enumeration to a depth", _fill_approx),
    "diag": ("stage-N diagonal certificate, or verify one", _fill_diag),
    "harmonic": ("doubling blocks of the harmonic series", _fill_harmonic),
    "series": ("exact partial sums and enclosures", _fill_series),
    "theorem": ("even-set counting check, single or exhaustive", _fill_theorem),
    "pair": ("diagonal pairing code of (i, j), or its inverse", _fill_pair),
    "table": ("growth tables: 1 (n, 2n, n^2, 1/n) or 2 (towers)", _fill_table),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the command line `argv`.

    Every command is registered with its help line, so the top-level help,
    usage and invalid-choice error list all nine, but only the command
    named by the first word of `argv` that is a command name gets its
    arguments, ``-h`` among them.  That word is the one argparse
    dispatches on, if it dispatches at all: an option takes no word
    after it (the top level's one option, ``-h``, takes no value, and an
    unknown one is set aside), and a word before it that is not an
    option is refused as an invalid choice before any command parses.
    With no command word no command has arguments, and argparse's own
    error, or the top-level help, is all that shows.
    """
    parser = argparse.ArgumentParser(
        prog="enumerant",
        description="Exact arithmetic around a breadth-first enumeration of "
                    "binary strings: bijections, certified reals, diagonal "
                    "certificates, series, and growth tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((word for word in argv if word in _COMMANDS), None)
    for name, (summary, fill) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, add_help=name == command)
        if name == command:
            p.add_argument("--format", choices=("plain", "csv", "json-lines"),
                           default="plain", help="output shape (default plain)")
            fill(p)
    return parser


def main(argv=None) -> int:
    # printing exact values is the point: no int->str digit limit (0).  The
    # limit is process-wide; restore it on every exit, SystemExit included
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        # a type function's budget refuses during parsing, as a DomainError
        args = build_parser(argv).parse_args(argv)
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
        sink = os.open(os.devnull, os.O_WRONLY)
        os.dup2(sink, sys.stdout.fileno())
        os.close(sink)
        print("error: stdout closed before the output ended", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(previous)


def run() -> None:
    """The process entry of the ``enumerant`` script and of ``python -m
    enumerant.cli``: exit with `main`'s status.

    `main` runs with the cyclic collector paused (`errors._paused_gc`),
    so no collection walks the modules the command imports, nor the
    records it builds: no command leaves cyclic garbage behind per row,
    so the pause frees nothing late.  On every way out (a status,
    argparse's own `SystemExit` or a crash) the collector is on again
    and the objects still tracked move to its permanent generation, so
    the interpreter's last collections do not walk them either.  Atexit
    callbacks and the flush of the standard streams still run.  `main`
    called in process neither pauses nor freezes, so its caller keeps
    its own collector and a collectable heap.
    """
    try:
        sys.exit(_paused_gc(main)())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
