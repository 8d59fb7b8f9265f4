"""Command-line front end.

Every subcommand is a pure function of its arguments: same invocation,
byte-identical output.  Three output shapes are supported via
``--format``: plain (space-separated values, or key=value lines for
single reports), csv (with a header row), and json-lines (one object
per line; exact rationals appear as strings like "7/12").

Exit codes: 0 success, 1 domain error (a typed one-line report on
stderr, e.g. ``NotInImage equivalent=1``), 2 usage error.

A CLI call is mostly process start and import, so each command imports
its own library modules when it runs; the module level holds only what
every command needs.  ``enum`` loads ``enumeration`` and ``table`` loads
``finitist``, but neither loads the other, and only the csv and
json-lines formats import ``csv`` and ``json``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import DomainError
from .exactnum import (
    Magnitude,
    RationalInterval,
    Reciprocal,
    render_magnitude,
    render_reciprocal,
)

# printing exact values is the point; undo the int->str safety cap
PRINT_DIGIT_LIMIT = 50_000_000


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, RationalInterval):
        return value.render()
    if isinstance(value, Reciprocal):
        return render_reciprocal(value)
    if isinstance(value, Magnitude):
        return render_magnitude(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    return _text(value)


def _emit_rows(fields, rows, fmt) -> None:
    if fmt == "plain":
        for row in rows:
            print(" ".join(_text(row[f]) for f in fields))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_text(row[f]) for f in fields])
    else:
        import json

        for row in rows:
            print(json.dumps({f: _jsonable(row[f]) for f in fields}))


def _emit_report(fields, report, fmt) -> None:
    # single logical record; plain switches to key=value lines because
    # reports carry free-text fields
    if fmt == "plain":
        for f in fields:
            print(f"{f}={_text(report[f])}")
    else:
        _emit_rows(fields, [report], fmt)


def _cmd_enum(args) -> int:
    from .enumeration import entries

    rows = [{"index": e.index, "bits": e.bits, "value": e.value}
            for e in entries(args.count)]
    _emit_rows(["index", "bits", "value"], rows, args.format)
    return 0


def _cmd_locate(args) -> int:
    from .enumeration import locate_value, string_to_index
    from .exactnum import DyadicRational

    if args.bits is not None:
        index = string_to_index(args.bits)
    else:
        index = locate_value(DyadicRational.from_fraction(args.value))
    _emit_rows(["index"], [{"index": index}], args.format)
    return 0


def _cmd_approx(args) -> int:
    from .enumeration import approximate

    report = approximate(args.real, args.depth)
    fields = ["target", "depth", "prefix", "verdict", "member_index",
              "reason", "best_index", "best_bits", "best_value", "error_bound"]
    _emit_report(fields, {
        "target": report.target,
        "depth": report.depth,
        "prefix": report.prefix,
        "verdict": report.verdict,
        "member_index": report.member_index,
        "reason": report.reason,
        "best_index": report.best_index,
        "best_bits": report.best_bits,
        "best_value": report.best_value,
        "error_bound": report.error_bound,
    }, args.format)
    return 0


def _cmd_diag(args) -> int:
    from .diagonal import (
        certificate_from_text,
        certificate_to_text,
        certify_absence,
        verify_certificate,
    )
    from .enumeration import all_strings

    if args.verify is not None:
        try:
            with open(args.verify, "r", encoding="ascii") as fh:
                cert = certificate_from_text(fh.read())
        except (OSError, ValueError) as err:
            print(f"unreadable certificate: {err}", file=sys.stderr)
            return 1
        ok = verify_certificate(cert, all_strings)
        _emit_rows(["stage", "valid"],
                   [{"stage": cert.stage, "valid": ok}], args.format)
        return 0 if ok else 1
    cert = certify_absence(all_strings, args.count)
    if args.format == "plain":
        sys.stdout.write(certificate_to_text(cert))
        return 0
    fields = ["index", "position", "entry_bit", "diagonal_bit"]
    rows = [dict(zip(fields, rec)) for rec in cert.records]
    if args.format == "csv":
        _emit_rows(fields, rows, "csv")
    else:
        import json

        print(json.dumps({
            "stage": cert.stage,
            "pad": cert.padding,
            "diagonal": cert.diagonal,
            "ends_in_one": cert.ends_in_one,
            "occurs_in_prefix": cert.occurs_in_prefix,
        }))
        _emit_rows(fields, rows, "json-lines")
    return 0


def _cmd_harmonic(args) -> int:
    from .series import oresme_block

    rows = []
    cumulative = Fraction(1)
    for k in range(1, args.blocks + 1):
        block = oresme_block(k)
        cumulative += block.total
        rows.append({
            "k": k,
            "first": block.first,
            "last": block.last,
            "terms": block.terms,
            "block": block.total,
            "cumulative": cumulative,
            "at_least_half": block.at_least_half,
            "meets_bound": cumulative >= 1 + Fraction(k, 2),
        })
    _emit_rows(["k", "first", "last", "terms", "block", "cumulative",
                "at_least_half", "meets_bound"], rows, args.format)
    return 0


def _cmd_series(args) -> int:
    from math import factorial

    from .exactnum import decimal_string, pinned_decimals
    from .series import e_enclosure, geometric_partial, liouville_partial

    if args.name == "e":
        enc = e_enclosure(args.terms)
        iv = enc.interval
        _emit_report(
            ["terms", "lo", "hi", "lo_decimal", "hi_decimal", "pinned"],
            {
                "terms": enc.n,
                "lo": iv.lo,
                "hi": iv.hi,
                "lo_decimal": decimal_string(iv.lo, args.digits),
                "hi_decimal": decimal_string(iv.hi, args.digits),
                "pinned": pinned_decimals(iv, args.digits) or "",
            }, args.format)
    elif args.name == "tau":
        part = liouville_partial(args.terms)
        _emit_report(
            ["terms", "value", "decimal", "one_places", "tail_bound"],
            {
                "terms": part.m,
                "value": part.value,
                "decimal": decimal_string(part.value, args.digits),
                "one_places": ",".join(str(p) for p in part.one_places),
                "tail_bound": f"2/10^{factorial(part.m + 1)}",
            }, args.format)
    else:
        value = geometric_partial(args.terms)
        _emit_report(
            ["terms", "value", "matches_closed_form"],
            {"terms": args.terms, "value": value, "matches_closed_form": True},
            args.format)
    return 0


def _cmd_theorem(args) -> int:
    from .finitist import check_even_set, induction_trace

    if args.set is not None:
        report = check_even_set(args.set)
        _emit_report(
            ["elements", "cardinality", "witnesses", "witness_count",
             "required", "holds"],
            {
                "elements": ",".join(str(e) for e in report.elements),
                "cardinality": report.cardinality,
                "witnesses": ",".join(str(w) for w in report.witnesses),
                "witness_count": report.witness_count,
                "required": report.required,
                "holds": report.holds,
            }, args.format)
        return 0
    trace = induction_trace(args.exhaustive)
    rows = [{"size": lv.size, "checked": lv.subsets_checked,
             "failures": lv.failures} for lv in trace.levels]
    rows.append({"size": "total", "checked": trace.total_checked,
                 "failures": sum(lv.failures for lv in trace.levels)})
    _emit_rows(["size", "checked", "failures"], rows, args.format)
    return 0 if trace.all_hold else 1


def _cmd_pair(args) -> int:
    from .finitist import cantor_pair, cantor_unpair

    if args.unpair is not None:
        if args.i is not None or args.j is not None:
            args.parser.error("--unpair does not combine with --i/--j")
        i, j = cantor_unpair(args.unpair)
        _emit_rows(["i", "j"], [{"i": i, "j": j}], args.format)
        return 0
    if args.i is None or args.j is None:
        args.parser.error("pair needs either --unpair N or both --i and --j")
    code = cantor_pair(args.i, args.j)
    _emit_rows(["code"], [{"code": code}], args.format)
    return 0


def _cmd_table(args) -> int:
    from .finitist import TABLE2_DIGIT_BUDGET, table1_row, table2_row

    if args.id == 1:
        rows = []
        for n in range(1, args.rows + 1):
            r = table1_row(n)
            rows.append({"n": r.n, "double": r.double, "square": r.square,
                         "reciprocal": r.reciprocal})
        _emit_rows(["n", "double", "square", "reciprocal"], rows, args.format)
        return 0
    fields = ["recip_two_pow_fact", "recip_fact", "log2_n", "n",
              "two_pow", "fact", "two_pow_fact", "tower"]
    budget = TABLE2_DIGIT_BUDGET if args.digit_budget is None else args.digit_budget
    rows = []
    for n in range(1, args.rows + 1):
        r = table2_row(n, budget, args.log2_bits)
        rows.append({
            "recip_two_pow_fact": r.recip_two_pow_fact,
            "recip_fact": r.recip_fact,
            "log2_n": r.log2_n,
            "n": r.n_value,
            "two_pow": r.two_pow,
            "fact": r.fact,
            "two_pow_fact": r.two_pow_fact,
            "tower": r.tower,
        })
    _emit_rows(fields, rows, args.format)
    return 0


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
    # through as a traceback; both faults get argparse's own wording
    try:
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
    p.set_defaults(func=_cmd_enum, parser=p)

    p = sub.add_parser("locate", parents=[shared],
                       help="index of a bit string or of a dyadic value")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bits")
    g.add_argument("--value", type=_fraction, help="dyadic rational like 3/8")
    p.set_defaults(func=_cmd_locate, parser=p)

    p = sub.add_parser("approx", parents=[shared],
                       help="hunt a real through the enumeration to a depth")
    p.add_argument("--real", type=parse_real, required=True,
                   help="sqrt2, e, tau, or rat:P/Q")
    p.add_argument("--depth", type=_positive, required=True)
    p.set_defaults(func=_cmd_approx, parser=p)

    p = sub.add_parser("diag", parents=[shared],
                       help="stage-N diagonal certificate, or verify one")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", type=_positive)
    g.add_argument("--verify", metavar="FILE")
    p.set_defaults(func=_cmd_diag, parser=p)

    p = sub.add_parser("harmonic", parents=[shared],
                       help="doubling blocks of the harmonic series")
    p.add_argument("--blocks", type=_positive, required=True)
    p.set_defaults(func=_cmd_harmonic, parser=p)

    p = sub.add_parser("series", parents=[shared],
                       help="exact partial sums and enclosures")
    p.add_argument("--name", choices=("e", "tau", "geometric"), required=True)
    p.add_argument("--terms", type=_positive, required=True)
    p.add_argument("--digits", type=_nonnegative, default=30,
                   help="decimal places to print (truncated, default 30)")
    p.set_defaults(func=_cmd_series, parser=p)

    p = sub.add_parser("theorem", parents=[shared],
                       help="even-set counting check, single or exhaustive")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", type=_even_list, metavar="E1,E2,...")
    g.add_argument("--exhaustive", type=_positive, metavar="M",
                   help="check every nonempty subset of {2, 4, ..., 2M}")
    p.set_defaults(func=_cmd_theorem, parser=p)

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
    p.set_defaults(func=_cmd_table, parser=p)

    return parser


def main(argv=None) -> int:
    # the cap is process-wide; restore it on every exit, SystemExit included
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(PRINT_DIGIT_LIMIT)
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except DomainError as err:
            print(str(err), file=sys.stderr)
            return 1
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    finally:
        if capped:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
