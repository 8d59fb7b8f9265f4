"""Golden CLI transcripts: the invocation list, the capture, and the writer.

Each invocation runs in process through ``enumerant.cli.main(argv)`` with
captured streams, ``COLUMNS`` pinned (argparse wraps help text to the
terminal width) and ``inputs/`` as the working directory (``diag
--verify`` reads certificates from there).  One JSON file per invocation
under ``transcripts/`` holds argv, the exit code, stdout and stderr.

Write the files that are missing:

    PYTHONPATH=src python3 tests/golden/record.py

Existing files are never overwritten: they are frozen values that
``tests/test_golden.py`` replays.  To record one again, delete it first
and say why in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from enumerant.cli import main as cli_main

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
TRANSCRIPTS = HERE / "transcripts"
COLUMNS = "80"
FORMATS = ("plain", "csv", "json-lines")

# the README examples and the wider reports, each in every format
EACH_FORMAT = [
    ["enum", "--count", "3"],
    ["locate", "--value", "3/8"],
    ["approx", "--real", "sqrt2", "--depth", "8"],
    ["diag", "--count", "4"],
    ["diag", "--verify", "cert.txt"],
    ["harmonic", "--blocks", "3"],
    ["series", "--name", "e", "--terms", "12", "--digits", "9"],
    ["theorem", "--set", "2,4,6"],
    ["pair", "--i", "1", "--j", "2"],
    ["table", "--id", "2", "--rows", "3"],
    ["table", "--id", "2", "--rows", "6"],
    ["table", "--id", "2", "--rows", "5", "--digit-budget", "25", "--log2-bits", "64"],
    ["table", "--id", "1", "--rows", "6"],
    ["series", "--name", "e", "--terms", "20"],
    ["series", "--name", "e", "--terms", "3", "--digits", "4"],
    ["series", "--name", "tau", "--terms", "4", "--digits", "40"],
    # past block 7: sums whose numerators run to thousands of digits
    ["harmonic", "--blocks", "14"],
    ["series", "--name", "geometric", "--terms", "10"],
    ["approx", "--real", "sqrt2", "--depth", "16"],
    ["approx", "--real", "e", "--depth", "12"],
    ["approx", "--real", "tau", "--depth", "12"],
    ["approx", "--real", "rat:3/8", "--depth", "6"],
    ["approx", "--real", "rat:1/3", "--depth", "10"],
    ["theorem", "--exhaustive", "1"],
    ["theorem", "--exhaustive", "5"],
    ["theorem", "--exhaustive", "6"],
    ["theorem", "--exhaustive", "10"],
    ["theorem", "--exhaustive", "14"],
    ["theorem", "--set", "8,2,12,10"],
    ["enum", "--count", "1"],
    ["enum", "--count", "7"],
    ["enum", "--count", "40"],
    ["locate", "--bits", "1"],
    ["locate", "--bits", "0111"],
    ["locate", "--value", "5/16"],
    ["approx", "--real", "e", "--depth", "20"],
    ["approx", "--real", "rat:1/2", "--depth", "3"],
    ["diag", "--count", "1"],
    ["diag", "--count", "20"],
    ["harmonic", "--blocks", "1"],
    ["harmonic", "--blocks", "7"],
    ["series", "--name", "geometric", "--terms", "5"],
    ["pair", "--i", "0", "--j", "0"],
    ["pair", "--i", "3", "--j", "9"],
    ["pair", "--unpair", "0"],
    ["pair", "--unpair", "100"],
    ["table", "--id", "1", "--rows", "9"],
    ["table", "--id", "2", "--rows", "4"],
    ["table", "--id", "2", "--rows", "7", "--digit-budget", "40", "--log2-bits", "16"],
    # approximate's edge branches: prefix all zeros, prefix all ones, an
    # irrational at the bottom edge, an exact member deeper than --depth
    ["approx", "--real", "rat:1/1000", "--depth", "3"],
    ["approx", "--real", "rat:999/1000", "--depth", "3"],
    ["approx", "--real", "tau", "--depth", "3"],
    ["approx", "--real", "rat:5/16", "--depth", "2"],
    # the certified e and tau streams from one bit to past several
    # tightenings of their enclosures
    *(["approx", "--real", real, "--depth", depth]
      for real in ("e", "tau") for depth in ("1", "2", "5", "33", "64", "200")),
]

PLAIN = [
    ["enum", "--count", "0"],
    ["enum", "--count", "15"],
    ["locate", "--bits", "011"],
    ["diag", "--count", "12"],
    ["harmonic", "--blocks", "6"],
    ["theorem", "--exhaustive", "4"],
    ["pair", "--unpair", "8"],
    # table 2's log2 column from one bit to deep precision
    *(["table", "--id", "2", "--rows", "9", "--log2-bits", bits]
      for bits in ("1", "5", "100", "1024", "4096")),
    # the e and tau streams at the bench's deepest draws, and e's enclosure
    # far past the README sizes
    ["approx", "--real", "e", "--depth", "4000"],
    ["approx", "--real", "tau", "--depth", "3300"],
    ["series", "--name", "e", "--terms", "300", "--digits", "600"],
    # deep prefixes, where a change of term rule changes the enclosure read
    ["approx", "--real", "e", "--depth", "20000"],
    ["approx", "--real", "tau", "--depth", "20000"],
    # blocks whose reductions divide out primes below isqrt(hi) (blocks
    # 11-14) and above it (4, 5, 8, 14 and 15); numerators past 28 000 digits
    ["harmonic", "--blocks", "16"],
]

# the row-producing PLAIN invocations again in csv and json-lines; their
# plain files keep the names above
EACH_TABULAR = [
    ["enum", "--count", "15"],
    ["diag", "--count", "12"],
    ["harmonic", "--blocks", "6"],
    ["theorem", "--exhaustive", "4"],
    ["pair", "--unpair", "8"],
    ["enum", "--count", "0"],
    ["table", "--id", "2", "--rows", "9", "--log2-bits", "1024"],
]

# domain errors (exit 1) and usage errors (exit 2)
FAILURE = [
    ["locate", "--bits", "0110"],
    ["locate", "--value", "1/3"],
    ["series", "--name", "tau", "--terms", "9"],
    ["theorem", "--set", "2,4,5"],
    ["diag", "--verify", "tampered.txt"],
    ["diag", "--verify", "malformed.txt"],
    ["diag", "--verify", "missing.txt"],
    [],
    ["frobnicate"],
    ["enum"],
    ["enum", "--count", "-1"],
    ["enum", "--count", "3", "--format", "xml"],
    ["locate", "--value", "abc"],
    ["locate", "--value", "1/0"],
    ["locate", "--bits", "1", "--value", "1/2"],
    ["locate", "--bits", "01x1"],
    ["approx", "--real", "pi", "--depth", "3"],
    ["approx", "--real", "sqrt2", "--depth", "0"],
    ["series", "--name", "e", "--terms", "0"],
    ["theorem", "--set", "2,x"],
    ["pair", "--i", "1"],
    ["pair", "--unpair", "3", "--i", "1"],
    ["table", "--id", "3", "--rows", "1"],
    # a repeated element: the offender is the first element, in input
    # order, that occurs twice (4 here, not the first repeat seen, 2)
    ["theorem", "--set", "4,2,2,4"],
    ["theorem", "--exhaustive", "25"],
    ["locate", "--bits", ""],
    ["locate", "--bits", "0\u06611"],  # an Arabic-Indic digit one
    ["locate", "--value", "1"],
    ["locate", "--value", "1e20000"],
    ["locate", "--value", "1e50000"],
    # one past the log2 precision cap: refused before the first row
    ["table", "--id", "2", "--rows", "9", "--log2-bits", "32769"],
    # one past the Liouville term cap
    ["series", "--name", "tau", "--terms", "8"],
    # one past the harmonic range cap: refused before the first block
    ["harmonic", "--blocks", "19"],
    # one past e's term cap, and depths past the stream depth cap (the
    # stream is asked for one bit more than --depth): refused before any work
    ["series", "--name", "e", "--terms", "24001"],
    ["approx", "--real", "sqrt2", "--depth", "10000000"],
    ["approx", "--real", "rat:1/3", "--depth", "100000000"],
    # an unknown real, refused by argparse
    ["approx", "--real", "bogus", "--depth", "3"],
    # certificates with the wrong padding rule, no text, and too few records
    ["diag", "--verify", "pad-ones.txt"],
    ["diag", "--verify", "empty.txt"],
    ["diag", "--verify", "short.txt"],
    # past the one digit cap: refused before any power of ten is built
    ["series", "--name", "e", "--terms", "20", "--digits", "100000000"],
    ["table", "--id", "2", "--rows", "9", "--digit-budget", "100000000"],
    # an exponent past the digit cap, refused while the value is parsed
    ["locate", "--value", "1e1000000"],
    # one past the geometric term cap and the diagonal stage cap, and a
    # block count whose last denominator is written as a power
    ["series", "--name", "geometric", "--terms", "500001"],
    ["diag", "--count", "200001"],
    ["harmonic", "--blocks", "1000000"],
    # a certificate claiming one stage past the cap, refused at its header,
    # and one row past the table-2 row cap, refused before the first row
    ["diag", "--verify", "stage-past-cap.txt"],
    ["table", "--id", "2", "--rows", "1501"],
]

# the first domain errors again in json-lines
FAILURE_JSON = [
    ["locate", "--bits", "0110"],
    ["locate", "--value", "1/3"],
    ["locate", "--value", "1"],
    ["locate", "--value", "1e20000"],
    ["locate", "--value", "1e50000"],
    ["locate", "--bits", ""],
    ["series", "--name", "tau", "--terms", "9"],
    ["theorem", "--set", "2,4,5"],
    ["theorem", "--exhaustive", "25"],
    ["diag", "--verify", "tampered.txt"],
    ["series", "--name", "tau", "--terms", "8"],
    ["harmonic", "--blocks", "19"],
    ["series", "--name", "e", "--terms", "24001"],
    ["approx", "--real", "sqrt2", "--depth", "10000000"],
    ["series", "--name", "e", "--terms", "20", "--digits", "100000000"],
    ["locate", "--value", "1e1000000"],
    ["series", "--name", "geometric", "--terms", "500001"],
]

# table 2's refusals again in the formats that write a header: a refusal
# prints no stdout at all, header included
FAILURE_TABULAR = [
    ["table", "--id", "2", "--rows", "9", "--log2-bits", "32769"],
    ["table", "--id", "2", "--rows", "9", "--digit-budget", "100000000"],
    ["diag", "--count", "200001"],
    ["table", "--id", "2", "--rows", "1501"],
]

# outputs of several `_emit` chunks each, so a row split across a chunk
# boundary shows (`diag --count` plain is the certificate text, not rows);
# table 2 in csv quotes its log2_n intervals across two chunks
LONG = [argv + ["--format", fmt] for argv, formats in (
    (["enum", "--count", "5000"], FORMATS),
    (["diag", "--count", "5000"], FORMATS[1:]),
    (["table", "--id", "2", "--rows", "150"], ["csv"])) for fmt in formats]

# argv shapes in which the command is not the first word, or not the only
# one: argparse dispatches on the first word that is not an option, so each
# fails at the top level, or prints its help
MISPLACED = [
    ["--bogus", "pair", "--i", "1", "--j", "2"],
    ["foo", "enum", "--count", "1"],
    ["--", "enum", "--count", "1"],
    ["-h", "enum"],
    ["enum", "--count", "1", "locate"],
]

HELP = [["--help"]] + [[command, "--help"] for command in (
    "enum", "locate", "approx", "diag", "harmonic", "series", "theorem", "pair", "table")]

INVOCATIONS = ([argv + ["--format", fmt] for argv in EACH_FORMAT for fmt in FORMATS]
               + PLAIN
               + [argv + ["--format", fmt] for argv in EACH_TABULAR for fmt in FORMATS[1:]]
               + FAILURE + [argv + ["--format", "json-lines"] for argv in FAILURE_JSON]
               + [argv + ["--format", fmt] for argv in FAILURE_TABULAR for fmt in FORMATS[1:]]
               + LONG + MISPLACED + HELP)


def name_of(argv) -> str:
    """File stem of an invocation: its words joined by dashes, a lone
    ``--`` spelled ``dashdash``."""
    words = ("dashdash" if word == "--" else word for word in argv)
    return re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(words)).strip("-") or "no-arguments"


def transcribe(argv) -> dict:
    """Run ``main(argv)`` once and return what a user would see."""
    out, err = io.StringIO(), io.StringIO()
    columns, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = COLUMNS
    os.chdir(INPUTS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code, by_argparse = cli_main(list(argv)), False
            except SystemExit as stop:
                code, by_argparse = stop.code, True
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {
        "argv": list(argv),
        "python": "%d.%d" % sys.version_info[:2],
        # argparse's own wording moves between Python versions
        "by_argparse": by_argparse,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    names = [name_of(argv) for argv in INVOCATIONS]
    if len(set(names)) != len(names):
        raise SystemExit("two invocations share a file name")
    TRANSCRIPTS.mkdir(exist_ok=True)
    written = 0
    for name, argv in zip(names, INVOCATIONS):
        path = TRANSCRIPTS / f"{name}.json"
        if path.exists():
            continue
        record = transcribe(argv)
        path.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        written += 1
    print(f"{written} written, {len(names) - written} kept", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
