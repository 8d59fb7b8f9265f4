"""Seeded mutation sampling of one package module, stdlib only.

    python3 tests/mutation.py MODULE [--only NAME ...] [--count N]
        [--seed S] [--tests FILE ...] [--timeout SECONDS]

A mutant changes one site of ``src/enumerant/MODULE.py``: a comparison
operator (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is``
and ``is not``, ``in`` and ``not in`` trade places), an arithmetic
operator (``+`` and ``-``, ``*`` and ``//``, ``<<`` and ``>>``, ``&``
and ``|`` trade places; ``%`` becomes ``//`` and ``**`` becomes ``*``),
or an int constant (one more, or one less).  ``--only`` keeps the sites
inside the named top-level functions and classes.  ``--count`` mutants
are drawn from the sites by ``random.Random(seed)``; all of them when
there are no more sites than that.

Each mutant is written, as text, into a copy of the checkout's ``src``
and ``tests`` in a temporary directory, never into the checkout, and the
test files run against it with ``pytest -x``.  A mutant is killed when
they fail or run past ``--timeout``, and survives when they pass.  The
unmutated copy must pass first.  The run prints one line per mutant and
a count, and exits 1 when a mutant survives.  Telling an equivalent
survivor from a gap in the tests is left to the reader.

The name keeps this file out of the test run: it is no ``test_*.py``.
"""

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
              ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
              ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
              ast.BitOr: ast.BitAnd}
TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
        ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
        ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
        ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|"}


def _offsets(source: bytes):
    """A function from an AST (line, byte column) to a byte offset."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return lambda line, col: starts[line - 1] + col


def _operator_span(source: bytes, start: int, end: int, text: str) -> tuple[int, int] | None:
    """The bytes of the operator `text` between two operands, or None when
    the gap holds anything but the operator, brackets, blanks and
    comments."""
    gap = source[start:end].decode("utf-8")
    blanked = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
    found = [m for m in re.finditer(r"\s+".join(map(re.escape, text.split())), blanked)
             if re.fullmatch(r"[\s()\\]*", blanked[:m.start()] + blanked[m.end():])]
    if len(found) != 1:
        return None
    m, = found
    return start + len(gap[:m.start()].encode()), start + len(gap[:m.end()].encode())


def sites(source: bytes, only=()) -> list[tuple[int, int, bytes, str]]:
    """Every mutation site as (start, end, replacement, description).
    Nothing inside an f-string is a site: its positions are not exact on
    every Python."""
    tree = ast.parse(source)
    at = _offsets(source)
    roots = [node for node in tree.body if not only or getattr(node, "name", None) in only]
    # an annotation is no site: `int | None` made `int & None` fails at import
    hints = {id(part) for root in roots for node in ast.walk(root)
             for hint in (getattr(node, "annotation", None), getattr(node, "returns", None))
             if hint is not None for part in ast.walk(hint)}
    nodes = [node for root in roots for node in ast.walk(root) if id(node) not in hints]
    fstrings = [(at(n.lineno, n.col_offset), at(n.end_lineno, n.end_col_offset))
                for n in nodes if isinstance(n, ast.JoinedStr)]
    found = []
    for node in nodes:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for value in (node.value + 1, node.value - 1):
                found.append((at(node.lineno, node.col_offset),
                              at(node.end_lineno, node.end_col_offset), str(value),
                              f"line {node.lineno}: {node.value} -> {value}"))
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(operands[i], operands[i + 1], op, COMPARE, "")
                     for i, op in enumerate(node.ops)]
        elif isinstance(node, ast.BinOp):
            pairs = [(node.left, node.right, node.op, ARITHMETIC, "")]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.target, node.value, node.op, ARITHMETIC, "=")]
        else:
            continue
        for left, right, op, table, suffix in pairs:
            swap = table.get(type(op))
            span = swap and _operator_span(source, at(left.end_lineno, left.end_col_offset),
                                           at(right.lineno, right.col_offset),
                                           TEXT[type(op)] + suffix)
            if span:
                found.append((*span, TEXT[swap] + suffix,
                              f"line {left.end_lineno}: {TEXT[type(op)]} -> {TEXT[swap]}"))
    return sorted({(start, end, text.encode(), description)
                   for start, end, text, description in found
                   if not any(lo <= start < hi for lo, hi in fstrings)})


def _run(copy: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/enumerant, e.g. finitist")
    parser.add_argument("--only", nargs="+", default=(), help="top-level names to mutate in")
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tests", nargs="+", default=["tests"], help="test files to run")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)
    relative = Path("src", "enumerant", *args.module.split(".")).with_suffix(".py")
    source = (ROOT / relative).read_bytes()
    pool = sites(source, set(args.only))
    chosen = sorted(random.Random(args.seed).sample(pool, min(args.count, len(pool))))
    print(f"{relative}: {len(pool)} sites, {len(chosen)} mutants, seed {args.seed}")
    with tempfile.TemporaryDirectory(prefix="enumerant-mutation-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests", "pyproject.toml", "README.md"):
            (shutil.copytree if (ROOT / part).is_dir() else shutil.copy)(ROOT / part, copy / part)
        if _run(copy, args.tests, args.timeout) != "survived":
            print("the unmutated copy fails its tests")
            return 2
        tally = Counter()
        for start, end, text, description in chosen:
            mutant = source[:start] + text + source[end:]
            ast.parse(mutant)  # a site's replacement is always valid Python
            (copy / relative).write_bytes(mutant)
            outcome = _run(copy, args.tests, args.timeout)
            tally[outcome.split()[0]] += 1
            print(f"{outcome:17} {description}", flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items())) or "no mutant")
    return 1 if tally.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
