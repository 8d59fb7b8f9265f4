"""README.md examples stay true: every ``$ enumerant …`` transcript runs
through ``main(argv)`` and the ``pycon`` block runs under doctest."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from enumerant.cli import main

_ROOT = Path(__file__).resolve().parent.parent
_README = _ROOT / "README.md"
_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _cli_examples():
    """(argv, expected lines) for each ``$ enumerant`` line and the output
    lines after it, up to a blank line or the block's end."""
    examples, lines = [], None
    for line in _README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ enumerant "):
            lines = []
            examples.append((shlex.split(line)[2:], lines))
        elif lines is not None:
            if line in ("", "```"):
                lines = None
            else:
                lines.append(line)
    return examples


def _pattern(lines):
    """A README line ``...`` stands for any run of lines."""
    return "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n"
                   for line in lines)


_EXAMPLES = _cli_examples()


def test_every_command_has_an_example():
    assert {argv[0] for argv, _ in _EXAMPLES} == {
        "enum", "locate", "approx", "diag", "harmonic", "series", "theorem", "pair", "table"}


@pytest.mark.parametrize("argv, lines", _EXAMPLES, ids=[" ".join(a) for a, _ in _EXAMPLES])
def test_cli_example(argv, lines, capsys, monkeypatch):
    monkeypatch.chdir(_INPUTS)  # `diag --verify cert.txt` reads the golden input
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(_pattern(lines), out), out


def test_pycon_block():
    result = doctest.testfile(str(_README), module_relative=False, report=False)
    assert result.attempted > 0 and result.failed == 0
