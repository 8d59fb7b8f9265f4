"""The package namespace: every public name resolves from ``enumerant``,
but ``import enumerant`` itself loads no submodule (PEP 562)."""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import enumerant

SRC = Path(enumerant.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PUBLIC = [name for name in enumerant.__all__ if name != "__version__"]


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_name_is_the_owning_modules_object():
    # `--trace 1` names a span after its function's `__module__`, so a stale
    # owner would file the spans under the wrong module without an error
    for name in PUBLIC:
        owner = importlib.import_module(f"enumerant.{enumerant._OWNER[name]}")
        obj = getattr(enumerant, name)
        assert obj is getattr(owner, name), name
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == owner.__name__, name


@pytest.mark.parametrize("module", sorted(enumerant._EXPORTS))
def test_submodule_all_is_its_exports_entry(module):
    owner = importlib.import_module(f"enumerant.{module}")
    assert owner.__all__ == enumerant._EXPORTS[module]


def test_names_once_left_out_of_the_package_resolve():
    from enumerant import diagonal, finitist

    assert enumerant.InductionLevel is finitist.InductionLevel
    assert enumerant.TABLE2_DIGIT_BUDGET is finitist.TABLE2_DIGIT_BUDGET
    assert enumerant.EnumerationSource is diagonal.EnumerationSource


def test_every_public_function_and_class_has_a_docstring():
    # a record's generated signature text counts: its fields document it
    missing = [name for name in PUBLIC
               if (inspect.isfunction(obj := getattr(enumerant, name)) or inspect.isclass(obj))
               and not obj.__doc__]
    assert missing == []


def test_every_public_name_is_listed_before_first_use():
    listed = run_python("import enumerant; print(' '.join(dir(enumerant)))").split()
    assert set(enumerant.__all__) <= set(listed)
    assert set(enumerant.__all__) <= set(dir(enumerant))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from enumerant import *", namespace)
    assert set(enumerant.__all__) <= set(namespace)
    assert namespace["__version__"] == enumerant.__version__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        enumerant.no_such_name
    assert not hasattr(enumerant, "no_such_name")


def test_bare_import_loads_no_submodule():
    loaded = run_python(
        "import sys, enumerant\n"
        "print(' '.join(m for m in sys.modules if m.startswith('enumerant.')))")
    assert loaded.split() == []


BENCH_REBUILT = ("ApproximationReport", "OresmeBlock", "LiouvillePartial",
                 "EvenSetReport", "InductionTrace", "Table2Row")


def test_the_records_the_bench_corrupts_stay_dataclasses():
    """The bench's fault injection (`perfbench/inproc.py`) corrupts one
    record of each of these types with `dataclasses.replace`, and
    `perfbench/run.py` counts the `TypeError` that call raises on any other
    type as a caught fault.  Turned into a `NamedTuple`, each type would so
    hollow its self-check with no visible failure; it stays a dataclass
    until the bench rebuilds records from their ``__match_args__``."""
    from enumerant import reals

    for name in BENCH_REBUILT:
        assert dataclasses.is_dataclass(getattr(enumerant, name)), name
    assert enumerant.ApproximationReport is reals.ApproximationReport
    # the ten `approx` columns, in the order the transcripts freeze them
    transcript = GOLDEN / "transcripts" / "approx-real-e-depth-1-format-csv.json"
    header = json.loads(transcript.read_text())["stdout"].split("\n", 1)[0].split(",")
    assert len(header) == 10
    assert enumerant.ApproximationReport.__match_args__ == tuple(header)
