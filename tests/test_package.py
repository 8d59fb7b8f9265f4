"""The package namespace: every public name resolves from ``enumerant``,
but ``import enumerant`` itself loads no submodule (PEP 562)."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import enumerant
from enumerant import enumeration, finitist, reals, series

SRC = Path(enumerant.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PUBLIC = [name for name in enumerant.__all__ if name != "__version__"]


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
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
    # a NamedTuple's generated `Name(field, ...)` text counts, as its fields
    # document it; a dataclass's does not, since building it calls
    # `inspect.signature` when the class is made
    missing = [name for name in PUBLIC
               if (inspect.isfunction(obj := getattr(enumerant, name)) or inspect.isclass(obj))
               and (not obj.__doc__ or dataclasses.is_dataclass(obj)
                    and obj.__doc__.startswith(f"{name}("))]
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
    from enumerant import records

    for name in BENCH_REBUILT:
        assert dataclasses.is_dataclass(getattr(enumerant, name)), name
        assert getattr(enumerant, name) is getattr(records, name)


# `approx` and `theorem --set` print their builders' fields under columns
# written in the command, in the order the transcripts freeze them
@pytest.mark.parametrize("argv, record, transcript", [
    (["approx", "--real", "rat:1/3", "--depth", "7"], "ApproximationReport",
     "approx-real-e-depth-1-format-csv"),
    (["theorem", "--set", "4,2"], "EvenSetReport", "theorem-set-2-4-6-format-csv"),
])
def test_each_report_command_prints_its_records_fields(capsys, argv, record, transcript):
    from enumerant.cli import main

    assert main([*argv, "--format", "csv"]) == 0
    header = capsys.readouterr().out.split("\n", 1)[0]
    path = GOLDEN / "transcripts" / f"{transcript}.json"
    frozen = json.loads(path.read_text(encoding="utf-8"))["stdout"].split("\n", 1)[0]
    assert tuple(header.split(",")) == getattr(enumerant, record).__match_args__
    assert header == frozen


# one record of each type that the bench corrupts, built through its public
# function, with the field that `perfbench/inproc.py` rewrites and another
# value for it
def _corrupted_records():
    return [
        (enumerant.approximate(enumerant.RationalStream(1, 3), 8), "prefix", "01010100"),
        (enumerant.oresme_block(3), "total", enumerant.oresme_block(3).total + 1),
        (enumerant.liouville_partial(3), "value", enumerant.liouville_partial(3).value / 2),
        (enumerant.check_even_set([2, 4, 6]), "witness_count", 3),
        (enumerant.induction_trace(3), "total_checked", 8),
        (enumerant.table2_row(3), "n_value", enumerant.Exact(4)),
    ]


def test_the_bench_fault_injection_reaches_every_record():
    """`dataclasses.replace` with the same value gives an equal record and
    with another value an unequal one, so the `TypeError` that
    `perfbench/run.py` would count as a caught fault cannot occur, and the
    self-checks see every corruption."""
    records = _corrupted_records()
    assert sorted(type(record).__name__ for record, _, _ in records) == sorted(BENCH_REBUILT)
    for record, field, other in records:
        assert dataclasses.replace(record, **{field: getattr(record, field)}) == record
        corrupted = dataclasses.replace(record, **{field: other})
        assert type(corrupted) is type(record)
        assert corrupted != record, field


def test_every_record_round_trips_under_its_module():
    import copy
    import pickle
    import typing

    for record, _, _ in _corrupted_records():
        assert type(record).__module__ == "enumerant.records"
        # every field's annotation resolves in the record's own module
        assert list(typing.get_type_hints(type(record))) == list(record.__match_args__)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is type(record)
            assert twin == record


def _outcome(build, *args):
    """A call's fields in field order, or its refusal's type and text."""
    try:
        result = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result if type(result) is tuple else tuple(
        getattr(result, name) for name in result.__match_args__)


def _on_a_new_stream(build):
    """`build` on a stream that `parse_real` makes afresh from its name, so
    that no call reads a prefix that an earlier call certified."""
    return lambda real, depth: build(enumerant.parse_real(real), depth)


# every command prints from its builder's private field function, the
# library from the record that wraps its fields: the two must agree on
# every call
BUILDERS = {
    "approximate": (_on_a_new_stream(enumeration.approximate),
                    _on_a_new_stream(enumeration._approximate_fields)),
    "oresme_block": (series.oresme_block, series._oresme_fields),
    "liouville_partial": (series.liouville_partial, series._liouville_fields),
    "check_even_set": (finitist.check_even_set, finitist._even_set_fields),
    "table2_row": (finitist.table2_row, finitist._table2_fields),
    "induction_trace": (finitist.induction_trace, finitist._induction_fields),
}


GRIDS = {
    # every kind of stream: a root, e, tau, and dyadic and other rationals
    "approximate": [(real, depth) for real in ("sqrt2", "e", "tau", "rat:1/2", "rat:3/8",
                                               "rat:5/64", "rat:1/3", "rat:2/7", "rat:999/1000")
                    for depth in range(1, 65)],
    "oresme_block": [(k,) for k in range(1, 15)],
    "liouville_partial": [(m,) for m in range(1, 8)],
    # sorted and shuffled sets where the theorem holds with room and exactly
    "check_even_set": [(elements,) for elements in (
        [2], [4], [2, 4], [4, 2], [2, 4, 6], [6, 2, 4], [8, 2, 12, 10], [2, 4, 6, 8, 10],
        list(range(2, 42, 2)), list(range(40, 0, -2)), [100, 2, 6, 1000, 8], (2, 4),
        range(2, 12, 2))],
    "table2_row": [(n, budget, bits) for n in range(1, 31)
                   for budget in (19, 40, 10 ** 4) for bits in (16, 32, 64)],
    "induction_trace": [(m,) for m in range(1, 11)],
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_each_record_holds_its_field_functions_fields(builder):
    build, fields = BUILDERS[builder]
    for args in GRIDS[builder]:
        got = _outcome(fields, *args)
        assert not (isinstance(got[0], type) and issubclass(got[0], Exception)), (args, got)
        assert _outcome(build, *args) == got, args


@pytest.mark.parametrize("builder, args", [
    *(("approximate", ("e", depth)) for depth in (0, -1, reals._DEPTH_CAP, reals._DEPTH_CAP + 1)),
    *(("approximate", ("rat:1/3", depth)) for depth in (0, reals._DEPTH_CAP)),
    *(("oresme_block", (k,)) for k in (19, 0, -1)),
    *(("liouville_partial", (m,)) for m in (8, 0, -1)),
    *(("table2_row", args) for args in (
        (finitist._TABLE2_ROWS_CAP + 1, 19, 32), (0, 19, 32), (-1, 19, 32),
        (3, 19, 0), (3, 19, -1), (3, -1, 32))),
    *(("induction_trace", (m,)) for m in (21, 0, -1)),
    # empty; odd, zero, negative and bool elements; a repeat, reported as
    # the first repeated element in input order, not the least
    *(("check_even_set", (elements,)) for elements in (
        [], (), [2, 3], [3, 2], [0], [2, 0], [-2], [2, -4], [2, True], [False], [2.0],
        ["2"], [2, 4, 2], [6, 2, 4, 2, 6], [8, 4, 4, 8])),
], ids=lambda value: value if isinstance(value, str) else ",".join(map(str, value)))
def test_each_builder_refuses_as_its_field_function(builder, args):
    build, fields = BUILDERS[builder]
    refusal = _outcome(fields, *args)
    assert issubclass(refusal[0], Exception)
    assert _outcome(build, *args) == refusal


def test_the_commands_and_the_records_share_each_rule():
    for k in range(1, 15):
        block = series.oresme_block(k)
        assert block.terms == series._block_terms(block.first, block.last) == 1 << (k - 1)
        assert block.at_least_half is series._at_least_half(block.total) is True
    assert not series._at_least_half(Fraction(49, 100))
    for n in range(1, 31):
        row = finitist.table2_row(n, 40, 16)
        assert row.cells() == finitist._table2_cells(finitist._table2_fields(n, 40, 16))
    # a zero digit budget is no refusal: every power stays symbolic in both
    assert _outcome(finitist.table2_row, 3, 0) == finitist._table2_fields(3, 0)


# the one record module, which loads only where a record is built
DATACLASS_IMPORTERS = {"records.py"}


def test_only_the_record_modules_import_dataclasses():
    """A record defined back in `reals`, `series` or `finitist` would load
    `dataclasses` with `inspect`, `ast`, `dis` and `tokenize` in every
    command that runs them, records or not."""
    importers = set()
    for path in sorted((SRC / "enumerant").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.add(path.relative_to(SRC / "enumerant").as_posix())
    assert importers == DATACLASS_IMPORTERS


def test_no_module_imports_from_future():
    """Annotations are evaluated where they are written; one that names a
    type bound only under `TYPE_CHECKING` or in a function body is a
    string, and `test_every_annotation_resolves` checks it."""
    importers = [path.relative_to(SRC / "enumerant").as_posix()
                 for path in sorted((SRC / "enumerant").rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
    assert importers == []


def _annotated():
    """Every public function and class with the methods its own module
    defines, and every function of the CLI modules."""
    from enumerant.cli import _COMMANDS

    for name in PUBLIC:
        obj = getattr(enumerant, name)
        if inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member) and member.__module__ == obj.__module__:
                    yield member
        elif inspect.isfunction(obj):
            yield obj
    for module in ["cli", "commands", *(f"commands.{command}" for command in _COMMANDS)]:
        module = importlib.import_module(f"enumerant.{module}")
        yield from (obj for obj in vars(module).values()
                    if inspect.isfunction(obj) and obj.__module__ == module.__name__)


def test_every_annotation_resolves():
    # no interpreter evaluates a string annotation: each names a lazily
    # loaded type or module, which `localns` supplies
    import argparse
    import typing
    from fractions import Fraction

    names = {name: getattr(enumerant, name) for name in PUBLIC} | {"Fraction": Fraction,
                                                                  "argparse": argparse}
    annotated = list(_annotated())
    assert len(annotated) > 150
    for obj in annotated:
        typing.get_type_hints(obj, localns=names)
