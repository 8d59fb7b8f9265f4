"""The cyclic collector is paused while the three record builders run,
and while a CLI process runs its command.

`certify_absence`, `certificate_from_text` and `union_enumerate` each
fill a container of `count` tracked objects before they return; with the
collector on, every young pass would walk it again.  These tests pin
that no pass starts inside them, that the collector's state is restored
on every way out, and that the wrapper hides nothing a caller inspects.
`cli.entry` calls `main` through the same wrapper; `main` called in
process leaves the collector to its caller.  The pause relies on no
command leaving cyclic garbage behind per row, which the size checks
at the end pin.
"""

import atexit
import contextlib
import gc
import importlib
import inspect
import io
import os
import sys
from itertools import count

import pytest

from enumerant import cli
from enumerant.diagonal import (
    _STAGE_CAP,
    certificate_from_text,
    certificate_to_text,
    certify_absence,
)
from enumerant.enumeration import all_strings
from enumerant.errors import BudgetExceeded, EnumerationExhausted
from enumerant.finitist import _UNION_CAP, union_enumerate

PAUSED = (certify_absence, certificate_from_text, union_enumerate)
PARAMETERS = {
    "certify_absence": ["source", "stage"],
    "certificate_from_text": ["text"],
    "union_enumerate": ["family", "total"],
}


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    was_on = gc.isenabled()
    gc.enable()
    assert was_on


class _Boom(Exception):
    """Raised from inside a caller's source or family."""


def _boom(*args):
    raise _Boom


def _rows(*rows):
    """A family of finitely many rows: IndexError past the last."""
    return lambda k: rows[k]


_TEXT = certificate_to_text(certify_absence(all_strings, 5))

# (call, the error it ends with, or None for a normal return)
EXITS = {
    "certify-return": (lambda: certify_absence(all_strings, 5), None),
    "certify-budget": (lambda: certify_absence(_boom, _STAGE_CAP + 1), BudgetExceeded),
    "certify-value": (lambda: certify_absence(all_strings, 0), ValueError),
    "certify-short": (lambda: certify_absence(["1", "01"], 3), EnumerationExhausted),
    "certify-source": (lambda: certify_absence(_boom, 3), _Boom),
    "text-return": (lambda: certificate_from_text(_TEXT), None),
    "text-budget": (lambda: certificate_from_text(f"N={_STAGE_CAP + 1} pad=zero\n"),
                    BudgetExceeded),
    "text-malformed": (lambda: certificate_from_text("N=2 pad=zero\n1 1 1 0\nx\n"), ValueError),
    "text-short": (lambda: certificate_from_text("N=2 pad=zero\n1 1 1 0\n"), ValueError),
    "union-return": (lambda: union_enumerate(lambda k: count(), 10), None),
    "union-budget": (lambda: union_enumerate(_boom, _UNION_CAP + 1), BudgetExceeded),
    "union-value": (lambda: union_enumerate(_boom, -1), ValueError),
    "union-short": (lambda: union_enumerate(_rows("ab", "c"), 4), EnumerationExhausted),
    "union-family": (lambda: union_enumerate(_boom, 3), _Boom),
    "union-row": (lambda: union_enumerate(lambda k: map(_boom, count()), 3), _Boom),
}


def _run(call, error):
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("name", sorted(EXITS))
def test_the_collector_is_on_again_after_every_exit(name):
    _run(*EXITS[name])
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(EXITS))
def test_a_collector_that_was_off_stays_off(name):
    gc.disable()
    try:
        _run(*EXITS[name])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_sources_and_families_run_with_the_collector_paused():
    seen = []

    def source():
        seen.append(gc.isenabled())
        return all_strings()

    def family(k):
        seen.append(gc.isenabled())
        return count()

    certify_absence(source, 4)
    union_enumerate(family, 10)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_a_nested_call_leaves_the_outer_pause_in_place():
    after_inner = []

    def family(k):
        cert = certify_absence(all_strings, k + 1)
        after_inner.append(gc.isenabled())
        return iter(cert.diagonal)

    items = union_enumerate(family, 10)
    assert len(items) == 10
    assert after_inner and not any(after_inner)
    assert gc.isenabled()


@pytest.mark.parametrize("fn", PAUSED, ids=lambda fn: fn.__name__)
def test_the_wrapper_keeps_what_a_caller_inspects(fn):
    inner = fn.__wrapped__
    assert (fn.__name__, fn.__module__, fn.__qualname__) == (
        inner.__name__, inner.__module__, inner.__qualname__)
    assert fn.__doc__ == inner.__doc__ and "collector" in fn.__doc__
    assert inspect.signature(fn) == inspect.signature(inner)
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn.__name__]


@pytest.mark.parametrize("fn", PAUSED, ids=lambda fn: fn.__name__)
def test_no_paused_function_is_a_generator_function(fn):
    # a paused generator would keep the collector off in its consumer's code
    assert not inspect.isgeneratorfunction(fn)
    assert not inspect.isgeneratorfunction(fn.__wrapped__)


def _collections_during(call) -> int:
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    try:
        call()
    finally:
        gc.callbacks.remove(note)
    return len(started)


def test_no_collection_runs_inside_the_builders():
    # each call keeps one tracked tuple per record, so at twenty young
    # thresholds of records an unpaused call starts about twenty young
    # passes; the threshold is read here, as it differs between versions
    size = 20 * gc.get_threshold()[0]
    text = certificate_to_text(certify_absence(all_strings, size))
    calls = {
        "certify_absence": lambda: certify_absence(all_strings, size),
        "certificate_from_text": lambda: certificate_from_text(text),
        "union_enumerate": lambda: union_enumerate(lambda k: count(), size),
    }
    counted = {name: _collections_during(call) for name, call in calls.items()}
    assert counted == dict.fromkeys(calls, 0)


class _Stop(Exception):
    """A crash inside `main`."""


def _argparse_exit():
    raise SystemExit(2)


def _crash():
    raise _Stop


# what `main` does in place of a command: return a status, exit through
# argparse, or crash; and the exit status of each, None for the crash
MAIN_EXITS = {"status-0": (lambda: 0, 0), "status-1": (lambda: 1, 1),
              "argparse": (_argparse_exit, 2), "crash": (_crash, None)}


def _entry_with(monkeypatch, name):
    """`cli.entry` around a `main` that notes the collector and ends as
    `MAIN_EXITS[name]` says, checked against its status; the exit freeze
    is noted, not done, so this process keeps a collectable heap, and the
    process is not ended: no atexit callback runs, and `os._exit` raises
    `SystemExit` as `sys.exit` does."""
    end, status = MAIN_EXITS[name]
    seen, frozen = [], []

    def main():
        seen.append(gc.isenabled())
        return end()

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(gc.isenabled()))
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)
    monkeypatch.setattr(os, "_exit", sys.exit)
    with pytest.raises((SystemExit, _Stop)) as stop:
        cli.entry()
    assert getattr(stop.value, "code", None) == status
    return seen, frozen


@pytest.mark.parametrize("name", sorted(MAIN_EXITS))
def test_entry_calls_main_with_the_collector_paused(monkeypatch, name):
    seen, frozen = _entry_with(monkeypatch, name)
    assert seen == [False]
    # the collector is on again before the freeze and after the exit
    assert frozen == [True]
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(MAIN_EXITS))
def test_entry_leaves_a_collector_that_was_off_off(monkeypatch, name):
    gc.disable()
    try:
        seen, frozen = _entry_with(monkeypatch, name)
        assert (seen, frozen) == ([False], [False])
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv", [["pair", "--i", "1", "--j", "2"],
                                  ["pair", "--unpair", "-1"],
                                  ["locate", "--bits", "010"]])
def test_main_in_process_keeps_its_callers_collector(monkeypatch, enabled, argv):
    seen = []
    module = importlib.import_module(f"enumerant.commands.{argv[0]}")
    command = module.run

    def noting(args):
        seen.append(gc.isenabled())
        return command(args)

    # patched before `main` builds the parser, which binds `run`
    monkeypatch.setattr(module, "run", noting)
    if not enabled:
        gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
            cli.main(argv)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    # a usage error exits before the command runs
    assert seen == ([] if argv[1] == "--unpair" else [enabled])


# each command at a small size; the check runs it at ten times that too
SIZED = {
    "enum": (["enum", "--count"], 1000),
    "diag": (["diag", "--count"], 1000),
    "table": (["table", "--id", "2", "--rows"], 15),
    "theorem": (["theorem", "--exhaustive"], 1),
    "harmonic": (["harmonic", "--blocks"], 1),
    "series": (["series", "--name", "e", "--terms"], 100),
}


def _cyclic_garbage_of(argv) -> int:
    """What a collection finds after `main(argv)` ran with the collector
    off: the cyclic garbage the command left."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(SIZED))
def test_no_command_leaves_cyclic_garbage_per_row(name):
    head, size = SIZED[name]
    _cyclic_garbage_of(head + [str(size)])  # first-use imports stay out of the count
    small = _cyclic_garbage_of(head + [str(size)])
    large = _cyclic_garbage_of(head + [str(10 * size)])
    assert small == large
