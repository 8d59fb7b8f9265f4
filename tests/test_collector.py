"""The cyclic collector is paused while the three record builders run.

`certify_absence`, `certificate_from_text` and `union_enumerate` each
fill a container of `count` tracked objects before they return; with the
collector on, every young pass would walk it again.  These tests pin
that no pass starts inside them, that the collector's state is restored
on every way out, and that the wrapper hides nothing a caller inspects.
"""

import gc
import inspect
from itertools import count

import pytest

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
