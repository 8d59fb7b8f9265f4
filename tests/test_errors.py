import pytest

from enumerant import cli, diagonal, exactnum, finitist, reals, series
from enumerant.errors import BudgetExceeded, DomainError, OutOfRange


@pytest.mark.parametrize("err, text, rep", [
    (OutOfRange(value="5/4"), "OutOfRange value=5/4", "OutOfRange(value='5/4')"),
    (DomainError("why"), "DomainError", "DomainError(note='why')"),
    (OutOfRange("why", value="1"), "OutOfRange value=1", "OutOfRange(value='1', note='why')"),
])
def test_str_and_repr(err, text, rep):
    # the note shows in repr only: str is the one stderr line the CLI prints
    assert (str(err), repr(err)) == (text, rep)


class _Reached(Exception):
    """A guarded call got past its guard to its first step of work."""


def _reached(*args):
    raise _Reached


# each growth guard that sizes work by a count: (module, cap name, the call
# of that count, and the module global holding the call's first step of
# work, which the test replaces with `_reached`; None where the work at the
# cap is cheap enough to run)
GUARDS = {
    "log2_bits": (exactnum, "_LOG2_BITS_CAP", lambda n: exactnum.log2_interval(3, n), "_atanh_sum"),
    "digits": (exactnum, "_DIGITS_CAP", lambda n: exactnum._ten_to(n), None),
    "harmonic": (series, "_HARMONIC_CAP", series.harmonic_partial, "isqrt"),
    "geometric": (series, "_GEOMETRIC_CAP", series.geometric_partial, None),
    "e_terms": (series, "_E_TERMS_CAP", series.e_enclosure, "_factorial_series"),
    "liouville": (series, "_LIOUVILLE_CAP", series.liouville_partial, None),
    "depth": (reals, "_DEPTH_CAP", lambda n: reals.RationalStream(1, 3).prefix(n), None),
    # the source is read first, so it is the first step of work
    "stage": (diagonal, "_STAGE_CAP", lambda n: diagonal.certify_absence(_reached, n), None),
    "induction": (finitist, "_INDUCTION_CAP", finitist.induction_trace, "combinations"),
    "value_exponent": (exactnum, "_DIGITS_CAP", lambda n: cli._fraction(f"1e{n}"), None),
}


@pytest.mark.parametrize("module, name, call, work", GUARDS.values(), ids=GUARDS)
def test_a_guard_refuses_one_past_its_cap_before_any_work(monkeypatch, module, name, call, work):
    cap = getattr(module, name)
    if work is not None:
        monkeypatch.setattr(module, work, _reached)
    try:
        call(cap)
    except _Reached:
        pass
    with pytest.raises(BudgetExceeded) as refused:
        call(cap + 1)
    assert str(refused.value) == f"BudgetExceeded requested={cap + 1} cap={cap}"
