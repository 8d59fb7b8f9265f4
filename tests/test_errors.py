import pytest

from enumerant.errors import DomainError, OutOfRange


@pytest.mark.parametrize("err, text, rep", [
    (OutOfRange(value="5/4"), "OutOfRange value=5/4", "OutOfRange(value='5/4')"),
    (DomainError("why"), "DomainError", "DomainError(note='why')"),
    (OutOfRange("why", value="1"), "OutOfRange value=1", "OutOfRange(value='1', note='why')"),
])
def test_str_and_repr(err, text, rep):
    # the note shows in repr only: str is the one stderr line the CLI prints
    assert (str(err), repr(err)) == (text, rep)
