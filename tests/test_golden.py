"""Replay the golden CLI transcripts: every recorded invocation must give
the same exit code and the same stdout and stderr, byte for byte.

The files under ``tests/golden/transcripts`` are frozen values, written
once by ``tests/golden/record.py``; this test only reads them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

FILES = sorted(record.TRANSCRIPTS.glob("*.json"))


def test_every_invocation_has_a_transcript():
    assert sorted(f"{record.name_of(argv)}.json" for argv in record.INVOCATIONS) \
        == [path.name for path in FILES]


@pytest.mark.parametrize("path", FILES, ids=[path.stem for path in FILES])
def test_replay(path):
    want = json.loads(path.read_text(encoding="utf-8"))
    if record.recorded_elsewhere(want):
        pytest.skip(f"argparse text recorded under Python {want['python']}, "
                    f"which this Python writes otherwise")
    assert record.replay(want) == want
