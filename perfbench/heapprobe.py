"""Peak memory of one library round, in a fresh interpreter.

    python3 perfbench/heapprobe.py SEED ROUND

run.py starts this after its timed rounds.  It runs the library
workload's warm-up and then round ROUND with every group, dropping each
result as soon as the call returns, and prints the growth of its peak
resident set over its resident set before the round, in KiB.  Nothing
else runs in the process, so the figure is the package's own working
memory plus the inputs of the call that needed most, free of the
oracles' buffers and of any heap the parent had already grown.  The
results are not checked here: round ROUND's neighbours are checked in the
timed rounds.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def resident_kib() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def run_all(calls):
    for call in calls:  # built one at a time, as in the timed rounds
        try:
            call.run()
        except Exception:  # failures are counted in the timed rounds
            pass


def main(argv):
    seed, round_no = (int(a) for a in argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.setrecursionlimit(20000)
    import enumerant
    from inproc import Library

    api = SimpleNamespace(**{n: getattr(enumerant, n) for n in dir(enumerant)
                             if not n.startswith("_")})
    workload = Library(seed, api, enumerant)
    run_all(workload.warmup_calls())
    before = resident_kib()
    run_all(workload.calls(round_no, once=True))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)


if __name__ == "__main__":
    main(sys.argv[1:])
