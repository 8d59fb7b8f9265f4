"""Benchmark for the enumerant package.

Run from the repository root:

    python3 perfbench/run.py --workload library --seed 1 --seconds 36 --trace 0

Workloads: cli and library (see perfbench/README.md).
The run makes a fixed number of rounds of the workload's seeded call list,
about --seconds worth on the reference host, one call at a time from this
one process, checks every result against an independent oracle outside
the timed region, and prints one JSON object as its last line.  --trace 0
gives the end-to-end metrics; --trace 1 alternates untraced and traced
rounds and gives the per-layer metrics, tracing overhead included.

End-to-end times are in reference seconds: each measured time is scaled
by how much slower or faster than nominal a fixed reference task ran just
before and just after it (a CPU kernel for library calls, a bare
interpreter start for cli calls and set-up), so that a shared host's slow
phases cancel out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from cliwork import COMMANDS, Cli
from common import BARE_START_S, timed
from inproc import Library
from tracing import LAYERS, ROOT_SPAN, SPECS, Tracer, span_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 11  # pairs of fresh interpreters behind setup_s and cli.import_s
CALIBRATE_EVERY = 0.5  # seconds between reference-task samples in a round

END_TO_END = ("setup_s", "wall_s", "call_p50_ms", "call_p90_ms", "peak_rss_mb")

# one checked call: `seconds` as measured, `scaled` in reference seconds
Record = namedtuple("Record", "key group layer seconds scaled counts")


def per_layer_names():
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s", "failed")]
    names += ["cli.import_s"] + [f"cli.{c}.p50_ms" for c in COMMANDS]
    names += [spec[0] for spec in SPECS]
    names += ["reals.bits_emitted", "reals.emitted_per_requested", "series.result_bits",
              "finitist.union_codes_per_item",
              "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "bench.self_s"]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "library"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def start_ratios(env):
    """Start-up plus import of enumerant.cli over a bare interpreter start
    just before it, for SETUP_STARTS fresh pairs."""
    def start(code):
        return timed(lambda: subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                            check=True, stdin=subprocess.DEVNULL))
    ratios = []
    for _ in range(SETUP_STARTS):
        bare = start("pass")
        ratios.append(start("import enumerant.cli") / bare)
    return ratios


def git_sha():
    """HEAD of the checkout's own git repository, if it is one."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, stdin=subprocess.DEVNULL)
    except OSError:
        return "unknown (no git)"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


# ---------------------------------------------------------------------------
# running rounds


class Tally:
    """What a run keeps of its calls once they have been checked."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.failed_by_layer = defaultdict(int)
        self.audit = {"injected": 0, "caught": 0, "missed": []}
        self._audited = set()

    def settle(self, call):
        """Check one call outside the timed region, feed its oracle one
        corrupted result the first time its group comes up, and drop the
        result so a round holds one result at a time."""
        self.attempted += 1
        if call.error is not None:
            reason = f"raised {call.error!r}"
        else:
            try:
                reason = call.check(call.result)
            except Exception as err:  # a crashing oracle is a failed call too
                reason = f"oracle raised {err!r}"
        if reason:
            self.failed_by_layer[call.layer] += 1
            self.failures.append(f"{call.group}: {reason}")
        elif call.corrupt is not None and call.group not in self._audited:
            self._audited.add(call.group)
            self.audit["injected"] += 1
            counts = call.counts
            try:
                objection = call.check(call.corrupt(call.result))
            except Exception as err:  # an oracle that crashes on bad input still objects
                objection = repr(err)
            call.counts = counts
            if objection:
                self.audit["caught"] += 1
            else:
                self.audit["missed"].append(call.group)
        call.result = None
        return Record(call.key, call.group, call.layer, call.seconds, call.seconds, call.counts)


def scale_factors(marks, reference):
    """Per call, the reference task's nominal time over the mean of the
    samples on either side of it; `marks` are (calls done, sample)."""
    factors = []
    for (first, before), (stop, after) in zip(marks, marks[1:]):
        factors += [2 * reference / (before + after)] * (stop - first)
    return factors


def execute(calls, tally, workload):
    """Run calls one at a time, each checked right after its timed region,
    with a sample of the workload's reference task before the first call,
    after the last and between calls at least CALIBRATE_EVERY apart."""
    records, marks = [], []
    due = 0.0
    for call in calls:
        if perf_counter() >= due:
            marks.append((len(records), workload.calibrate()))
            due = perf_counter() + CALIBRATE_EVERY
        t0 = perf_counter()
        try:
            call.result = call.run()
        except Exception as err:  # recorded and counted as a failed call
            call.error = err
        call.seconds = perf_counter() - t0
        records.append(tally.settle(call))
    marks.append((len(records), workload.calibrate()))
    factors = scale_factors(marks, workload.REFERENCE_S)
    return SimpleNamespace(records=[r._replace(scaled=r.seconds * f)
                                    for r, f in zip(records, factors)],
                           samples=[k for _, k in marks])


def execute_traced(calls, tracer, workload, tally):
    """Run calls under spans, sampling the reference task between them as
    `execute` does (it calls nothing in the package, so it opens no
    span); inputs are built before the tracer goes in and oracles run
    after it comes out.  Each call's spans are scaled like its time."""
    calls = list(calls)
    root = tracer.name_id(ROOT_SPAN)
    first = len(tracer.calls)
    marks = []
    due = 0.0
    tracer.install(workload.api)
    try:
        for done, call in enumerate(calls):
            if perf_counter() >= due:
                marks.append((done, workload.calibrate()))
                due = perf_counter() + CALIBRATE_EVERY
            tracer.begin_call(call.group, call.size)
            idx = tracer.open(root)
            try:
                if call.span is None:
                    call.result = call.run()
                else:
                    inner = tracer.open(tracer.name_id(call.span))
                    try:
                        call.result = call.run()
                    finally:
                        tracer.close(inner)
            except Exception as err:  # recorded and counted as a failed call
                call.error = err
            finally:
                tracer.close(idx)
            call.seconds = tracer.end[idx] - tracer.start[idx]
    finally:
        tracer.uninstall()
    marks.append((len(calls), workload.calibrate()))
    factors = scale_factors(marks, workload.REFERENCE_S)
    tracer.scale[first:] = factors
    return SimpleNamespace(records=[tally.settle(call)._replace(scaled=call.seconds * f)
                                    for call, f in zip(calls, factors)],
                           samples=[k for _, k in marks])


def heap_probe_mb(workload, round_no):
    """Peak memory of one fresh-input library round in a fresh interpreter
    (see heapprobe.py), in MiB."""
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("heapprobe.py")),
                           str(workload.seed), str(round_no)], cwd=ROOT, capture_output=True,
                          text=True, stdin=subprocess.DEVNULL, check=True)
    return int(done.stdout.split()[-1]) / 1024


def run_rounds(workload, rounds, tracer):
    """`rounds` rounds after a warm-up; with a tracer, rounds // 2 pairs of
    an untraced and a traced round on distinct shifts, alternating which
    goes first, both with every group."""
    tally = Tally()
    warmup = len(execute(workload.warmup_calls(), tally, workload).records)
    plain, traced = [], []
    if tracer is None:
        for r in range(rounds):
            plain.append(execute(workload.calls(r), tally, workload))
    else:
        for pair in range(max(1, rounds // 2)):
            for r in ((2 * pair, 2 * pair + 1) if pair % 2 == 0 else (2 * pair + 1, 2 * pair)):
                if r % 2 == 0:
                    plain.append(execute(workload.calls(r, once=True), tally, workload))
                else:
                    traced.append(execute_traced(workload.calls(r, once=True), tracer,
                                                 workload, tally))
    return SimpleNamespace(plain=plain, traced=traced, tally=tally, warmup=warmup)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run, setup_s, peak_rss_mb):
    # each call at the median of its near-twins across rounds, in reference seconds
    twins = defaultdict(list)
    for rnd in run.plain:
        for record in rnd.records:
            twins[record.key].append(record.scaled)
    per_call = [statistics.median(times) for times in twins.values()]
    deciles = statistics.quantiles(per_call, n=10)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_call), "s"),
        "call_p50_ms": (statistics.median(per_call) * 1e3, "ms"),
        "call_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"setup_s": SETUP_STARTS, "rounds": len(run.plain), "calls_per_round": len(per_call),
               "peak_rss_mb": 1}
    return metrics, samples


def host_speed(run, workload):
    """Nominal over measured reference-task time, as median and extremes."""
    ratios = [workload.REFERENCE_S / k for rnd in run.plain for k in rnd.samples]
    return {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios),
            "samples": len(ratios)}


def layer_metrics(run, tracer, import_s, workload_name):
    rounds = len(run.traced)
    metrics, absent = span_metrics(tracer, rounds)
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (run.tally.failed_by_layer[layer], "count")
    metrics["cli.import_s"] = (import_s, "s")
    every_call = [record for rnd in run.plain + run.traced for record in rnd.records]
    for command in COMMANDS:
        times = [record.scaled * 1e3 for record in every_call
                 if record.layer == "cli" and record.group == command]
        metrics[f"cli.{command}.p50_ms"] = (statistics.median(times) if times else 0.0, "ms")
        if not times:
            absent[f"cli.{command}.p50_ms"] = "the cli workload alone runs commands"

    totals = defaultdict(int)
    for rnd in run.traced:
        for record in rnd.records:
            for key, value in (record.counts or {}).items():
                totals[key] += value
    metrics["reals.bits_emitted"] = (totals["bits_emitted"] / rounds, "count")
    metrics["reals.emitted_per_requested"] = (
        totals["emitted"] / totals["requested"] if totals["requested"] else 0.0, "ratio")
    metrics["series.result_bits"] = (totals["result_bits"] / rounds, "bits")
    metrics["finitist.union_codes_per_item"] = (
        totals["union_codes"] / totals["union_items"] if totals["union_items"] else 0.0, "ratio")
    for name, key in (("reals.bits_emitted", "requested"), ("reals.emitted_per_requested", "requested"),
                      ("series.result_bits", "result_bits"),
                      ("finitist.union_codes_per_item", "union_items")):
        if not totals[key]:
            absent[name] = f"no calls in the {workload_name} workload produce it"

    def mean_wall(rounds_run):
        return statistics.fmean(sum(r.scaled for r in rnd.records) for rnd in rounds_run)

    traced_wall, plain_wall = mean_wall(run.traced), mean_wall(run.plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    layers_s = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    metrics["bench.self_s"] = (traced_wall - layers_s, "s")
    samples = {"traced_rounds": rounds, "untraced_rounds": len(run.plain),
               "spans": len(tracer.start), "import_starts": SETUP_STARTS}
    return metrics, samples, absent


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "enumerant" / "cli.py").is_file():
        print(f"perfbench: no enumerant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import enumerant

    if Path(enumerant.__file__).resolve().parent != SRC / "enumerant":
        print(f"perfbench: enumerant imported from {enumerant.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    sys.setrecursionlimit(20000)  # index_to_string_recursive on 4096-bit indices

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    env = child_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import enumerant.cli, sys; sys.stdout.write(enumerant.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if probe.returncode != 0 or Path(probe.stdout).resolve().parent != SRC / "enumerant":
        print(f"perfbench: child interpreters do not import enumerant from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    api = SimpleNamespace(**{n: getattr(enumerant, n) for n in dir(enumerant)
                             if not n.startswith("_")})
    if args.workload == "cli":
        workload = Cli(args.seed, api, enumerant, ROOT, OUT, env)
    else:
        workload = Library(args.seed, api, enumerant)
    workload.setup()

    ratios = start_ratios(env)
    rounds = max(2, round(args.seconds / workload.ROUND_S))
    tracer = Tracer() if args.trace else None
    run = run_rounds(workload, rounds, tracer)

    if tracer is None:
        setup_s = statistics.median(ratios) * BARE_START_S
        peak_mb = (workload.peak_rss_kb / 1024 if isinstance(workload, Cli)
                   else heap_probe_mb(workload, rounds))
        metrics, samples = end_to_end(run, setup_s, peak_mb)
        provenance["host_speed"] = host_speed(run, workload)
        absent = {}
        expected = END_TO_END
    else:
        import_s = (statistics.median(ratios) - 1) * BARE_START_S
        metrics, samples, absent = layer_metrics(run, tracer, import_s, args.workload)
        tracer.write(OUT / f"spans_{args.workload}.tsv")
        expected = per_layer_names()
    if sorted(metrics) != sorted(expected):
        print(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(expected))}",
              file=sys.stderr)
        return 3

    tally = run.tally
    failed = len(tally.failures)
    print(json.dumps({
        "provenance": provenance, "samples": samples, "warmup_calls": run.warmup,
        "fail_ratio": failed / tally.attempted, "failures": tally.failures[:10],
        "self_check": tally.audit, "absent": absent,
    }))
    print(json.dumps({
        "correct": failed == 0 and not tally.audit["missed"],
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
