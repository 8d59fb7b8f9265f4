"""Spans around every call into the package's layers, from outside it.

Wrappers are installed where names are looked up: in the benchmark's
facade and in every package module that imported a function from another
layer (`finitist` binds `log2_interval` and `canonicalize` at import, for
instance), plus the stream method `ComputableReal.prefix` that
`approximate` calls.  Calls inside one module are not wrapped; their time
stays with the calling function, which is in the same layer.  Generators
(`all_strings`, `entries`) get one span per item they yield.

Spans live in flat arrays while the benchmark runs and are written out at
the end.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from collections import defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("cli", "enumeration", "reals", "series", "exactnum", "diagonal", "finitist")
ROOT_SPAN = "bench.call"


def _layer_function(value) -> bool:
    return (isinstance(value, FunctionType) and not value.__name__.startswith("_")
            and value.__module__.partition(".")[2] in LAYERS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.stack = [-1]
        self.calls: list[tuple[str, float]] = []  # (group, size) per call id
        self.scale: list[float] = []  # to reference seconds, per call id
        self._patches = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.call.append(len(self.calls) - 1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_call(self, group: str, size) -> None:
        self.calls.append((group, size))
        self.scale.append(1.0)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                return _TracedIter(tracer, nid, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, api) -> None:
        wrapped = {}

        def wrapper(fn):
            if fn not in wrapped:
                wrapped[fn] = self._wrap(fn, f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}")
            return wrapped[fn]

        for layer in LAYERS:
            module = importlib.import_module(f"enumerant.{layer}")
            for attr, value in list(vars(module).items()):
                if _layer_function(value) and value.__module__ != module.__name__:
                    self._patch(module, attr, wrapper(value))
        for attr, value in list(vars(api).items()):
            if _layer_function(value):
                self._patch(api, attr, wrapper(value))
        reals = importlib.import_module("enumerant.reals")
        prefix = vars(reals.ComputableReal)["prefix"]
        self._patch(reals.ComputableReal, "prefix", self._wrap(prefix, "reals.prefix"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tcall\tgroup\tname\tstart\tend\tparent\n")
            for idx in range(len(self.start)):
                call = self.call[idx]
                fh.write(f"{idx}\t{call}\t{self.calls[call][0]}\t{self.names[self.name[idx]]}\t"
                         f"{self.start[idx]:.9f}\t{self.end[idx]:.9f}\t{self.parent[idx]}\n")


class _TracedIter:
    __slots__ = ("_tracer", "_nid", "_items")

    def __init__(self, tracer, nid, items):
        self._tracer, self._nid, self._items = tracer, nid, items

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._nid)
        try:
            return next(self._items)
        finally:
            self._tracer.close(idx)


# ---------------------------------------------------------------------------
# per-layer metrics


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size) over the calls in
    the upper half of the size range, where fixed per-call costs no longer
    flatten the growth exponent."""
    pts = sorted((math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0)
    if len(pts) < 4:
        return float("nan")
    middle = (pts[0][0] + pts[-1][0]) / 2
    pts = [(x, y) for x, y in pts if x >= middle]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return float("nan")
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# (metric, how, what, groups): "span" sums the self time of spans with one of
# the names in `what`; "layer" sums the self time of layer `what`; "slope"
# fits layer `what`'s self time per call against call size.  `groups`
# restricts to calls of those groups ("!" prefix: all groups but that one).
_STREAM_KINDS = ("sqrt", "rational", "euler", "liouville")
_SERIES_FNS = ("e_enclosure", "harmonic_partial", "oresme_block", "geometric_partial")
SPECS = (
    [("enumeration.index_map.self_s", "layer", "enumeration", "index_map"),
     ("enumeration.index_map.slope", "slope", "enumeration", "index_map"),
     ("enumeration.entries.self_s", "layer", "enumeration", "entries"),
     ("enumeration.approximate.self_s", "span", ("enumeration.approximate",), None)]
    + [m for kind in _STREAM_KINDS for m in (
        (f"reals.{kind}.self_s", "layer", "reals", kind),
        (f"reals.{kind}.slope", "slope", "reals", kind))]
    + [("reals.extend.self_s", "layer", "reals", "extend"),
       ("reals.shallow.self_s", "layer", "reals", "shallow")]
    + [m for fn in _SERIES_FNS for m in (
        (f"series.{fn}.self_s", "span", (f"series.{fn}",), None),
        (f"series.{fn}.slope", "slope", "series", fn))]
    + [("series.liouville_partial.self_s", "span", ("series.liouville_partial",), None),
       ("exactnum.log2_interval.deep.self_s", "span", ("exactnum.log2_interval",), "log2_deep"),
       ("exactnum.log2_interval.deep.slope", "slope", "exactnum", "log2_deep"),
       ("exactnum.log2_interval.shallow.self_s", "span", ("exactnum.log2_interval",), "!log2_deep"),
       ("exactnum.magnitude_cmp.self_s", "span", ("exactnum.magnitude_cmp",), None),
       ("exactnum.canonicalize.self_s", "span", ("exactnum.canonicalize",), None),
       ("exactnum.decimal.self_s", "span",
        ("exactnum.decimal_string", "exactnum.pinned_decimals", "exactnum.decimal_digit"), None),
       ("diagonal.certify_absence.self_s", "span", ("diagonal.certify_absence",), None),
       ("diagonal.certify_absence.slope", "slope", "diagonal", "certify"),
       ("diagonal.verify_certificate.self_s", "span", ("diagonal.verify_certificate",), None),
       ("diagonal.verify_certificate.slope", "slope", "diagonal", "verify"),
       ("diagonal.text.self_s", "span",
        ("diagonal.certificate_to_text", "diagonal.certificate_from_text"), None),
       ("finitist.union_enumerate.sparse.self_s", "span", ("finitist.union_enumerate",), "union_sparse"),
       ("finitist.union_enumerate.sparse.slope", "slope", "finitist", "union_sparse"),
       ("finitist.union_enumerate.dense.self_s", "span", ("finitist.union_enumerate",), "union_dense"),
       ("finitist.induction_trace.self_s", "span", ("finitist.induction_trace",), None),
       ("finitist.table2_row.self_s", "span", ("finitist.table2_row",), None),
       ("finitist.check_even_set.self_s", "span", ("finitist.check_even_set",), None)]
)


def _group_ok(group, want) -> bool:
    if want is None:
        return True
    if want.startswith("!"):
        return group != want[1:]
    return group == want


def span_metrics(tracer: Tracer, rounds: int):
    """Per-layer metrics from the spans of `rounds` traced rounds.

    Times, in reference seconds, and counts are per traced round.
    Returns (metrics, absent), where `absent` maps each metric the
    workload does not reach to why.
    """
    selfs = tracer.self_times()
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    name_group_self = defaultdict(float)  # (span name, group)
    call_layer_self = defaultdict(float)  # (call id, layer)
    for idx, self_s in enumerate(selfs):
        name = tracer.names[tracer.name[idx]]
        layer = name.partition(".")[0]
        call = tracer.call[idx]
        self_s *= tracer.scale[call]
        layer_self[layer] += self_s
        layer_calls[layer] += 1
        name_group_self[name, tracer.calls[call][0]] += self_s
        call_layer_self[call, layer] += self_s

    metrics, absent = {}, {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layer_calls[layer] / rounds, "count")
        metrics[f"{layer}.self_s"] = (layer_self[layer] / rounds, "s")
    for metric, how, what, want in SPECS:
        if how == "span":
            parts = [v for (name, group), v in name_group_self.items()
                     if name in what and _group_ok(group, want)]
        else:
            parts = [(tracer.calls[call][1], v) for (call, layer), v in call_layer_self.items()
                     if layer == what and _group_ok(tracer.calls[call][0], want)]
        if how == "slope":
            value = _slope(parts)
            if math.isnan(value):
                absent[metric] = "fewer than four sized calls in this workload"
                value = 0.0
            metrics[metric] = (value, "1")
            continue
        if not parts:
            absent[metric] = "no matching calls in this workload"
        metrics[metric] = (sum(v for _, v in parts) if how == "layer" else sum(parts)) / rounds, "s"
    return metrics, absent
