"""The in-process workload: streams, series and combinatorics calls.

The workload turns a seed into rounds of calls.  Round r has the same
groups, order and random parameters as round 0, with every drawn size
moved up by r: the calls of different rounds are near-twins of equal
cost but distinct inputs, so a result cache cannot serve one round from
another.  Groups whose whole domain is a handful of values (`ONCE`:
`oresme_block`'s k, `liouville_partial`'s m, `induction_trace`'s m) run in
round 0 only.  Sizes are stratified over a log range (see
`log_uniform`), and warm-up inputs lie below every timed range, so they
are disjoint from the timed ones.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import random
import statistics
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import mpmath

from common import (
    Call,
    check_prefix,
    check_report,
    KERNEL_S,
    cpu_kernel,
    decimal_text,
    dyadic_text,
    e_partial,
    flip_bit,
    flip_fraction,
    log_uniform,
    mp_close,
    pinned_text,
    reciprocal_sum,
    reciprocal_sum_matches,
    timed,
)

# depth ranges per stream kind; each top is where the slowest call of that
# kind takes about a second on the seed code (Python 3.11, 2 cores)
STREAM_RANGES = {
    "sqrt": (64, 8500),
    "rational": (256, 75000),
    "euler": (32, 4000),
    "liouville": (32, 3300),
}
STREAM_KINDS = tuple(STREAM_RANGES)


class Draw:
    """Seeded draws for one round.  Each group has its own random stream,
    so what one group draws never depends on another group's sizes, and
    round r's sizes are round 0's moved up by the shift r."""

    def __init__(self, key, shift):
        self.key = key
        self.shift = shift
        self._rngs = {}
        self._used = defaultdict(set)

    def rng(self, group):
        if group not in self._rngs:
            self._rngs[group] = random.Random(f"{self.key}:{group}")
        return self._rngs[group]

    def sizes(self, group, lo, hi, n):
        drawn = log_uniform(self.rng(group), lo, hi, n, self._used[group])
        return [size + self.shift for size in drawn]


class Workload:
    name = ""
    ONCE = frozenset()  # groups that run in round 0 only
    # subclasses set ROUND_S, the elapsed seconds of one round on the
    # reference host, and REFERENCE_S, the nominal seconds of `calibrate`

    def __init__(self, seed, api, lib):
        self.seed = seed
        self.api = api  # what timed calls go through; the tracer patches it
        self.lib = lib  # the package itself, for oracles

    def plan(self, r, once=None):
        """Round r's (key, group, params) units, in the same order every
        round; a unit's key is its place in that order.  Groups in `ONCE`
        are left out of every round but 0, unless `once` says otherwise."""
        units = self._plan(Draw(f"{self.name}:{self.seed}", r))
        # one order for every seed: what runs just before a call (and so how
        # warm the caches are) must not depend on the seed
        random.Random(f"{self.name}:order").shuffle(units)
        # steps that extend one stream must run in increasing depth order
        slots = defaultdict(list)
        for at, (group, params) in enumerate(units):
            if group == "extend":
                slots[params[3]].append(at)
        for positions in slots.values():
            ordered = sorted((units[at] for at in positions), key=lambda u: u[1][2])
            for at, unit in zip(positions, ordered):
                units[at] = unit
        keep_once = r == 0 if once is None else once
        return [(key, group, params) for key, (group, params) in enumerate(units)
                if keep_once or group not in self.ONCE]

    def calls(self, r, once=None):
        return self.build(self.plan(r, once))

    def warmup_calls(self):
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return self.build((key, group, params) for key, (group, params)
                          in enumerate(self._warmup_plan(rng)))

    def build(self, units):
        """Calls built one at a time as they are consumed, so a round holds
        the inputs of one call at a time."""
        shared = {}
        for key, group, params in units:
            call = self._call(group, params, shared)
            call.key = key
            yield call

    def setup(self):
        """One-off preparation outside the timed region."""

    def calibrate(self):
        """Seconds of a fixed reference task run now; see run.py."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# streams: certified bit streams, fresh and extended


def _stream_params(rng, kind):
    if kind == "sqrt":
        while True:
            a, b = rng.randint(2, 999), rng.randint(1, 99)
            if math.isqrt(a * b) ** 2 != a * b:
                return (a, b)
    if kind == "rational":
        if rng.random() < 0.25:  # power-of-two denominator: the exact-member path
            k = rng.randint(2, 62)
            return (rng.randrange(1, 1 << k, 2), 1 << k)
        q = rng.randint(3, 1 << 20)
        p = rng.randint(1, q - 1)
        g = math.gcd(p, q)
        return (p // g, q // g)
    return None


def _make_stream(api, kind, params):
    if kind == "sqrt":
        return api.SqrtStream(*params)
    if kind == "rational":
        return api.RationalStream(*params)
    if kind == "euler":
        return api.EulerStream()
    return api.LiouvilleStream()


def _approx_call(api, group, kind, params, depth):
    """`approximate` on a fresh stream of one kind."""
    def run():
        x = _make_stream(api, kind, params)
        return x, api.approximate(x, depth)

    def check(result):
        x, report = result
        call.counts = {"bits_emitted": x.depth, "requested": depth, "emitted": x.depth}
        bad = check_report(kind, params, depth, report)
        if bad is None and not x.sandwich_holds(int(report.prefix, 2), depth):
            bad = f"{kind} sandwich fails at depth {depth}"
        return bad

    def corrupt(result):
        x, report = result
        return x, dataclasses.replace(report, prefix=flip_bit(report.prefix))

    call = Call(group, "enumeration", depth, run, check, corrupt)
    return call


def _extend_call(kind, params, depth, x):
    """`prefix(depth)` on a stream that earlier calls already extended."""
    def run():
        before = x.depth
        return before, x.prefix(depth), x.depth

    def check(result):
        before, prefix, after = result
        call.counts = {"bits_emitted": after - before, "requested": depth, "emitted": after}
        bad = check_prefix(kind, params, depth, prefix)
        if bad is None and not x.sandwich_holds(int(prefix, 2), depth):
            bad = f"{kind} sandwich fails at depth {depth}"
        return bad

    def corrupt(result):
        return result[0], flip_bit(result[1], 0), result[2]

    call = Call("extend", "reals", depth, run, check, corrupt)
    return call


PER_KIND = 10
EXTEND_STEPS = 3


def _streams_plan(draw):
    units = []
    for kind, (lo, hi) in STREAM_RANGES.items():
        for depth in draw.sizes(kind, lo, hi, PER_KIND):
            units.append((kind, (kind, _stream_params(draw.rng(kind), kind), depth)))
    for key, (kind, (lo, hi)) in enumerate(STREAM_RANGES.items()):
        group = "extend-" + kind
        depths = draw.sizes(group, lo, hi // 2, EXTEND_STEPS)
        params = _stream_params(draw.rng(group), kind)
        units += [("extend", (kind, params, depth, key)) for depth in depths]
    return units


def _streams_warmup(rng):
    units = [(kind, (kind, _stream_params(rng, kind), lo // 2))
             for kind, (lo, hi) in STREAM_RANGES.items()]
    units.append(("extend", ("sqrt", (2, 1), 8, -1)))
    units.append(("extend", ("sqrt", (2, 1), 16, -1)))
    return units


def _streams_call(api, lib, group, params, shared):
    if group == "extend":
        kind, stream_params, depth, key = params
        if key not in shared:
            shared[key] = _make_stream(lib, kind, stream_params)
        return _extend_call(kind, stream_params, depth, shared[key])
    kind, stream_params, depth = params
    return _approx_call(api, group, kind, stream_params, depth)


# ---------------------------------------------------------------------------
# series: exact partial sums, deep log2 and decimal rendering


SERIES_RANGES = {
    "e_enclosure": (16, 2400),
    "harmonic_partial": (64, 36000),
    "geometric_partial": (64, 36000),
}
PER_FN = 6
PER_DECIMAL = 9


def _series_plan(draw):
    units = []
    for fn, (lo, hi) in SERIES_RANGES.items():
        units += [(fn, n) for n in draw.sizes(fn, lo, hi, PER_FN)]
    # block k sums 2**(k-1) terms, so k itself is the log size; the small
    # domain cannot move with the round, so these run in round 0 only
    units += [("oresme_block", k) for k in range(18 - PER_FN, 18)]
    units += [("liouville_partial", m) for m in range(2, 8)]
    rng = draw.rng("log2_deep")
    for p in draw.sizes("log2_deep", 64, 3800, PER_FN):
        units.append(("log2_deep", (_non_power_of_two(rng, 3, 1 << 20), p)))
    # decimals of fixed values, so their cost follows the digit count
    for i, digits in enumerate(draw.sizes("decimal", 16, 4000, PER_DECIMAL)):
        units.append(("decimal", (("e", "harmonic")[i % 2], 600, digits)))
    units += [("pinned", (1500, digits))
              for digits in draw.sizes("pinned", 16, 4000, PER_DECIMAL)]
    return units


def _series_warmup(rng):
    return [("e_enclosure", 8), ("harmonic_partial", 32), ("geometric_partial", 32),
            ("oresme_block", 3), ("liouville_partial", 1), ("log2_deep", (5, 40)),
            ("decimal", ("e", 20, 8)), ("pinned", (20, 8))]


def _series_call(api, lib, group, params, shared):
    if group == "e_enclosure":
        n = params

        def run():
            return api.e_enclosure(n)

        def check(enc):
            lo, hi = enc.interval.lo, enc.interval.hi
            call.counts = {"result_bits": _bits(lo) + _bits(hi)}
            if enc.n != n or lo != e_partial(n) or hi - lo != Fraction(1, n * factorial(n)):
                return f"e_enclosure({n}) differs from the Horner partial sum"
            prec = (n * factorial(n)).bit_length() + 2 * n.bit_length() + 64
            with mpmath.workprec(prec):
                e = +mpmath.e
                inside = (mpmath.mpf(lo.numerator) / lo.denominator < e
                          < mpmath.mpf(hi.numerator) / hi.denominator)
            return None if inside else f"e_enclosure({n}) does not enclose e"

        def corrupt(enc):
            return SimpleNamespace(n=enc.n, interval=SimpleNamespace(
                lo=flip_fraction(enc.interval.lo), hi=enc.interval.hi))

        call = Call(group, "series", n, run, check, corrupt)
        return call
    if group == "harmonic_partial":
        n = params

        def run():
            return api.harmonic_partial(n)

        def check(value):
            call.counts = {"result_bits": _bits(value)}
            if not reciprocal_sum_matches(value, 1, n):
                return f"H_{n} differs from the residue sum"
            with mpmath.workprec(256):
                ref = mpmath.harmonic(n)
            return None if mp_close(value, ref, 192) else f"H_{n} differs from mpmath"

        call = Call(group, "series", n, run, check, flip_fraction)
        return call
    if group == "oresme_block":
        k = params

        def run():
            return api.oresme_block(k)

        def check(block):
            call.counts = {"result_bits": _bits(block.total)}
            first, last = (1 << (k - 1)) + 1, 1 << k
            if (block.k, block.first, block.last, block.terms) != (k, first, last, last - first + 1):
                return f"oresme block {k} has the wrong range"
            if not reciprocal_sum_matches(block.total, first, last) or not block.at_least_half:
                return f"oresme block {k} differs from the residue sum"
            with mpmath.workprec(256):
                ref = mpmath.harmonic(last) - mpmath.harmonic(first - 1)
            return None if mp_close(block.total, ref, 192) else f"oresme block {k} differs from mpmath"

        def corrupt(block):
            return dataclasses.replace(block, total=flip_fraction(block.total))

        call = Call(group, "series", 1 << (k - 1), run, check, corrupt)
        return call
    if group == "geometric_partial":
        n = params

        def run():
            return api.geometric_partial(n)

        def check(value):
            call.counts = {"result_bits": _bits(value)}
            return None if value == 1 - Fraction(1, 1 << n) else f"geometric({n}) is wrong"

        call = Call(group, "series", n, run, check, flip_fraction)
        return call
    if group == "liouville_partial":
        m = params

        def run():
            return api.liouville_partial(m)

        def check(part):
            call.counts = {"result_bits": _bits(part.value) + _bits(part.tail_bound)}
            places = tuple(factorial(v) for v in range(1, m + 1))
            top = factorial(m)
            value = Fraction(sum(10 ** (top - p) for p in places), 10 ** top)
            want = (m, value, places, Fraction(2, 10 ** factorial(m + 1)))
            got = (part.m, part.value, part.one_places, part.tail_bound)
            return None if got == want else f"liouville_partial({m}) is wrong"

        def corrupt(part):
            return dataclasses.replace(part, value=flip_fraction(part.value))

        call = Call(group, "series", m, run, check, corrupt)
        return call
    if group == "log2_deep":
        n, p = params
        return _log2_call(api, group, n, p)
    if group == "decimal":
        source, n, digits = params
        value = e_partial(n) if source == "e" else reciprocal_sum(1, n)

        def run():
            return api.decimal_string(value, digits)

        def check(text):
            return None if text == decimal_text(value, digits) else "decimal_string differs"

        return Call(group, "exactnum", digits, run, check, lambda t: flip_digit(t))
    if group == "pinned":
        n, digits = params
        lo = e_partial(n)
        interval = lib.RationalInterval(lo, lo + Fraction(1, n * factorial(n)))

        def run():
            return api.pinned_decimals(interval, digits)

        def check(text):
            want = pinned_text(interval.lo, interval.hi, digits)
            return None if text == want else "pinned_decimals differs"

        return Call(group, "exactnum", digits, run, check,
                    lambda t: "" if t is None else flip_digit(t))
    raise ValueError(group)


def flip_digit(text: str) -> str:
    at = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _non_power_of_two(rng, lo, hi):
    while True:
        n = rng.randint(lo, hi)
        if n & (n - 1):
            return n


def _log2_call(api, group, n, p):
    def run():
        return api.log2_interval(n, p)

    def check(iv):
        width = Fraction(1, 1 << p)
        if iv.hi - iv.lo != width or (iv.lo * (1 << p)).denominator != 1:
            return f"log2_interval({n}, {p}) is not a dyadic cell of width 2^-{p}"
        with mpmath.workprec(p + n.bit_length() + 64):
            ref = mpmath.log(n, 2)
            inside = (mpmath.mpf(iv.lo.numerator) / iv.lo.denominator < ref
                      < mpmath.mpf(iv.hi.numerator) / iv.hi.denominator)
        return None if inside else f"log2_interval({n}, {p}) misses log2({n})"

    def corrupt(iv):
        return SimpleNamespace(lo=iv.lo + Fraction(1, 1 << p), hi=iv.hi + Fraction(1, 1 << p))

    return Call(group, "exactnum", p, run, check, corrupt)


# ---------------------------------------------------------------------------
# combinatorics: many small-to-mid calls across the discrete layers


def _dense_family(k):
    return itertools.count(k << 32)


def _sparse_family(live):
    def family(k):
        return itertools.count(k << 32) if k in live else iter(())
    return family


def _first_codes(rows, total):
    """The `total` smallest pairing codes of (row, position) over `rows`,
    by merging each row's increasing codes (no library code involved)."""
    def codes(i):
        for j in itertools.count():
            s = i + j
            yield s * (s + 1) // 2 + j, i, j
    return list(itertools.islice(heapq.merge(*(codes(i) for i in sorted(rows))), total))


def _analytic_diagonal(stage):
    # entry 1 is "1", entry 2 is "01"; entry i >= 3 is shorter than i
    return ("00" + "1" * (stage - 2))[:stage]


def _analytic_records(lib, stage):
    return tuple(lib.MismatchRecord(i, i, 1 if i <= 2 else 0, 0 if i <= 2 else 1)
                 for i in range(1, stage + 1))


def _certificate_text(stage):
    lines = [f"N={stage} pad=zero"]
    lines += [f"{i} {i} {1 if i <= 2 else 0} {0 if i <= 2 else 1}" for i in range(1, stage + 1)]
    return "\n".join(lines) + "\n"


def _swap_records(lib, cert):
    records = list(cert.records)
    records[0], records[-1] = records[-1], records[0]
    return lib.DiagonalCertificate(cert.stage, tuple(records))


# The 1-100 ms groups have 24 calls each: the round's 90th percentile lies
# among them, and with 12 each it moved by 12% from seed to seed.
COMBINATORICS_COUNTS = {
    "index_map": 80, "locate": 60, "entries": 24, "certify": 24, "verify": 24,
    "cert_text": 24, "union_dense": 24, "union_sparse": 24, "even_set": 30,
    "induction": 4, "pair": 60, "table2": 16, "magnitude_cmp": 30,
    "shallow": 80, "log2_shallow": 40,
}
TOWER_BASES = (2, 3, 5, 6, 7, 10, 11, 12, 13)


def _combinatorics_plan(draw):
    c, units = COMBINATORICS_COUNTS, []

    def sized(group, lo, hi):
        return draw.rng(group), draw.sizes(group, lo, hi, c[group])

    rng, sizes = sized("index_map", 8, 4096)
    units += [("index_map", _odd_top(rng, bits)) for bits in sizes]
    rng, sizes = sized("locate", 8, 4096)
    units += [("locate", _odd_top(rng, bits)) for bits in sizes]
    units += [("entries", n) for n in sized("entries", 16, 4096)[1]]
    for group in ("certify", "verify", "cert_text"):
        units += [(group, n) for n in sized(group, 16, 40000)[1]]
    units += [("union_dense", n) for n in sized("union_dense", 64, 30000)[1]]
    rng, sizes = sized("union_sparse", 16, 950)
    for i, n in enumerate(sizes):
        # half the calls have one live row, which walks the most dead codes
        live = rng.sample(range(21), 1 if i % 2 == 0 else rng.randint(2, 3))
        units.append(("union_sparse", (frozenset(live), n)))
    rng, sizes = sized("even_set", 4, 4000)
    units += [("even_set", tuple(rng.sample(range(2, 8 * m + 2, 2), m))) for m in sizes]
    rng = draw.rng("induction")
    units += [("induction", 6 + int((i + rng.random()) * 10 / c["induction"]))
              for i in range(c["induction"])]
    rng, sizes = sized("pair", 8, 4096)
    units += [("pair", (rng.getrandbits(bits), rng.getrandbits(rng.randint(1, bits))))
              for bits in sizes]
    sizes = sized("table2", 19, 20000)[1]
    # kinds and styles that cost differently go round-robin over the sorted
    # sizes, so which size meets which kind does not depend on the seed
    units += [("table2", (i % 9 + 1, budget)) for i, budget in enumerate(sorted(sizes))]
    rng, sizes = sized("magnitude_cmp", 64, 20000)
    units += [("magnitude_cmp", _tower_pair(rng, bits, i % 3))
              for i, bits in enumerate(sorted(sizes))]
    rng, sizes = sized("shallow", 4, 64)
    for i, depth in enumerate(sorted(sizes)):
        kind = STREAM_KINDS[i % 4]
        units.append(("shallow", (kind, _stream_params(rng, kind), depth)))
    rng = draw.rng("log2_shallow")
    for _ in range(c["log2_shallow"]):
        n = _non_power_of_two(rng, 3, 1 << 64) + draw.shift
        units.append(("log2_shallow", (n + (n & (n - 1) == 0), 32)))
    return units


def _tower_pair(rng, bits, style):
    b1, b2 = rng.sample(TOWER_BASES, 2)
    e1 = max(2, round(bits / math.log2(b1)))
    if style == 0:  # distinct bases, values within a factor of a few
        e2 = max(2, round(e1 * math.log(b1) / math.log(b2)) + rng.choice((-1, 0, 1)))
        return (("tower", b1, e1), ("tower", b2, e2))
    if style == 1:  # powers of one primitive base
        return (("tower", 4, e1), ("tower", 8, max(2, (2 * e1) // 3 + rng.choice((-1, 0, 1)))))
    return (("tower", b1, e1), ("exact", b2 ** max(2, round(bits / math.log2(b2)))))


def _combinatorics_warmup(rng):
    return [("index_map", 5), ("locate", 5), ("entries", 4), ("certify", 4),
            ("verify", 4), ("cert_text", 4), ("union_dense", 8),
            ("union_sparse", (frozenset({1}), 4)), ("even_set", (2, 4)),
            ("induction", 3), ("pair", (3, 4)), ("table2", (2, 5)),
            ("magnitude_cmp", (("tower", 2, 40), ("tower", 3, 25))),
            ("shallow", ("sqrt", (2, 1), 2)), ("log2_shallow", (3, 16))]


def _combinatorics_call(api, lib, group, params, shared):
    if group == "index_map":
        n = params

        def run():
            bits = api.index_to_string(n)
            return bits, api.string_to_index(bits)

        def check(result):
            ok = result == (lib.index_to_string_recursive(n), n)
            return None if ok else f"index map of {n} disagrees with the recursion"

        return Call(group, "enumeration", n.bit_length(), run, check,
                    lambda r: (r[0], r[1] + 1))
    if group == "locate":
        n = params
        bits = format(n, "b")[::-1]
        value = lib.DyadicRational(int(bits, 2), len(bits))

        def run():
            return api.locate_value(value)

        return Call(group, "enumeration", n.bit_length(), run,
                    lambda got: None if got == n else f"locate_value gave {got}, not {n}",
                    lambda got: got + 1)
    if group == "entries":
        count = params

        def run():
            return list(api.entries(count))

        def check(rows):
            if len(rows) != count:
                return f"entries({count}) gave {len(rows)} rows"
            for i, entry in enumerate(rows, 1):
                bits = lib.index_to_string_recursive(i)
                if (entry.index != i or entry.bits != bits
                        or str(entry.value) != dyadic_text(int(bits, 2), len(bits))):
                    return f"entry {i} disagrees with the recursion"
            return None

        def corrupt(rows):
            return rows[:-1] + [rows[-1]._replace(index=rows[-1].index + 1)]

        return Call(group, "enumeration", count, run, check, corrupt)
    if group == "certify":
        stage = params

        def run():
            return api.certify_absence(api.all_strings, stage)

        def check(cert):
            if cert.stage != stage or cert.diagonal != _analytic_diagonal(stage):
                return f"stage-{stage} diagonal differs from 00 1...1"
            if cert.records != _analytic_records(lib, stage):
                return f"stage-{stage} records differ"
            if cert.occurs_in_prefix is not False or cert.ends_in_one != (stage >= 3):
                return f"stage-{stage} flags are wrong"
            ok = lib.verify_certificate(cert, lib.all_strings)
            return None if ok else f"stage-{stage} certificate fails verification"

        return Call(group, "diagonal", stage, run, check, lambda cert: _swap_records(lib, cert))
    if group == "verify":
        stage = params
        cert = lib.DiagonalCertificate(stage, _analytic_records(lib, stage))

        def run():
            return api.verify_certificate(cert, api.all_strings)

        return Call(group, "diagonal", stage, run,
                    lambda ok: None if ok is True else f"stage-{stage} certificate rejected",
                    lambda ok: not ok)
    if group == "cert_text":
        stage = params
        cert = lib.DiagonalCertificate(stage, _analytic_records(lib, stage))

        def run():
            text = api.certificate_to_text(cert)
            return text, api.certificate_from_text(text)

        def check(result):
            text, back = result
            if text != _certificate_text(stage):
                return f"stage-{stage} certificate text differs"
            return None if back == cert else f"stage-{stage} text does not round-trip"

        def corrupt(result):
            lines = result[0].splitlines(keepends=True)
            lines[1], lines[-1] = lines[-1], lines[1]
            return "".join(lines), result[1]

        return Call(group, "diagonal", stage, run, check, corrupt)
    if group in ("union_dense", "union_sparse"):
        if group == "union_dense":
            total, family = params, _dense_family
            rows = None
        else:
            rows, total = params
            family = _sparse_family(rows)

        def run():
            return api.union_enumerate(family, total)

        def check(items):
            if rows is None:
                want = [(i, j) for i, j in map(_unpair, range(total))]
            else:
                want = [(i, j) for _, i, j in _first_codes(rows, total)]
            got = [(item.row, item.position) for item in items]
            if got != want:
                return f"{group} of {total} items is out of pairing-code order"
            if any(item.element != (item.row << 32) + item.position for item in items):
                return f"{group} of {total} items has a wrong element"
            last = items[-1]
            code = lib.cantor_pair(last.row, last.position)
            if lib.cantor_unpair(code) != (last.row, last.position):
                return f"{group} last code does not unpair"
            call.counts = {"union_codes": code + 1, "union_items": total}
            return None

        def corrupt(items):
            return items[:-1] + [items[-1]._replace(position=items[-1].position + 1)]

        call = Call(group, "finitist", total, run, check, corrupt)
        return call
    if group == "even_set":
        elements = params

        def run():
            return api.check_even_set(elements)

        def check(report):
            m = len(elements)
            witnesses = tuple(sorted(e for e in elements if e > m))
            want = (tuple(sorted(elements)), m, witnesses, len(witnesses), (m + 1) // 2, True)
            got = (report.elements, report.cardinality, report.witnesses,
                   report.witness_count, report.required, report.holds)
            return None if got == want else f"even set of {m} miscounted"

        def corrupt(report):
            return dataclasses.replace(report, witness_count=report.witness_count + 1)

        return Call(group, "finitist", len(elements), run, check, corrupt)
    if group == "induction":
        m = params

        def run():
            return api.induction_trace(m)

        def check(trace):
            levels = tuple((k, comb(m, k), 0) for k in range(1, m + 1))
            got = tuple(tuple(level) for level in trace.levels)
            ok = (got == levels and trace.total_checked == (1 << m) - 1 and trace.all_hold
                  and trace.universe == tuple(range(2, 2 * m + 1, 2)))
            return None if ok else f"induction trace {m} is wrong"

        def corrupt(trace):
            return dataclasses.replace(trace, total_checked=trace.total_checked + 1)

        return Call(group, "finitist", 1 << m, run, check, corrupt)
    if group == "pair":
        i, j = params

        def run():
            code = api.cantor_pair(i, j)
            return code, api.cantor_unpair(code)

        def check(result):
            s = i + j
            ok = result == (s * (s + 1) // 2 + j, (i, j))
            return None if ok else f"pairing of ({i}, {j}) is wrong"

        return Call(group, "finitist", max(i, j, 1).bit_length(), run, check,
                    lambda r: (r[0] + 1, r[1]))
    if group == "table2":
        n, budget = params

        def run():
            return api.table2_row(n, budget)

        return Call(group, "finitist", budget, run,
                    lambda row: _check_table2(lib, row, n, budget),
                    lambda row: dataclasses.replace(row, n_value=lib.Exact(n + 1)))
    if group == "magnitude_cmp":
        a, b = (_magnitude(lib, spec) for spec in params)
        va, vb = (_magnitude_value(spec) for spec in params)

        def run():
            return api.magnitude_cmp(a, b, 30)

        def check(sign):
            want = (va > vb) - (va < vb)
            return None if sign == want else f"magnitude_cmp {params} gave {sign}"

        return Call(group, "exactnum", max(va, vb).bit_length(), run, check,
                    lambda sign: -sign if sign else 1)
    if group == "shallow":
        kind, stream_params, depth = params
        return _approx_call(api, group, kind, stream_params, depth)
    if group == "log2_shallow":
        n, p = params
        return _log2_call(api, group, n, p)
    raise ValueError(group)


def _odd_top(rng, bits):
    """A random index of exactly `bits` bits."""
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def _unpair(code):
    w = (math.isqrt(8 * code + 1) - 1) // 2
    j = code - w * (w + 1) // 2
    return w - j, j


def _magnitude(lib, spec):
    if spec[0] == "exact":
        return lib.Exact(spec[1])
    return lib.Tower(spec[1], lib.Exact(spec[2]))


def _magnitude_value(spec):
    return spec[1] if spec[0] == "exact" else spec[1] ** spec[2]


def _power_cell(lib, base, exponent: int, limit: int):
    """Canonical form of base**exponent under a digit limit, from exact ints."""
    if exponent.bit_length() <= 24 and (base.bit_length() - 1) * exponent <= limit.bit_length():
        value = base ** exponent
        if value < limit:
            return lib.Exact(value)
    return lib.Tower(base, lib.Exact(exponent))


def _check_table2(lib, row, n, budget):
    limit = 10 ** budget
    f = factorial(n)
    two_pow_fact = _power_cell(lib, 2, f, limit)
    if isinstance(two_pow_fact, lib.Exact):
        tower = _power_cell(lib, 2, two_pow_fact.value, limit)
    else:
        tower = lib.Tower(2, two_pow_fact)
    want = (n, lib.Reciprocal(two_pow_fact), Fraction(1, f), lib.Exact(n),
            _power_cell(lib, 2, n, limit), lib.Exact(f), two_pow_fact, tower)
    got = (row.n, row.recip_two_pow_fact, row.recip_fact, row.n_value, row.two_pow,
           row.fact, row.two_pow_fact, row.tower)
    if got != want:
        return f"table 2 row {n} at budget {budget} differs"
    iv = row.log2_n
    if n & (n - 1) == 0:
        return None if iv.lo == iv.hi == n.bit_length() - 1 else f"log2({n}) is not exact"
    with mpmath.workprec(128):
        ref = mpmath.log(n, 2)
        inside = (mpmath.mpf(iv.lo.numerator) / iv.lo.denominator < ref
                  < mpmath.mpf(iv.hi.numerator) / iv.hi.denominator)
    ok = inside and iv.hi - iv.lo == Fraction(1, 1 << 32)
    return None if ok else f"log2({n}) enclosure is wrong"


CALL_BUILDERS = {
    **dict.fromkeys((*STREAM_KINDS, "extend"), _streams_call),
    **dict.fromkeys((*SERIES_RANGES, "oresme_block", "liouville_partial", "log2_deep",
                     "decimal", "pinned"), _series_call),
    **dict.fromkeys(COMBINATORICS_COUNTS, _combinatorics_call),
}


class Library(Workload):
    """The streams, series and combinatorics calls, shuffled into one round."""

    name = "library"
    ONCE = frozenset({"oresme_block", "liouville_partial", "induction"})
    ROUND_S = 9.0
    REFERENCE_S = KERNEL_S

    def _plan(self, draw):
        return _streams_plan(draw) + _series_plan(draw) + _combinatorics_plan(draw)

    def _warmup_plan(self, rng):
        return _streams_warmup(rng) + _series_warmup(rng) + _combinatorics_warmup(rng)

    def _call(self, group, params, shared):
        return CALL_BUILDERS[group](self.api, self.lib, group, params, shared)

    def calibrate(self):
        return statistics.median(timed(cpu_kernel) for _ in range(3))
