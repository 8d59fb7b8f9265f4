"""Shared pieces of the benchmark: the call record, seeded size draws and
the oracles that several workloads use.

Oracles take a route of their own to each answer: stream prefixes from
closed integer formulas or from mpmath with at least 64 guard bits, index
maps from `index_to_string_recursive`, rationals from exact integer
recursions written here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial, gcd, isqrt
from time import perf_counter

import mpmath

GUARD_BITS = 64


class Call:
    """One timed call: `run()` is timed, `check(result)` is not.

    `check` returns None when the result is right and a short reason
    otherwise.  `corrupt(result)` returns a damaged copy of a right
    result; the self-check feeds it to `check` and expects a failure.
    """

    __slots__ = ("group", "layer", "size", "run", "check", "corrupt", "span",
                 "key", "result", "error", "seconds", "counts")

    def __init__(self, group, layer, size, run, check, corrupt=None, span=None):
        self.group = group
        self.layer = layer
        self.size = size
        self.run = run
        self.check = check
        self.corrupt = corrupt
        self.span = span  # extra span name the traced runner opens (cli calls)
        self.key = None  # the call's place in its round, the same in every round
        self.result = None
        self.error = None
        self.seconds = 0.0
        self.counts = None  # per-call work counts filled in by `check`


# nominal seconds of the two reference tasks on the reference host
# (Python 3.11.7, 2 vCPUs, a calm phase): the median `cpu_kernel` run and
# the median bare interpreter start, `python -c pass`
KERNEL_S = 0.0053
BARE_START_S = 0.050


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


_BIG_A = 7 ** 5000
_BIG_B = 11 ** 4000 + 12345


def cpu_kernel():
    """A fixed piece of pure-Python work, about 5 ms, that never touches the
    package: big-integer square roots, a Horner sum, Fraction additions, a
    small-integer loop, string work, and a few gcds and products of
    10 000-bit numbers.  It mixes the kinds of work the library calls do,
    so a slow phase of a shared host slows it about as much as them; the
    runner measures the library's calls against it."""
    a = 0
    for d in range(200, 1400, 100):
        a ^= isqrt(2 << (2 * d))
    s = 1
    for v in range(1, 500):
        s = s * v + 1
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i)
    t = 0
    for i in range(3000):
        w = i + (i >> 3)
        t += w * (w + 1) // 2 + (i & 7)
    text = "".join(format(i, "b")[::-1] for i in range(1, 800))
    for i in range(1, 4):
        a ^= gcd(_BIG_A * i + 1, _BIG_B) ^ (_BIG_A * (_BIG_B + i) // (_BIG_B - i))
    return a, s, f, t, len(text)


def log_uniform(rng, lo, hi, n, used):
    """n integers spread log-uniformly over [lo, hi], in shuffled order.

    The log range is cut into n equal slices and one value is drawn
    log-uniformly from the middle tenth of each slice.  Stratifying keeps a
    round's total work, median and tail close from seed to seed.  A round's
    tail is sparse, a few calls per factor of two in time, so its 90th
    percentile moves with the sizes of single calls: draws over whole
    slices moved it by about 15% between seeds, draws over the middle half
    by 10-15%.  The top slice's value is its centre for every seed: a
    group's largest call sets much of a round's time and most of its peak
    memory.

    Values already in the set `used` are redrawn a few times so inputs stay
    distinct where the range allows; drawn values are added to it.
    """
    span = math.log(hi / lo)
    out = []
    for i in range(n):
        for _ in range(8):
            at = 0.5 if i == n - 1 else 0.45 + rng.random() / 10
            value = min(hi, max(lo, round(lo * math.exp((i + at) / n * span))))
            if value not in used:
                break
        used.add(value)
        out.append(value)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# index map


def index_of_dyadic(m: int, k: int) -> int:
    """Enumeration index of m / 2**k in (0, 1): its bits reversed."""
    while m % 2 == 0:
        m //= 2
        k -= 1
    return int(format(m, f"0{k}b")[::-1], 2)


def dyadic_text(m: int, k: int) -> str:
    while m % 2 == 0 and k:
        m //= 2
        k -= 1
    return f"{m}/{1 << k}" if k else str(m)


# ---------------------------------------------------------------------------
# stream prefixes


def tau_value(prec: int):
    """The sum of 10**-(v!) to `prec` bits, summed in mpmath."""
    with mpmath.workprec(prec):
        total = mpmath.mpf(0)
        v = 1
        # stop once 10**-(v!) is below 2**-prec
        while factorial(v) * 3.3 < prec + 8:
            total += mpmath.power(10, -factorial(v))
            v += 1
        total += mpmath.power(10, -factorial(v))
        return total


def stream_scaled(kind: str, params, depth: int) -> int:
    """floor(x * 2**depth) for the fractional part x of a stream's value."""
    if kind == "rational":
        p, q = params
        return (p << depth) // q
    if kind == "sqrt":
        a, b = params
        return isqrt((a << (2 * depth)) // b) - (isqrt(a // b) << depth)
    prec = depth + GUARD_BITS
    with mpmath.workprec(prec):
        if kind == "euler":
            x = +mpmath.e - 2
        elif kind == "liouville":
            x = tau_value(prec)
        else:
            raise ValueError(kind)
        return int(mpmath.floor(mpmath.ldexp(x, depth)))


def check_prefix(kind, params, depth, prefix: str):
    want = stream_scaled(kind, params, depth)
    if prefix != format(want, f"0{depth}b"):
        return f"{kind} prefix at depth {depth} differs from the oracle"
    return None


def check_report(kind, params, depth, report):
    """Re-derive an `approximate` report from oracle prefixes alone."""
    bad = check_prefix(kind, params, depth, report.prefix)
    if bad:
        return bad
    scaled = int(report.prefix, 2)
    top = 1 << depth
    dyadic = None
    if kind == "rational":
        p, q = params
        if q & (q - 1) == 0:
            dyadic = (p, q.bit_length() - 1)
    if dyadic is not None:
        want = ("exact-member", index_of_dyadic(*dyadic), Fraction(0))
        got = (report.verdict, report.member_index, report.error_bound)
        best = dyadic
    else:
        if scaled == 0:
            best, bound = (1, depth), Fraction(1, top)
        elif scaled == top - 1:
            best, bound = (scaled, depth), Fraction(1, top)
        else:
            lower_half = stream_scaled(kind, params, depth + 1) == 2 * scaled
            best = (scaled if lower_half else scaled + 1, depth)
            bound = Fraction(1, 2 * top)
        want = ("no-finite-index", None, bound)
        got = (report.verdict, report.member_index, report.error_bound)
    if got != want:
        return f"{kind} verdict {got} != {want}"
    index = index_of_dyadic(*best)
    m, k = best
    while m % 2 == 0:
        m //= 2
        k -= 1
    if report.best_index != index or report.best_bits != format(m, f"0{k}b"):
        return f"{kind} best entry {report.best_index} != {index}"
    if (report.best_value.numerator, report.best_value.exponent) != (m, k):
        return f"{kind} best value is not {m}/2^{k}"
    return None


def flip_bit(text: str, at: int = -1) -> str:
    """A bit string with one bit flipped."""
    at %= len(text)
    return text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1:]


def flip_fraction(value: Fraction) -> Fraction:
    """A Fraction whose numerator has its lowest bit flipped."""
    return Fraction(value.numerator ^ 1, value.denominator)


# ---------------------------------------------------------------------------
# exact series and decimals


def e_partial(n: int) -> Fraction:
    """sum of 1/v! for v = 0..n by Horner's rule on n!/v!."""
    s = 1
    for v in range(1, n + 1):
        s = s * v + 1
    return Fraction(s, factorial(n))


# primes above every harmonic term the benchmark sums
RESIDUE_PRIMES = ((1 << 61) - 1, (1 << 31) - 1)


def reciprocal_sum_matches(value: Fraction, lo: int, hi: int) -> bool:
    """Is `value` the sum of 1/i for lo <= i <= hi?  Compared modulo two
    primes above hi, where every 1/i is an exact residue; a wrong value
    passes with probability about 2**-90."""
    for p in RESIDUE_PRIMES:
        want = sum(pow(i, -1, p) for i in range(lo, hi + 1)) % p
        if value.numerator * pow(value.denominator, -1, p) % p != want:
            return False
    return True


def reciprocal_sum(lo: int, hi: int) -> Fraction:
    """sum of 1/i for lo <= i <= hi over the common denominator lcm(lo..hi)."""
    den = math.lcm(*range(lo, hi + 1))
    return Fraction(sum(den // i for i in range(lo, hi + 1)), den)


def decimal_text(value: Fraction, digits: int) -> str:
    """Truncated decimal expansion; `...` marks a nonzero remainder."""
    scaled, rem = divmod(value.numerator * 10 ** digits, value.denominator)
    whole, frac = divmod(scaled, 10 ** digits)
    body = f"{whole}.{str(frac).rjust(digits, '0')}" if digits else str(whole)
    return body + ("..." if rem else "")


def pinned_text(lo: Fraction, hi: Fraction, digits: int):
    a = lo.numerator * 10 ** digits // lo.denominator
    b = hi.numerator * 10 ** digits // hi.denominator
    if a != b:
        return None
    whole, frac = divmod(a, 10 ** digits)
    return f"{whole}.{str(frac).rjust(digits, '0')}" if digits else str(whole)


def mp_close(value: Fraction, reference, bits: int) -> bool:
    """Does `value` agree with an mpmath reference to `bits` bits?"""
    with mpmath.workprec(bits + GUARD_BITS):
        got = mpmath.mpf(value.numerator) / value.denominator
        return abs(got - reference) <= abs(reference) * mpmath.ldexp(1, -bits)
