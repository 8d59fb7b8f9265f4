"""The cli workload: real `python -m enumerant.cli ...` processes.

Every call is a fresh interpreter started from the checkout's `src/`,
run one after another.  Expected stdout is rebuilt byte for byte from
independent computations (or, for `approx` and table 2, from the library
call the command reports, itself checked), rendered in the requested
`--format`; README examples are also compared with the README text.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import comb, factorial

from common import (
    BARE_START_S,
    Call,
    check_report,
    decimal_text,
    dyadic_text,
    e_partial,
    index_of_dyadic,
    pinned_text,
    reciprocal_sum,
    timed,
)
from inproc import Workload, _certificate_text

COMMANDS = ("enum", "locate", "approx", "diag", "harmonic", "series", "theorem", "pair", "table")
FORMATS = ("plain", "csv", "json-lines")
CERT_STAGES = range(2, 13)

# README examples, verbatim
README = (
    (("enum", "--count", "3"), "1 1 1/2\n2 01 1/4\n3 11 3/4\n"),
    (("locate", "--value", "3/8"), "6\n"),
    (("diag", "--count", "4"), "N=4 pad=zero\n1 1 1 0\n2 2 1 0\n3 3 0 1\n4 4 0 1\n"),
    (("diag", "--verify", "@4"), "4 true\n"),
    (("harmonic", "--blocks", "3"),
     "1 2 2 1 1/2 3/2 true true\n2 3 4 2 7/12 25/12 true true\n"
     "3 5 8 4 533/840 761/280 true true\n"),
    (("series", "--name", "e", "--terms", "12", "--digits", "9"),
     "terms=12\nlo=260412269/95800320\nhi=2232105163/821145600\n"
     "lo_decimal=2.718281828...\nhi_decimal=2.718281828...\npinned=2.718281828\n"),
    (("theorem", "--set", "2,4,6"),
     "elements=2,4,6\ncardinality=3\nwitnesses=4,6\nwitness_count=2\nrequired=2\nholds=true\n"),
    (("pair", "--i", "1", "--j", "2"), "8\n"),
    (("table", "--id", "2", "--rows", "3"),
     "1/2 1 0 1 2 1 2 4\n1/4 1/2 1 2 4 2 4 16\n"
     "1/64 1/6 [6807362105/4294967296, 3403681053/2147483648] 3 8 6 64 2^(64)\n"),
)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def render(fields, rows, fmt, report=False) -> str:
    """The CLI's three output shapes, written independently of cli.py."""
    if fmt == "plain":
        if report:
            return "".join(f"{f}={_text(rows[0][f])}\n" for f in fields)
        return "".join(" ".join(_text(row[f]) for f in fields) + "\n" for row in rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_text(row[f]) for f in fields])
        return buf.getvalue()
    return "".join(json.dumps({f: row[f] for f in fields}) + "\n" for row in rows)


TABLE2_FIELDS = ("recip_two_pow_fact", "recip_fact", "log2_n", "n", "two_pow", "fact",
                 "two_pow_fact", "tower")


class Cli(Workload):
    name = "cli"
    ROUND_S = 14.0
    REFERENCE_S = BARE_START_S

    def __init__(self, seed, api, lib, root, out_dir, env):
        super().__init__(seed, api, lib)
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.peak_rss_kb = 0

    def setup(self):
        """Write the certificates that `diag --verify` reads."""
        (self.out_dir / "certs").mkdir(parents=True, exist_ok=True)
        for stage in CERT_STAGES:
            cert = self.lib.certify_absence(self.lib.all_strings, stage)
            self._cert_path(stage).write_text(self.lib.certificate_to_text(cert), encoding="ascii")

    def calibrate(self):
        """A bare interpreter start: it drifts with the host as the
        commands' own start-up does, which is most of each call."""
        return timed(lambda: subprocess.run([sys.executable, "-c", "pass"], env=self.env,
                                            cwd=self.root, stdin=subprocess.DEVNULL, check=True))

    def _cert_path(self, stage):
        return self.out_dir / "certs" / f"cert_{stage}.txt"

    # -- planning ---------------------------------------------------------

    def _plan(self, draw):
        # the same arguments every round: each call is a cold process, so
        # no cache inside the package can carry over from one to the next
        rng = draw.rng("cli")
        units = []
        for command in COMMANDS:
            units += [(command, (self._args(rng, command), fmt, None))
                      for fmt in FORMATS for _ in range(3)]
        units += [("diag", (("diag", "--verify", f"@{rng.choice(CERT_STAGES)}"), fmt, None))
                  for fmt in FORMATS for _ in range(2)]
        units += [(argv[0], (argv, "plain", text)) for argv, text in README]
        units += self._error_units(rng)
        return units

    def _warmup_plan(self, rng):
        return [("pair", (("pair", "--i", "0", "--j", "0"), "plain", None))]

    def _args(self, rng, command):
        r = rng.randint
        if command == "enum":
            return ("enum", "--count", str(r(0, 12)))
        if command == "locate":
            bits = format(r(1, 1 << 12), "b")[::-1]
            if rng.random() < 0.5:
                return ("locate", "--bits", bits)
            return ("locate", "--value", dyadic_text(int(bits, 2), len(bits)))
        if command == "approx":
            real = rng.choice(("sqrt2", "e", "tau", "rat"))
            if real == "rat":
                q = 1 << r(1, 6) if rng.random() < 0.5 else r(3, 64)
                real = f"rat:{r(1, q - 1)}/{q}"
            return ("approx", "--real", real, "--depth", str(r(4, 24)))
        if command == "diag":
            return ("diag", "--count", str(r(2, 12)))
        if command == "harmonic":
            return ("harmonic", "--blocks", str(r(1, 6)))
        if command == "series":
            name = rng.choice(("e", "tau", "geometric"))
            terms = {"e": r(5, 20), "tau": r(1, 5), "geometric": r(1, 20)}[name]
            return ("series", "--name", name, "--terms", str(terms), "--digits", str(r(3, 30)))
        if command == "theorem":
            if rng.random() < 0.5:
                elements = rng.sample(range(2, 32, 2), r(1, 6))
                return ("theorem", "--set", ",".join(map(str, elements)))
            return ("theorem", "--exhaustive", str(r(2, 8)))
        if command == "pair":
            if rng.random() < 0.5:
                return ("pair", "--i", str(r(0, 200)), "--j", str(r(0, 200)))
            return ("pair", "--unpair", str(r(0, 10 ** 5)))
        if rng.random() < 0.4:
            return ("table", "--id", "1", "--rows", str(r(1, 6)))
        argv = ("table", "--id", "2", "--rows", str(r(1, 4)))
        if rng.random() < 0.5:
            argv += ("--digit-budget", str(r(19, 40)))
        if rng.random() < 0.5:
            argv += ("--log2-bits", str(r(16, 64)))
        return argv

    def _error_units(self, rng):
        """Calls that must fail: (argv, exit code, last stderr line)."""
        r = rng.randint
        bits = format(r(1, 1 << 10), "b")[::-1]
        odd = r(1, 15) * 2 + 1
        evens = rng.sample(range(2, 32, 2), r(1, 4))
        q = r(1, 20) * 2 + 1
        p = r(1, q - 1)
        tau = r(8, 12)
        bad_bits = bits + "x1"
        count = r(1, 9)
        cases = (
            (("locate", "--bits", bits + "0" * r(1, 3)), 1,
             f"NotInImage equivalent={int(bits[::-1], 2)}"),
            (("series", "--name", "tau", "--terms", str(tau)), 1,
             f"BudgetExceeded requested={tau} cap=7"),
            (("theorem", "--set", ",".join(map(str, evens + [odd]))), 1,
             f"NotEvenPositiveDistinct offender={odd}"),
            (("locate", "--value", f"{p}/{q}"), 1,
             f"OutOfRange value={Fraction(p, q)} denominator={Fraction(p, q).denominator}"),
            (("locate", "--bits", bad_bits), 2, f"error: not a bit string: {bad_bits!r}"),
            (("enum", "--count", f"-{count}"), 2,
             "enumerant enum: error: argument --count: must be nonnegative"),
        )
        return [(argv[0], (argv, "plain", (code, line))) for argv, code, line in cases]

    # -- calls ------------------------------------------------------------

    def _call(self, group, params, shared):
        argv, fmt, expect = params
        argv = tuple(str(self._cert_path(int(a[1:]))) if a.startswith("@") else a for a in argv)
        if fmt != "plain":
            argv += ("--format", fmt)
        command = [sys.executable, "-m", "enumerant.cli", *argv]

        def run():
            return self._spawn(command)

        def check(result):
            code, out, err = result
            if isinstance(expect, tuple):  # an error call
                want_code, want_line = expect
                lines = err.decode().splitlines()
                if code != want_code or out or not lines or lines[-1] != want_line:
                    return f"{' '.join(argv)}: exit {code}, stderr {err[-200:]!r}"
                if want_code == 1 and len(lines) != 1:
                    return f"{' '.join(argv)}: {len(lines)} stderr lines"
                return None
            if code != 0 or err:
                return f"{' '.join(argv)}: exit {code}, stderr {err[-200:]!r}"
            if expect is not None and out != expect.encode():
                return f"{' '.join(argv)}: stdout differs from the README"
            want = self.expected(argv, fmt)
            return None if out == want.encode() else f"{' '.join(argv)}: stdout differs"

        def corrupt(result):
            code, out, err = result
            if not out:
                return code + 1, out, err
            return code, out[:-2] + bytes([out[-2] ^ 1]) + out[-1:], err

        return Call(group, "cli", 1, run, check, corrupt, span=f"cli.{group}")

    def _spawn(self, command):
        with tempfile.TemporaryFile(dir=self.out_dir) as out, \
                tempfile.TemporaryFile(dir=self.out_dir) as err:
            proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    # -- oracle -----------------------------------------------------------

    def expected(self, argv, fmt) -> str:
        """Expected stdout of a successful call, in format `fmt`."""
        lib = self.lib
        command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        if command == "enum":
            rows = []
            for i in range(1, int(opts["--count"]) + 1):
                bits = lib.index_to_string_recursive(i)
                rows.append({"index": i, "bits": bits,
                             "value": dyadic_text(int(bits, 2), len(bits))})
            return render(["index", "bits", "value"], rows, fmt)
        if command == "locate":
            if "--bits" in opts:
                index = int(opts["--bits"][::-1], 2)
            else:
                value = Fraction(opts["--value"])
                index = index_of_dyadic(value.numerator, value.denominator.bit_length() - 1)
            return render(["index"], [{"index": index}], fmt)
        if command == "approx":
            depth = int(opts["--depth"])
            real = opts["--real"]
            kind, params = {"sqrt2": ("sqrt", (2, 1)), "e": ("euler", None),
                            "tau": ("liouville", None)}.get(real, ("rational", None))
            if kind == "rational":
                value = Fraction(real[4:])
                params = (value.numerator, value.denominator)
            report = lib.approximate(lib.parse_real(real), depth)
            bad = check_report(kind, params, depth, report)
            if bad:
                return f"<oracle: {bad}>"
            fields = ["target", "depth", "prefix", "verdict", "member_index", "reason",
                      "best_index", "best_bits", "best_value", "error_bound"]
            row = {f: getattr(report, f) for f in fields}
            row["best_value"] = str(report.best_value)
            row["error_bound"] = str(report.error_bound)
            return render(fields, [row], fmt, report=True)
        if command == "diag" and "--verify" in opts:
            stage = int(opts["--verify"].rsplit("_", 1)[1].split(".")[0])
            return render(["stage", "valid"], [{"stage": stage, "valid": True}], fmt)
        if command == "diag":
            stage = int(opts["--count"])
            if fmt == "plain":
                return _certificate_text(stage)
            fields = ["index", "position", "entry_bit", "diagonal_bit"]
            rows = [dict(zip(fields, (i, i, 1 if i <= 2 else 0, 0 if i <= 2 else 1)))
                    for i in range(1, stage + 1)]
            if fmt == "csv":
                return render(fields, rows, fmt)
            diagonal = ("00" + "1" * (stage - 2))[:stage]
            head = {"stage": stage, "pad": "zero", "diagonal": diagonal,
                    "ends_in_one": diagonal.endswith("1"), "occurs_in_prefix": False}
            return json.dumps(head) + "\n" + render(fields, rows, fmt)
        if command == "harmonic":
            rows, cumulative = [], Fraction(1)
            for k in range(1, int(opts["--blocks"]) + 1):
                first, last = (1 << (k - 1)) + 1, 1 << k
                block = reciprocal_sum(first, last)
                cumulative += block
                rows.append({"k": k, "first": first, "last": last, "terms": last - first + 1,
                             "block": str(block), "cumulative": str(cumulative),
                             "at_least_half": block >= Fraction(1, 2),
                             "meets_bound": cumulative >= 1 + Fraction(k, 2)})
            return render(["k", "first", "last", "terms", "block", "cumulative",
                           "at_least_half", "meets_bound"], rows, fmt)
        if command == "series":
            terms, digits = int(opts["--terms"]), int(opts.get("--digits", 30))
            if opts["--name"] == "e":
                lo = e_partial(terms)
                hi = lo + Fraction(1, terms * factorial(terms))
                row = {"terms": terms, "lo": str(lo), "hi": str(hi),
                       "lo_decimal": decimal_text(lo, digits),
                       "hi_decimal": decimal_text(hi, digits),
                       "pinned": pinned_text(lo, hi, digits) or ""}
            elif opts["--name"] == "tau":
                places = [factorial(v) for v in range(1, terms + 1)]
                value = sum((Fraction(1, 10 ** p) for p in places), Fraction(0))
                row = {"terms": terms, "value": str(value),
                       "decimal": decimal_text(value, digits),
                       "one_places": ",".join(map(str, places)),
                       "tail_bound": f"2/10^{factorial(terms + 1)}"}
            else:
                row = {"terms": terms, "value": str(1 - Fraction(1, 1 << terms)),
                       "matches_closed_form": True}
            return render(list(row), [row], fmt, report=True)
        if command == "theorem":
            if "--set" in opts:
                elements = sorted(int(e) for e in opts["--set"].split(","))
                m = len(elements)
                witnesses = [e for e in elements if e > m]
                row = {"elements": ",".join(map(str, elements)), "cardinality": m,
                       "witnesses": ",".join(map(str, witnesses)),
                       "witness_count": len(witnesses), "required": (m + 1) // 2,
                       "holds": len(witnesses) >= (m + 1) // 2}
                return render(list(row), [row], fmt, report=True)
            m = int(opts["--exhaustive"])
            rows = [{"size": k, "checked": comb(m, k), "failures": 0} for k in range(1, m + 1)]
            rows.append({"size": "total", "checked": (1 << m) - 1, "failures": 0})
            return render(["size", "checked", "failures"], rows, fmt)
        if command == "pair":
            if "--unpair" in opts:
                n = int(opts["--unpair"])
                w = 0
                while (w + 1) * (w + 2) // 2 <= n:
                    w += 1
                j = n - w * (w + 1) // 2
                return render(["i", "j"], [{"i": w - j, "j": j}], fmt)
            i, j = int(opts["--i"]), int(opts["--j"])
            return render(["code"], [{"code": (i + j) * (i + j + 1) // 2 + j}], fmt)
        rows_n = range(1, int(opts["--rows"]) + 1)
        if opts["--id"] == "1":
            rows = [{"n": n, "double": 2 * n, "square": n * n,
                     "reciprocal": str(Fraction(1, n))} for n in rows_n]
            return render(["n", "double", "square", "reciprocal"], rows, fmt)
        budget = int(opts.get("--digit-budget", 19))
        bits = int(opts.get("--log2-bits", 32))
        rows = [dict(zip(TABLE2_FIELDS, lib.table2_row(n, budget, bits).cells())) for n in rows_n]
        return render(TABLE2_FIELDS, rows, fmt)
