"""End-to-end command tests: every invocation runs in process through
``main(argv)`` and asserts on captured stdout/stderr plus the exit code."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import enumerant
from enumerant.cli import _CHUNK_CHARS, _emit, _text, build_parser, main
from enumerant.exactnum import DyadicRational


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEnum:
    def test_plain(self, capsys):
        rc, out, err = run(capsys, "enum", "--count", "3")
        assert rc == 0 and err == ""
        assert out == "1 1 1/2\n2 01 1/4\n3 11 3/4\n"

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "enum", "--count", "3", "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "bits", "value"]
        assert rows[1] == ["1", "1", "1/2"]
        assert rows[3] == ["3", "11", "3/4"]

    def test_json_lines(self, capsys):
        rc, out, _ = run(capsys, "enum", "--count", "2", "--format", "json-lines")
        assert rc == 0
        first, second = (json.loads(line) for line in out.splitlines())
        assert first == {"index": 1, "bits": "1", "value": "1/2"}
        assert second == {"index": 2, "bits": "01", "value": "1/4"}

    def test_zero_rows(self, capsys):
        rc, out, _ = run(capsys, "enum", "--count", "0")
        assert rc == 0 and out == ""

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
    def test_rows_go_out_in_bounded_chunks(self, fmt, capsys):
        # one write per chunk of about _CHUNK_CHARS characters, not one per row
        writes = []

        class Sink:
            write = writes.append

            def flush(self):
                pass

        with contextlib.redirect_stdout(Sink()):
            assert main(["enum", "--count", "20000", "--format", fmt]) == 0
        text = "".join(writes)
        assert text == run(capsys, "enum", "--count", "20000", "--format", fmt)[1]
        assert len(text.splitlines()) == 20000 + (fmt == "csv")
        assert len(writes) <= len(text) // _CHUNK_CHARS + 1
        assert all(_CHUNK_CHARS <= len(w) < _CHUNK_CHARS + 100 for w in writes[:-1])

    def test_missing_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum"])
        assert exc.value.code == 2


class TestLocate:
    def test_by_bits(self, capsys):
        rc, out, _ = run(capsys, "locate", "--bits", "0111")
        assert (rc, out) == (0, "14\n")

    def test_by_value(self, capsys):
        rc, out, _ = run(capsys, "locate", "--value", "3/8")
        assert (rc, out) == (0, "6\n")

    def test_trailing_zeros_are_rejected_with_the_equivalent(self, capsys):
        rc, out, err = run(capsys, "locate", "--bits", "10")
        assert rc == 1 and out == ""
        assert err == "NotInImage equivalent=1\n"

    def test_non_dyadic_value(self, capsys):
        rc, _, err = run(capsys, "locate", "--value", "1/3")
        assert rc == 1
        assert err == "OutOfRange value=1/3 denominator=3\n"

    # "_" between digits and blanks beside "/" are refused on every Python,
    # as 3.10's `Fraction` refuses them
    @pytest.mark.parametrize("value", ["abc", "1/0", "0/0", "1_0/16", "3 / 8"])
    def test_unreadable_value_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["locate", "--value", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"enumerant locate: error: argument --value: invalid Fraction value: {value!r}")

    def test_bits_and_value_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["locate", "--bits", "1", "--value", "1/2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value, head, places", [
        ("1e10000000", "1", 10 ** 7),
        ("1e-10000000", "1", 10 ** 7),
        (" -2.5E+150001 ", " -2.5", 150_001),
    ])
    def test_huge_exponent_is_refused_before_the_power(self, capsys, monkeypatch,
                                                       value, head, places):
        import fractions

        # `_fraction` reads `fractions.Fraction` when it runs.  The modules
        # `locate --value` imports are loaded first, so none binds the recorder
        import enumerant.enumeration
        import enumerant.exactnum

        parsed = []

        def recording(text):
            parsed.append(text)
            # `Fraction.__new__` looks its own class up by this name
            fractions.Fraction = Fraction
            try:
                return Fraction(text)
            finally:
                fractions.Fraction = recording

        monkeypatch.setattr(fractions, "Fraction", recording)
        rc, out, err = run(capsys, "locate", "--value", value)
        assert (rc, out) == (1, "")
        assert err == f"BudgetExceeded requested={places} cap=150000\n"
        # only the head was read, with a zero exponent
        assert parsed == [head + "e0"]

    @pytest.mark.parametrize("value", ["x1e10000000", "1e 10000000", "3/4e10000000",
                                       "1e5e10000000", "1e10_000_000"])
    def test_malformed_value_with_a_huge_exponent_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["locate", "--value", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"enumerant locate: error: argument --value: invalid Fraction value: {value!r}")


class TestApprox:
    def test_sqrt2_report(self, capsys):
        rc, out, _ = run(capsys, "approx", "--real", "sqrt2", "--depth", "8")
        assert rc == 0
        got = dict(line.split("=", 1) for line in out.splitlines())
        assert got["prefix"] == "01101010"
        assert got["verdict"] == "no-finite-index"
        assert got["member_index"] == ""
        assert got["best_index"] == "86"
        assert got["best_bits"] == "0110101"
        assert got["best_value"] == "53/128"
        assert got["error_bound"] == "1/512"

    def test_member_report(self, capsys):
        rc, out, _ = run(capsys, "approx", "--real", "rat:5/16", "--depth", "9")
        assert rc == 0
        got = dict(line.split("=", 1) for line in out.splitlines())
        assert got["verdict"] == "exact-member"
        assert got["member_index"] == "10"
        assert got["error_bound"] == "0"

    def test_unknown_real_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--real", "pi", "--depth", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("real", ["sqrt2", "rat:1/3", "e", "tau"])
    def test_depth_budget_refuses_before_any_bit(self, capsys, monkeypatch, real):
        import enumerant.reals as reals

        def reached(self, depth):
            raise AssertionError("the budget was checked after the work began")

        for kind in (reals.SqrtStream, reals.RationalStream, reals._EnclosureStream):
            monkeypatch.setattr(kind, "_floor", reached)
        rc, out, err = run(capsys, "approx", "--real", real, "--depth", "10000000")
        assert (rc, out) == (1, "")
        # `approximate` asks for one bit past --depth
        assert err == "BudgetExceeded requested=10000001 cap=100000\n"


class TestDiag:
    def test_plain_is_the_certificate_text(self, capsys):
        rc, out, _ = run(capsys, "diag", "--count", "4")
        assert rc == 0
        assert out == "N=4 pad=zero\n1 1 1 0\n2 2 1 0\n3 3 0 1\n4 4 0 1\n"

    def test_csv_rows(self, capsys):
        rc, out, _ = run(capsys, "diag", "--count", "3", "--format", "csv")
        assert rc == 0
        assert out.splitlines() == [
            "index,position,entry_bit,diagonal_bit",
            "1,1,1,0",
            "2,2,1,0",
            "3,3,0,1",
        ]

    def test_json_lines_summary_then_records(self, capsys):
        rc, out, _ = run(capsys, "diag", "--count", "3", "--format", "json-lines")
        assert rc == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0] == {
            "stage": 3,
            "pad": "zero",
            "diagonal": "001",
            "ends_in_one": True,
            "occurs_in_prefix": False,
        }
        assert lines[1] == {"index": 1, "position": 1, "entry_bit": 1,
                            "diagonal_bit": 0}
        assert len(lines) == 4

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
    def test_budget_refuses_before_any_entry(self, capsys, monkeypatch, fmt):
        import enumerant.enumeration as enumeration

        def reached():
            raise AssertionError("the budget was checked after the read began")

        monkeypatch.setattr(enumeration, "all_strings", reached)
        rc, out, err = run(capsys, "diag", "--count", "100000000", "--format", fmt)
        assert (rc, out, err) == (1, "", "BudgetExceeded requested=100000000 cap=200000\n")

    def test_verify_round_trip(self, capsys, tmp_path):
        rc, text, _ = run(capsys, "diag", "--count", "20")
        path = tmp_path / "cert.txt"
        path.write_text(text, encoding="ascii")
        rc, out, err = run(capsys, "diag", "--verify", str(path))
        assert (rc, out, err) == (0, "20 true\n", "")

    def test_verify_flags_a_tampered_record(self, capsys, tmp_path):
        rc, text, _ = run(capsys, "diag", "--count", "5")
        doctored = text.replace("3 3 0 1", "3 3 1 0")
        path = tmp_path / "cert.txt"
        path.write_text(doctored, encoding="ascii")
        rc, out, _ = run(capsys, "diag", "--verify", str(path))
        assert (rc, out) == (1, "5 false\n")

    @pytest.mark.parametrize("fmt, expected", [
        ("plain", "20 true\n"),
        ("csv", "stage,valid\n20,true\n"),
        ("json-lines", '{"stage": 20, "valid": true}\n'),
    ])
    def test_verify_in_each_format(self, capsys, tmp_path, fmt, expected):
        rc, text, _ = run(capsys, "diag", "--count", "20")
        path = tmp_path / "cert.txt"
        path.write_text(text, encoding="ascii")
        rc, out, err = run(capsys, "diag", "--verify", str(path), "--format", fmt)
        assert (rc, out, err) == (0, expected, "")

    @pytest.mark.parametrize("text, message", [
        ("N=3 pad=zero\n1 1 1 0\n2 x 1 0\n3 3 0\n",
         "invalid literal for int() with base 10: 'x'"),
        ("N=3 pad=zero\n1 1 1 0\n2 2 1\n3 x 0 1\n",
         "malformed record: '2 2 1'"),
    ])
    def test_verify_reports_the_first_fault(self, capsys, tmp_path, text, message):
        path = tmp_path / "cert.txt"
        path.write_text(text, encoding="ascii")
        rc, out, err = run(capsys, "diag", "--verify", str(path))
        assert (rc, out, err) == (1, "", f"unreadable certificate: {message}\n")

    def test_verify_unreadable_file(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("not a certificate\n", encoding="ascii")
        rc, out, err = run(capsys, "diag", "--verify", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("unreadable certificate:")

        rc, out, err = run(capsys, "diag", "--verify", str(tmp_path / "absent"))
        assert rc == 1 and err.startswith("unreadable certificate:")

    def test_verify_reads_a_bounded_prefix_of_an_endless_file(self):
        # the address-space limit is set in the child, so a reader that
        # grows without bound fails there fast instead of filling the host
        probe = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
                 "from enumerant.cli import main\n"
                 "sys.exit(main(['diag', '--verify', '/dev/zero']))\n")
        start = time.perf_counter()
        proc = run_python("-c", probe)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "unreadable certificate: certificate longer than 4194304 characters\n"
        assert elapsed < 2

    def test_verify_refuses_a_long_field_before_parsing_it(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("N=1 pad=zero\n" + "1" * 800_000 + " 1 0 1\n", encoding="ascii")
        start = time.perf_counter()
        rc, out, err = run(capsys, "diag", "--verify", str(path))
        assert time.perf_counter() - start < 1
        assert (rc, out, err) == (1, "", "unreadable certificate: a line of 800006 characters, over 80\n")

    def test_verify_refuses_a_stage_past_the_cap_before_reading_records(self, capsys,
                                                                        tmp_path):
        # 524 000 records fit the text bound; the header alone refuses them
        path = tmp_path / "cert.txt"
        path.write_text("N=524000 pad=zero\n" + "0 0 0 0\n" * 524_000, encoding="ascii")
        start = time.perf_counter()
        rc, out, err = run(capsys, "diag", "--verify", str(path))
        assert time.perf_counter() - start < 1
        assert (rc, out, err) == (1, "", "BudgetExceeded requested=524000 cap=200000\n")

    def test_verify_the_certificate_at_the_stage_cap(self, capsys, tmp_path):
        rc, text, _ = run(capsys, "diag", "--count", "200000")
        assert (rc, len(text)) == (0, 3_377_808)
        path = tmp_path / "cert.txt"
        path.write_text(text, encoding="ascii")
        rc, out, err = run(capsys, "diag", "--verify", str(path))
        assert (rc, out, err) == (0, "200000 true\n", "")


class TestHarmonic:
    def test_plain_rows(self, capsys):
        rc, out, _ = run(capsys, "harmonic", "--blocks", "3")
        assert rc == 0
        assert out.splitlines() == [
            "1 2 2 1 1/2 3/2 true true",
            "2 3 4 2 7/12 25/12 true true",
            "3 5 8 4 533/840 761/280 true true",
        ]

    def test_json_booleans_are_real_booleans(self, capsys):
        rc, out, _ = run(capsys, "harmonic", "--blocks", "1", "--format",
                         "json-lines")
        row = json.loads(out)
        assert row["at_least_half"] is True
        assert row["block"] == "1/2"

    def test_budget_refuses_before_the_first_block(self, capsys, monkeypatch):
        import enumerant.series as series

        summed, oresme_block = [], series.oresme_block

        def counting(k):
            summed.append(k)
            return oresme_block(k)

        monkeypatch.setattr(series, "oresme_block", counting)
        rc, out, err = run(capsys, "harmonic", "--blocks", "19")
        assert (rc, out) == (1, "")
        assert err == "BudgetExceeded requested=524288 cap=262144\n"
        # the refused block is the only one asked for: none was summed
        assert summed == [19]

    def test_cumulative_column_is_the_left_fold_of_the_blocks(self, capsys):
        rc, out, _ = run(capsys, "harmonic", "--blocks", "12")
        assert rc == 0
        folded = Fraction(1)
        for k, line in enumerate(out.splitlines(), 1):
            cells = line.split()
            folded += Fraction(cells[4])
            assert (int(cells[0]), Fraction(cells[5])) == (k, folded)
            assert cells[7] == ("true" if folded >= 1 + Fraction(k, 2) else "false")
        assert k == 12

    def test_huge_block_count_is_one_short_line(self, capsys):
        rc, out, err = run(capsys, "harmonic", "--blocks", "100000000000")
        assert (rc, out) == (1, "")
        assert err == "BudgetExceeded requested=2^(100000000000) cap=262144\n"


class TestSeries:
    def test_e_report(self, capsys):
        rc, out, _ = run(capsys, "series", "--name", "e", "--terms", "12",
                         "--digits", "9")
        assert rc == 0
        got = dict(line.split("=", 1) for line in out.splitlines())
        assert got["lo"] == "260412269/95800320"
        assert got["hi"] == "2232105163/821145600"
        assert got["lo_decimal"] == "2.718281828..."
        assert got["pinned"] == "2.718281828"

    def test_e_pinned_is_empty_when_the_enclosure_is_too_wide(self, capsys):
        rc, out, _ = run(capsys, "series", "--name", "e", "--terms", "12")
        got = dict(line.split("=", 1) for line in out.splitlines())
        assert got["pinned"] == ""

    def test_tau_report(self, capsys):
        rc, out, _ = run(capsys, "series", "--name", "tau", "--terms", "3",
                         "--digits", "8", "--format", "json-lines")
        assert json.loads(out) == {
            "terms": 3,
            "value": "110001/1000000",
            "decimal": "0.11000100",
            "one_places": "1,2,6",
            "tail_bound": "2/10^24",
        }

    def test_tau_growth_guard(self, capsys):
        rc, _, err = run(capsys, "series", "--name", "tau", "--terms", "8")
        assert rc == 1
        assert err == "BudgetExceeded requested=8 cap=7\n"

    def test_geometric(self, capsys):
        rc, out, _ = run(capsys, "series", "--name", "geometric", "--terms", "10")
        assert out == "terms=10\nvalue=1023/1024\nmatches_closed_form=true\n"

    @pytest.mark.parametrize("wrong", [
        Fraction(1021, 1024),  # one of the n one-bits cleared
        Fraction(2047, 2048),  # n + 1 terms
        Fraction(511, 512),  # n - 1 terms
        Fraction(3071, 3072),  # a denominator that is not a power of two
        Fraction(1023, 1025),  # the right numerator over a denominator past 2**n
    ])
    def test_geometric_claim_is_checked(self, capsys, monkeypatch, wrong):
        import enumerant.series as series

        monkeypatch.setattr(series, "geometric_partial", lambda n: wrong)
        rc, out, _ = run(capsys, "series", "--name", "geometric", "--terms", "10")
        assert rc == 0
        assert out == f"terms=10\nvalue={wrong}\nmatches_closed_form=false\n"

    def test_e_budget_refuses_before_the_sum(self, capsys, monkeypatch):
        import enumerant.series as series

        def reached(a, b):
            raise AssertionError("the budget was checked after the sum began")

        monkeypatch.setattr(series, "_factorial_series", reached)
        rc, out, err = run(capsys, "series", "--name", "e", "--terms", "24001")
        assert (rc, out) == (1, "")
        assert err == "BudgetExceeded requested=24001 cap=24000\n"


class TestTheorem:
    def test_single_set(self, capsys):
        rc, out, _ = run(capsys, "theorem", "--set", "2,4,6")
        assert rc == 0
        assert out == ("elements=2,4,6\ncardinality=3\nwitnesses=4,6\n"
                       "witness_count=2\nrequired=2\nholds=true\n")

    def test_bad_element(self, capsys):
        rc, _, err = run(capsys, "theorem", "--set", "2,3,4")
        assert rc == 1
        assert err == "NotEvenPositiveDistinct offender=3\n"

    def test_empty_set(self, capsys):
        rc, _, err = run(capsys, "theorem", "--set", "")
        assert rc == 1
        assert err == "EmptySet\n"

    def test_exhaustive(self, capsys):
        rc, out, _ = run(capsys, "theorem", "--exhaustive", "3")
        assert rc == 0
        assert out.splitlines() == ["1 3 0", "2 3 0", "3 1 0", "total 7 0"]

    def test_exhaustive_cap(self, capsys):
        rc, _, err = run(capsys, "theorem", "--exhaustive", "25")
        assert rc == 1
        assert err == "BudgetExceeded requested=25 cap=20\n"


class TestPair:
    def test_pair(self, capsys):
        rc, out, _ = run(capsys, "pair", "--i", "1", "--j", "2")
        assert (rc, out) == (0, "8\n")

    def test_unpair(self, capsys):
        rc, out, _ = run(capsys, "pair", "--unpair", "0")
        assert (rc, out) == (0, "0 0\n")
        rc, out, _ = run(capsys, "pair", "--unpair", "8", "--format",
                         "json-lines")
        assert json.loads(out) == {"i": 1, "j": 2}

    def test_conflicting_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--unpair", "3", "--i", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--i", "1"])
        assert exc.value.code == 2


class TestTable:
    def test_table_one(self, capsys):
        rc, out, _ = run(capsys, "table", "--id", "1", "--rows", "3")
        assert rc == 0
        assert out.splitlines() == ["1 2 1 1", "2 4 4 1/2", "3 6 9 1/3"]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
    def test_table_one_streams_its_rows(self, fmt):
        # rows go out as they are built, as enum's do: 20000 rows held
        # at once would take about 5 MB
        argv = ["table", "--id", "1", "--format", fmt, "--rows"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv + ["1"])  # first-use imports stay out of the peak
            tracemalloc.start()
            try:
                assert main(argv + ["20000"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
    def test_table_two_streams_its_rows(self, fmt):
        # each row holds n! and 1/n! in full: 600 rows held at once would
        # take over 2 MB
        argv = ["table", "--id", "2", "--format", fmt, "--rows"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv + ["1"])  # first-use imports stay out of the peak
            tracemalloc.start()
            try:
                assert main(argv + ["600"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 19

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
    def test_table_two_refuses_rows_past_the_cap_before_any_row(self, capsys, monkeypatch,
                                                                 fmt):
        import enumerant.finitist as finitist

        built = []
        monkeypatch.setattr(finitist, "table2_row", lambda n, *rest: built.append(n))
        cap = finitist._TABLE2_ROWS_CAP
        rc, out, err = run(capsys, "table", "--id", "2", "--rows", str(cap + 1),
                           "--format", fmt)
        assert (rc, out, err) == (1, "", f"BudgetExceeded requested={cap + 1} cap={cap}\n")
        assert built == []

    def test_table_two_keeps_the_u64_cell_symbolic(self, capsys):
        rc, out, _ = run(capsys, "table", "--id", "2", "--rows", "3")
        assert rc == 0
        rows = out.splitlines()
        assert rows[0] == "1/2 1 0 1 2 1 2 4"
        assert rows[1] == "1/4 1/2 1 2 4 2 4 16"
        assert rows[2].startswith("1/64 1/6 [")
        assert rows[2].endswith("] 3 8 6 64 2^(64)")

    def test_table_two_budget_flag(self, capsys):
        rc, out, _ = run(capsys, "table", "--id", "2", "--rows", "5",
                         "--digit-budget", "37")
        last = out.splitlines()[-1].split()
        assert last[-2] == str(2 ** 120)
        assert last[-1] == f"2^({2 ** 120})"

    def test_table_two_csv_header(self, capsys):
        rc, out, _ = run(capsys, "table", "--id", "2", "--rows", "1",
                         "--format", "csv")
        header = out.splitlines()[0]
        assert header == ("recip_two_pow_fact,recip_fact,log2_n,n,"
                          "two_pow,fact,two_pow_fact,tower")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("enum", "--count", "64"),
        ("table", "--id", "2", "--rows", "6"),
        ("diag", "--count", "40"),
        ("series", "--name", "e", "--terms", "20"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


@pytest.mark.skipif(shutil.which("enumerant") is None,
                    reason="console script not on PATH")
@pytest.mark.parametrize("argv, code, out", [
    (["enum", "--count", "1"], 0, "1 1 1/2\n"),
    (["locate", "--bits", "0110"], 1, ""),
    (["enum", "--count", "-1"], 2, ""),
])
def test_installed_console_script(argv, code, out):
    proc = subprocess.run(["enumerant", *argv], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
    if code == 1:
        assert proc.stderr == "NotInImage equivalent=6\n"
    elif code == 2:
        assert proc.stderr.splitlines()[-1].startswith("enumerant enum: error:")


SRC = Path(enumerant.__file__).resolve().parent.parent


def run_python(*args):
    """A fresh interpreter that imports the package from the source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))


def run_module(*argv):
    return run_python("-m", "enumerant.cli", *argv)


_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).resolve().parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _one_transcript_per_command_and_format():
    """The first golden transcript, by name, of each command in each
    format, among those whose text is not argparse's."""
    chosen = {}
    for path in sorted(record.TRANSCRIPTS.glob("*.json")):
        want = json.loads(path.read_text(encoding="utf-8"))
        argv = want["argv"]
        if not want["by_argparse"]:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
            chosen.setdefault((argv[0], fmt), path)
    return sorted(chosen.values())


ROUTE_TRANSCRIPTS = _one_transcript_per_command_and_format()

# main(argv) in a fresh interpreter, then run() on the same arguments
RUN_PROBE = """
import contextlib, gc, io, sys
from enumerant.cli import main, run
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = main(sys.argv[1:])
    except SystemExit as stop:
        status = stop.code
    frozen = gc.get_freeze_count()
    try:
        run()
    except SystemExit as stop:
        code = stop.code
print(status, frozen, code, gc.get_freeze_count() > 0)
"""


class TestModuleRoute:
    @pytest.mark.parametrize("path", ROUTE_TRANSCRIPTS,
                             ids=[path.stem for path in ROUTE_TRANSCRIPTS])
    def test_replays_a_golden_transcript(self, path):
        # the cwd and COLUMNS of the recording; the transcripts hold text,
        # and UTF-8 mode writes it as UTF-8 whatever the locale
        want = json.loads(path.read_text(encoding="utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "enumerant.cli", *want["argv"]], capture_output=True,
            timeout=60, cwd=record.INPUTS,
            env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS=record.COLUMNS, PYTHONUTF8="1"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            want["exit"], want["stdout"].encode(), want["stderr"].encode())

    @pytest.mark.parametrize("argv, status", [
        (["pair", "--i", "1", "--j", "2"], 0),
        (["locate", "--bits", "0110"], 1),
        (["enum", "--count", "-1"], 2),
    ])
    def test_run_exits_with_mains_status_and_only_run_freezes(self, argv, status):
        proc = run_python("-c", RUN_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{status} 0 {status} True\n"

    def test_a_profiler_around_the_module_still_reports(self):
        proc = run_python("-m", "cProfile", "-m", "enumerant.cli", "pair", "--i", "1", "--j", "2")
        assert proc.returncode == 0, proc.stderr
        head, _, profile = proc.stdout.partition("\n")
        assert head == "8"
        assert " function calls " in profile

    def test_readme_table_two(self):
        proc = run_module("table", "--id", "2", "--rows", "3")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            "1/2 1 0 1 2 1 2 4\n"
            "1/4 1/2 1 2 4 2 4 16\n"
            "1/64 1/6 [6807362105/4294967296, 3403681053/2147483648] 3 8 6 64 2^(64)\n")

    def test_domain_error_is_one_stderr_line(self):
        proc = run_module("locate", "--bits", "010")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "NotInImage equivalent=2\n"

    def test_unknown_real_names_parse_real(self):
        proc = run_module("approx", "--real", "bogus", "--depth", "3")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[-1] == (
            "enumerant approx: error: argument --real: invalid parse_real value: 'bogus'")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["enum", "--count", "200000"],
        ["enum", "--count", "200000", "--format", "csv"],
        ["enum", "--count", "200000", "--format", "json-lines"],
        ["table", "--id", "1", "--rows", "200000", "--format", "json-lines"],
    ])
    def test_a_reader_that_closes_early(self, argv):
        # far more than a pipe buffer holds, so a write meets the closed end
        proc = subprocess.Popen([sys.executable, "-m", "enumerant.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        try:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b"error: stdout closed before the output ended\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="counts /proc/self/fd")
    def test_the_closed_stdout_branch_leaves_no_descriptor_open(self):
        probe = ("import os, sys\n"
                 "from enumerant.cli import main\n"
                 "read, write = os.pipe()\n"
                 "os.close(read)\n"
                 "os.dup2(write, sys.stdout.fileno())\n"
                 "os.close(write)\n"
                 "before = len(os.listdir('/proc/self/fd'))\n"
                 "code = main(['enum', '--count', '100000'])\n"
                 "print(code, before, len(os.listdir('/proc/self/fd')), file=sys.stderr)\n")
        proc = run_python("-c", probe)
        closed, counts = proc.stderr.splitlines()
        assert closed == "error: stdout closed before the output ended"
        code, before, after = counts.split()
        assert (proc.returncode, code, after) == (0, "1", before)


# runs main(argv) in a fresh interpreter and prints the modules it loaded
LOAD_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from enumerant.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
"""
FINITIST_ONLY = {"errors", "exactnum", "finitist"}
ENUMERATION_ONLY = {"errors", "exactnum", "enumeration"}
# `enumeration` without the value types: the string and pairing bijections
PAIRING_ONLY = {"errors", "enumeration"}
# `dataclasses` and the modules it loads, compiled on every cold start
DATACLASS_LOAD = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# the modules that still define a dataclass: `enum`, `locate`, `diag` and
# `pair` run none
DATACLASS_MODULES = {"reals", "series", "finitist"}
# the modules that import `fractions` at module level: `pair`, `diag` and
# `locate --bits` run none
FRACTION_MODULES = {"exactnum", "series", "reals", "finitist"}
CERT = str(Path(__file__).resolve().parent / "golden" / "inputs" / "cert.txt")


def loaded_modules(argv):
    proc = run_python("-c", LOAD_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestLoadSets:
    @pytest.mark.parametrize("argv, package", [
        (["enum", "--count", "3"], ENUMERATION_ONLY),
        (["locate", "--value", "3/8"], ENUMERATION_ONLY),
        (["approx", "--real", "sqrt2", "--depth", "8"], ENUMERATION_ONLY | {"reals", "series"}),
        (["diag", "--count", "4"], PAIRING_ONLY | {"diagonal"}),
        (["harmonic", "--blocks", "3"], {"errors", "series"}),
        (["series", "--name", "e", "--terms", "12"], {"errors", "exactnum", "series"}),
        # no decimal to print, and a refusal before the decimal
        (["series", "--name", "geometric", "--terms", "5"], {"errors", "series"}),
        (["series", "--name", "tau", "--terms", "9"], {"errors", "series"}),
        (["theorem", "--set", "2,4,6"], FINITIST_ONLY),
        (["pair", "--i", "1", "--j", "2"], PAIRING_ONLY),
        (["table", "--id", "2", "--rows", "3"], FINITIST_ONLY),
        (["locate", "--bits", "0101"], PAIRING_ONLY),
        (["diag", "--verify", CERT], PAIRING_ONLY | {"diagonal"}),
    ])
    def test_a_plain_command_loads_only_what_it_runs(self, argv, package):
        loaded = loaded_modules(argv)
        submodules = {m.split(".", 1)[1] for m in loaded if m.startswith("enumerant.")}
        assert submodules == package | {"cli"}
        assert not loaded & {"csv", "json"}
        assert bool(loaded & DATACLASS_LOAD) == bool(package & DATACLASS_MODULES)
        assert ("fractions" in loaded) == bool(package & FRACTION_MODULES)

    @pytest.mark.parametrize("module", ["enumerant.cli", "enumerant.exactnum",
                                        "enumerant.enumeration", "enumerant.diagonal"])
    def test_the_import_loads_no_dataclasses(self, module):
        proc = run_python("-c", f"import sys, {module}; print(' '.join(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert not set(proc.stdout.split()) & DATACLASS_LOAD

    # csv builds its lines as plain does, with no writer module
    @pytest.mark.parametrize("fmt, writer", [("csv", None), ("json-lines", "json")])
    def test_only_the_chosen_format_loads_its_writer(self, fmt, writer):
        loaded = loaded_modules(["enum", "--count", "3", "--format", fmt])
        assert loaded & {"csv", "json"} == ({writer} if writer else set())

    def test_the_cli_import_loads_only_the_errors_module(self):
        proc = run_python("-c", "import sys, enumerant.cli; print(' '.join(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        loaded = {m for m in proc.stdout.split() if m.startswith("enumerant.")}
        assert loaded == {"enumerant.cli", "enumerant.errors"}


class TestParser:
    @pytest.mark.parametrize("argv, filled", [
        (["pair", "--i", "1", "--j", "2"], "pair"),
        (["--bogus", "pair", "--i", "1"], "pair"),
        (["foo", "enum", "--count", "1"], "enum"),
        (["enum", "--count", "1", "locate"], "enum"),
        (["--", "table", "--id", "1"], "table"),
        (["--help"], None),
        ([], None),
    ])
    def test_only_the_first_command_word_gets_arguments(self, argv, filled):
        sub, = (action for action in build_parser(argv)._actions
                if isinstance(action, argparse._SubParsersAction))
        assert list(sub.choices) == ["enum", "locate", "approx", "diag", "harmonic",
                                     "series", "theorem", "pair", "table"]
        # the other commands' parsers hold no argument, not even -h
        with_arguments = [name for name, p in sub.choices.items() if p._actions]
        assert with_arguments == ([filled] if filled else [])


@pytest.fixture
def default_cap():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


class TestDigitCap:
    @pytest.mark.parametrize("argv, code", [
        (["pair", "--i", "1", "--j", "2"], 0),
        (["locate", "--bits", "010"], 1),
    ])
    def test_main_restores_the_cap(self, capsys, default_cap, argv, code):
        assert main(argv) == code
        assert sys.get_int_max_str_digits() == default_cap

    def test_usage_errors_restore_the_cap(self, capsys, default_cap):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "--count", "-1"])
        assert exc.value.code == 2
        assert sys.get_int_max_str_digits() == default_cap

    def test_digits_past_the_default_cap_still_print(self, capsys, default_cap):
        rc, out, _ = run(capsys, "series", "--name", "tau", "--terms", "7")
        assert rc == 0
        assert max(len(line) for line in out.splitlines()) > default_cap

    def test_a_huge_integer_value_is_one_stderr_line(self, capsys, default_cap):
        # 10**50000 strips to 5**50000 / 2**-50000 before the range check
        rc, out, err = run(capsys, "locate", "--value", "1e50000")
        sys.set_int_max_str_digits(0)
        want = f"OutOfRange value={5 ** 50000}/2^-50000\n"
        assert (rc, out, err) == (1, "", want)


# A grammar of every command with its flags, each value drawn from the
# flag's own small range or from hostile text.  Huge numbers go only to the
# flags whose budget refuses them before any work: the rest would stream
# or print for as long as they are asked to.
_HOSTILE = st.sampled_from(["1/0", "-1", "-40", "", " ", "x1", "3.5", "é", "\u0663"])
_HUGE = st.integers(10 ** 9, 10 ** 40).map(str)
_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _value(valid, huge=False):
    """Mostly a valid value, so that calls get past argparse."""
    kinds = {"valid": valid, "hostile": _HOSTILE, "huge": _HUGE}
    weights = ["valid"] * 4 + ["hostile"] + (["huge"] if huge else [])
    return st.sampled_from(weights).flatmap(kinds.__getitem__)


def _number(lo, hi, huge=False):
    return _value(st.integers(lo, hi).map(str), huge)


def _series(name):
    return [("--name", _value(st.just(name))),
            ("--terms", _number(1, 60 if name != "tau" else 9, huge=True)),
            ("--digits", _number(0, 60, huge=True))]


def _table(table_id):
    return [("--id", _value(st.just(str(table_id)))),
            ("--rows", _number(1, 1000 if table_id == 1 else 12, huge=table_id == 2)),
            ("--digit-budget", _number(1, 60, huge=True)),
            ("--log2-bits", _number(1, 200, huge=True))]


_GRAMMAR = {
    "enum": [("--count", _number(0, 1000))],
    "locate": [("--bits", _value(st.text("01", max_size=40))),
               ("--value", _value(st.one_of(
                   st.builds("{}/{}".format, st.integers(-5, 300), st.integers(0, 4096)),
                   st.builds("{}e{}".format, st.integers(-3, 30), st.one_of(
                       st.integers(-20000, 20000), st.integers(10 ** 9, 10 ** 40),
                       st.integers(-10 ** 40, -10 ** 9))))))],
    "approx": [("--real", _value(st.sampled_from(
                   ["sqrt2", "e", "tau", "rat:3/8", "rat:1/3", "rat:0/1", "rat:5/4",
                    "rat:1/0", "rat:-1/2", "pi"]))),
               ("--depth", _number(1, 200, huge=True))],
    "diag": [("--count", _number(1, 200, huge=True)),
             ("--verify", _value(st.sampled_from(
                 [*map(str, sorted(_INPUTS.iterdir())), str(_INPUTS), "missing.txt"])))],
    "harmonic": [("--blocks", _number(1, 12, huge=True))],
    "series e": _series("e"),
    "series tau": _series("tau"),
    "series geometric": _series("geometric"),
    "theorem": [("--set", _value(st.lists(st.integers(-4, 40), max_size=6).map(
                    lambda xs: ",".join(map(str, xs))))),
                ("--exhaustive", _number(1, 10, huge=True))],
    "pair": [("--i", _number(0, 10 ** 6)), ("--j", _number(0, 10 ** 6)),
             ("--unpair", _number(0, 10 ** 12))],
    "table 1": _table(1),
    "table 2": _table(2),
}


_COMMANDS = sorted({key.split()[0] for key in _GRAMMAR})


@st.composite
def _invocations(draw):
    key = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [key.split()[0]]
    for flag, values in draw(st.permutations(_GRAMMAR[key])):
        if draw(st.integers(0, 3)):  # most flags, the required ones too
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["plain", "csv", "json-lines", "xml"]))]
    # now and then a word the top level settles: an unknown option, a stray
    # word, "--" or "-h" before the command, or a command name after it
    before = draw(st.sampled_from([None] * 5 + ["--bogus", "foo", "--", "-h"]))
    if before:
        argv = [before, *argv]
    elif not draw(st.integers(0, 5)):
        argv += [draw(st.sampled_from(_COMMANDS))]
    return argv


class TestFuzz:
    @given(_invocations())
    def test_every_call_ends_in_a_status_and_at_most_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                # argparse's help, or its usage error
                assert stop.code == (0 if argv[0] == "-h" else 2), argv
                return
        assert code in (0, 1, 2), argv
        if code == 1 and "diag" in argv and not err.getvalue():
            # the one exit 1 with no stderr line: an invalid certificate,
            # whose verdict is on stdout
            assert "false" in out.getvalue().splitlines()[-1], argv
        elif code == 1:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


# Cells of every kind a row carries, and some no command prints yet: ints
# past the default int->str digit cap, exact rationals, bit tuples, and text
# that JSON and csv must quote or escape.
_CELLS = st.one_of(
    st.integers(),
    st.builds(lambda sign, digits, low: sign * (10 ** digits + low),
              st.sampled_from([1, -1]), st.integers(4290, 4400), st.integers(0, 10 ** 9)),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.integers(0, 64).flatmap(
        lambda e: st.integers(1, 1 << e).map(lambda n: DyadicRational(n, e))),
    st.lists(st.integers(), max_size=4).map(tuple),
    st.text(st.one_of(st.sampled_from('"\\,= \n\r\té\u2028\U0001f600'), st.characters())),
)


@st.composite
def _tables(draw):
    fields = tuple(f"f{i}" for i in range(draw(st.integers(1, 4))))
    rows = draw(st.lists(st.tuples(*[_CELLS] * len(fields)), max_size=5))
    return fields, rows


def _emitted(fields, rows, fmt, report=False):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(fields, rows, fmt, report)
    return out.getvalue()


@contextlib.contextmanager
def _print_digit_limit():
    """No int->str digit limit, as in `main`."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _ladder_text(value) -> str:
    """`_text` as a chain of type tests, the rule its table states."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _csv_line(row) -> str:
    """A row of text as a `csv.writer` on a real file writes it, with a
    "\r\n" terminator that is then swapped for "\n"."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(row)
    line = out.getvalue()
    assert line.endswith("\r\n")
    return line[:-2] + "\n"


def _csv_text(rows) -> str:
    """Rows of text as `csv.writer` writes them, one row at a time.

    CPython 3.10's writer refuses a cell that holds NUL, where later versions
    write it bare; there the NUL stands in as a character the row lacks and
    the writer needs no quotes for, and is put back in the line it writes."""
    lines = []
    for row in rows:
        try:
            lines.append(_csv_line(row))
        except csv.Error:
            assert sys.version_info < (3, 11) and any("\x00" in text for text in row)
            stand_in = next(c for c in map(chr, range(0x4E00, 0xA000))
                            if not any(c in text for text in row))
            line = _csv_line([text.replace("\x00", stand_in) for text in row])
            lines.append(line.replace(stand_in, "\x00"))
    return "".join(lines)


class TestEmit:
    @given(_CELLS)
    def test_text_is_the_type_ladder(self, value):
        with _print_digit_limit():
            assert _text(value) == _ladder_text(value)

    @given(_tables())
    def test_json_lines_are_json_dumps_of_each_row(self, table):
        fields, rows = table
        with _print_digit_limit():
            # ints and bools stay JSON numbers and booleans, None is null,
            # and everything else is its text
            want = "".join(json.dumps({f: v if v is None or isinstance(v, int) else _text(v)
                                       for f, v in zip(fields, row)}) + "\n" for row in rows)
            assert _emitted(fields, rows, "json-lines") == want

    @given(_tables())
    def test_plain_cells_are_text(self, table):
        fields, rows = table
        with _print_digit_limit():
            want = "".join(" ".join(map(_text, row)) + "\n" for row in rows)
            assert _emitted(fields, rows, "plain") == want
            for row in rows:
                want = "".join(f"{f}={_text(v)}\n" for f, v in zip(fields, row))
                assert _emitted(fields, [row], "plain", report=True) == want

    @given(_tables())
    @example((("f0", "f1"), [("c\r\nd", "\r"), (None, "")]))
    @example((("f0",), [("a\x00b",)]))
    @example((("f0", "f1"), [("\x00", "")]))
    def test_csv_cells_are_text(self, table):
        fields, rows = table
        with _print_digit_limit():
            texts = [list(fields), *([_text(v) for v in row] for row in rows)]
            out = _emitted(fields, rows, "csv")
            assert out == _csv_text(texts)
            # 3.10's reader refuses NUL as its writer does
            if "\x00" not in out or sys.version_info >= (3, 11):
                assert list(csv.reader(io.StringIO(out, newline=""))) == texts

    def test_csv_bytes_are_fixed(self):
        # a carriage return is quoted like a line feed, and NUL is written
        # bare, on every Python
        rows = [("a\rb",), ("c\r\nd",), ("e,f",), ('g"h',), ("",), ("i\x00j",)]
        assert _emitted(("cell",), rows, "csv") == (
            'cell\n"a\rb"\n"c\r\nd"\n"e,f"\n"g""h"\n""\ni\x00j\n')
        # an int, a bool, a missing value (empty beside other cells) and a
        # tuple, whose commas quote it
        assert _emitted(("a", "b", "c", "d"), [(-7, True, None, (1, 0, 1))], "csv") == (
            'a,b,c,d\n-7,true,,"1,0,1"\n')
