import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from enumerant.diagonal import (
    _LINE_CHARS,
    _STAGE_CAP,
    _TEXT_CHARS,
    DiagonalCertificate,
    MismatchRecord,
    certificate_from_text,
    certificate_to_text,
    certify_absence,
    diagonal_prefix,
    verify_certificate,
)
from enumerant.enumeration import all_strings, index_to_string
from enumerant.errors import BudgetExceeded, EnumerationExhausted


# Per-record references: the builder, verifier and text codec as they
# were before the columnar rewrite, one Python step per record.  The
# differential tests below hold the module to them.

def _ref_entry_bit(entry, position):
    return int(entry[position - 1]) if position <= len(entry) else 0


def ref_certify_absence(source, stage):
    if stage < 1:
        raise ValueError("stage must be at least 1")
    records = []
    feed = iter(source)
    for i in range(1, stage + 1):
        try:
            entry = next(feed)
        except StopIteration:
            raise EnumerationExhausted(needed=stage, available=i - 1) from None
        bit = _ref_entry_bit(entry, i)
        records.append(MismatchRecord(i, i, bit, 1 - bit))
    cert = DiagonalCertificate(stage, tuple(records))
    cert.ends_in_one = cert.diagonal.endswith("1")
    scan = iter(source)  # a second walk: sound for re-iterable sources only
    cert.occurs_in_prefix = any(
        next(scan, None) == cert.diagonal for _ in range(stage))
    return cert


def ref_verify_certificate(cert, source):
    if cert.padding != "zero":
        return False
    n = cert.stage
    if n < 1 or len(cert.records) != n or len(cert.diagonal) != n:
        return False
    feed = iter(source)
    seen = []
    for i in range(1, n + 1):
        try:
            entry = next(feed)
        except StopIteration:
            return False
        seen.append(entry)
        rec = cert.records[i - 1]
        if rec.index != i or rec.position != i:
            return False
        actual = int(entry[i - 1]) if i <= len(entry) else 0
        if rec.entry_bit != actual:
            return False
        if rec.diagonal_bit != 1 - actual:
            return False
        if cert.diagonal[i - 1] != str(rec.diagonal_bit):
            return False
    if cert.diagonal in seen:
        return False
    if cert.occurs_in_prefix not in (None, cert.diagonal in seen):
        return False
    if cert.ends_in_one not in (None, cert.diagonal.endswith("1")):
        return False
    return True


def ref_certificate_to_text(cert):
    lines = [f"N={cert.stage} pad={cert.padding}"]
    lines.extend(
        f"{r.index} {r.position} {r.entry_bit} {r.diagonal_bit}"
        for r in cert.records)
    return "\n".join(lines) + "\n"


def ref_certificate_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty certificate")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("N=") or not head[1].startswith("pad="):
        raise ValueError(f"malformed header: {lines[0]!r}")
    stage = int(head[0][2:])
    padding = head[1][4:]
    records = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 4:
            raise ValueError(f"malformed record: {ln!r}")
        idx, pos, ebit, dbit = map(int, fields)
        records.append(MismatchRecord(idx, pos, ebit, dbit))
    if len(records) != stage:
        raise ValueError(f"expected {stage} records, found {len(records)}")
    return DiagonalCertificate(stage, tuple(records), padding=padding)


def outcome(fn, *args):
    """A call's result, or its exception as (type, message, payload)."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "payload", None)


def certificate_fields(cert):
    if not isinstance(cert, DiagonalCertificate):
        return cert
    return (cert.stage, cert.padding, cert.records, cert.diagonal,
            cert.ends_in_one, cert.occurs_in_prefix,
            [type(r) for r in cert.records])


class TestDiagonalPrefix:
    def test_frozen_stages(self):
        assert diagonal_prefix(all_strings, 1) == "0"
        assert diagonal_prefix(all_strings, 3) == "001"
        assert diagonal_prefix(all_strings, 4) == "0011"
        assert diagonal_prefix(all_strings, 15) == "001111111111111"

    def test_differs_from_every_entry_at_the_diagonal(self):
        stage = 300
        diag = diagonal_prefix(all_strings, stage)
        for i in range(1, stage + 1):
            entry = index_to_string(i)
            entry_bit = entry[i - 1] if i <= len(entry) else "0"
            assert diag[i - 1] != entry_bit

    def test_ends_in_one_from_stage_three_on(self):
        # entry N is shorter than N exactly when N >= 3, so from there the
        # last diagonal bit flips a padding 0; stages 1 and 2 flip real
        # 1 bits ("1" and "01") and end in 0
        assert diagonal_prefix(all_strings, 1) == "0"
        assert diagonal_prefix(all_strings, 2) == "00"
        for stage in range(3, 200):
            assert diagonal_prefix(all_strings, stage).endswith("1")

    def test_prefix_monotone_in_stage(self):
        d40 = diagonal_prefix(all_strings, 40)
        for stage in range(1, 41):
            assert diagonal_prefix(all_strings, stage) == d40[:stage]

    def test_stage_must_be_positive(self):
        with pytest.raises(ValueError):
            diagonal_prefix(all_strings, 0)

    def test_exhausted_source(self):
        with pytest.raises(EnumerationExhausted) as exc:
            diagonal_prefix(["1", "01", "11"], 5)
        assert exc.value.payload == {"needed": 5, "available": 3}

    def test_budget_refuses_before_the_source_is_read(self):
        def source():
            raise AssertionError("the budget was checked after the read began")

        for build in (certify_absence, diagonal_prefix):
            with pytest.raises(BudgetExceeded) as exc:
                build(source, _STAGE_CAP + 1)
            assert exc.value.payload == {"requested": _STAGE_CAP + 1, "cap": _STAGE_CAP}

    def test_budget_clears_the_bench_and_the_acceptance_stage(self):
        # the bench draws stages up to 40 000 plus a shift per round
        assert 40_000 + 1_000 < _STAGE_CAP and 10 ** 4 < _STAGE_CAP


class TestCertificates:
    def test_construction(self):
        cert = certify_absence(all_strings, 15)
        assert cert.stage == 15
        assert cert.diagonal == "001111111111111"
        assert cert.padding == "zero"
        assert cert.ends_in_one is True
        assert cert.occurs_in_prefix is False
        assert len(cert.records) == 15
        assert cert.records[0] == MismatchRecord(1, 1, 1, 0)
        assert cert.records[2] == MismatchRecord(3, 3, 0, 1)

    def test_verification(self):
        cert = certify_absence(all_strings, 200)
        assert verify_certificate(cert, all_strings)

    def test_verification_is_not_tied_to_callables(self):
        listed = [index_to_string(n) for n in range(1, 64)]
        cert = certify_absence(listed, 50)
        assert verify_certificate(cert, listed)
        assert verify_certificate(cert, all_strings)

    def test_direct_absence_scan(self):
        cert = certify_absence(all_strings, 128)
        assert cert.diagonal not in [index_to_string(n) for n in range(1, 129)]

    @given(st.integers(1, 2000))
    @example(1)
    @example(2)
    @example(3)
    def test_random_stages_verify(self, stage):
        # analytic oracle: entries 1 and 2 ("1", "01") carry a 1 at their
        # diagonal position, and entry i is shorter than i from i = 3 on,
        # so the diagonal flips to 0, 0 and then a padding 0 to 1 forever
        expected = ("00" + "1" * (stage - 2))[:stage]
        cert = certify_absence(all_strings, stage)
        assert cert.diagonal == expected
        assert diagonal_prefix(all_strings, stage) == expected
        assert verify_certificate(cert, all_strings)

    def test_equality_is_over_the_core(self):
        a = certify_absence(all_strings, 20)
        b = certificate_from_text(certificate_to_text(a))
        assert b.ends_in_one is None and b.occurs_in_prefix is None
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_with_another_type_is_refused(self):
        assert certify_absence(all_strings, 4) != object()

    def test_repr(self):
        assert repr(certify_absence(all_strings, 4)) == (
            "DiagonalCertificate(stage=4, diagonal='0011', padding='zero')")


class TestTamperDetection:
    def _records(self, stage=30):
        return list(certify_absence(all_strings, stage).records)

    def test_flipped_entry_bit(self):
        recs = self._records()
        recs[7] = recs[7]._replace(entry_bit=1 - recs[7].entry_bit)
        assert not verify_certificate(DiagonalCertificate(30, tuple(recs)), all_strings)

    def test_flipped_diagonal_bit(self):
        recs = self._records()
        recs[3] = recs[3]._replace(diagonal_bit=1 - recs[3].diagonal_bit)
        assert not verify_certificate(DiagonalCertificate(30, tuple(recs)), all_strings)

    def test_wrong_position(self):
        recs = self._records()
        recs[5] = recs[5]._replace(position=7)
        assert not verify_certificate(DiagonalCertificate(30, tuple(recs)), all_strings)

    def test_wrong_index(self):
        recs = self._records()
        recs[5] = recs[5]._replace(index=1)
        assert not verify_certificate(DiagonalCertificate(30, tuple(recs)), all_strings)

    def test_missing_record(self):
        recs = self._records()[:-1]
        assert not verify_certificate(DiagonalCertificate(30, tuple(recs)), all_strings)

    def test_unknown_padding_rule(self):
        cert = certify_absence(all_strings, 10)
        odd = DiagonalCertificate(10, cert.records, padding="ones")
        assert not verify_certificate(odd, all_strings)

    def test_wrong_enumeration(self):
        cert = certify_absence(all_strings, 30)
        shifted = [index_to_string(n) for n in range(2, 40)]
        assert not verify_certificate(cert, shifted)

    def test_short_enumeration(self):
        cert = certify_absence(all_strings, 30)
        assert not verify_certificate(cert, [index_to_string(n) for n in range(1, 10)])

    def test_a_diagonal_its_records_do_not_spell(self):
        cert = certify_absence(all_strings, 10)
        assert cert.diagonal == "0011111111"
        # a middle bit, so that no later check (the flags, the prefix scan) sees it
        cert.diagonal = "0011101111"
        assert not verify_certificate(cert, all_strings)

    def test_dishonest_flags(self):
        cert = certify_absence(all_strings, 10)
        lying = DiagonalCertificate(10, cert.records, ends_in_one=False)
        assert not verify_certificate(lying, all_strings)

    def test_a_diagonal_claimed_in_the_prefix(self):
        cert = certify_absence(all_strings, 10)
        assert verify_certificate(DiagonalCertificate(10, cert.records), all_strings)
        lying = DiagonalCertificate(10, cert.records, occurs_in_prefix=True)
        assert not verify_certificate(lying, all_strings)

    def test_exhausted_construction(self):
        with pytest.raises(EnumerationExhausted):
            certify_absence(["1", "01"], 3)

    def test_one_shot_source_is_scanned_within_its_prefix(self):
        # entry 4 spells the stage-3 diagonal; a one-shot source must not
        # count it as part of the prefix of three
        listed = ["1", "01", "11", "001"]
        assert certify_absence(listed, 3).occurs_in_prefix is False
        assert certify_absence(iter(listed), 3).occurs_in_prefix is False


class TestTextFormat:
    def test_layout(self):
        cert = certify_absence(all_strings, 3)
        assert certificate_to_text(cert) == (
            "N=3 pad=zero\n"
            "1 1 1 0\n"
            "2 2 1 0\n"
            "3 3 0 1\n"
        )

    def test_round_trip_is_byte_identical(self):
        for stage in (1, 2, 17, 100):
            text = certificate_to_text(certify_absence(all_strings, stage))
            assert certificate_to_text(certificate_from_text(text)) == text

    def test_parsed_certificates_verify(self):
        text = certificate_to_text(certify_absence(all_strings, 40))
        assert verify_certificate(certificate_from_text(text), all_strings)

    def test_bounds_are_checked_before_any_field_is_parsed(self):
        head, record = "N=1 pad=zero\n", "1 1 1 0\n"
        # at each bound the text parses; one character past it, it is refused
        wide = "0" * (_LINE_CHARS - len(record) + 1) + record
        assert certificate_from_text(head + wide).records == ((1, 1, 1, 0),)
        with pytest.raises(ValueError, match=f"^a line of {_LINE_CHARS + 1} characters, over {_LINE_CHARS}$"):
            certificate_from_text(head + "0" + wide)
        long = head + record + "\n" * (_TEXT_CHARS - len(head + record))
        assert certificate_from_text(long).records == ((1, 1, 1, 0),)
        with pytest.raises(ValueError, match=f"^certificate longer than {_TEXT_CHARS} characters$"):
            certificate_from_text(long + "\n")
        # a long header is refused by length too, not quoted back whole
        with pytest.raises(ValueError, match="^a line of"):
            certificate_from_text("N=" + "1" * 100 + " pad=zero\n")

    def test_the_text_cap_is_four_mebi_characters(self):
        # pinned, not read from `_TEXT_CHARS`: the module's comment times the
        # worst text within this bound.  A text at it passes the text check
        # and fails on its one line; one character more fails before any
        # line is read
        with pytest.raises(ValueError, match="^a line of 4194304 characters, over 80$"):
            certificate_from_text("x" * 4_194_304)
        with pytest.raises(ValueError, match="^certificate longer than 4194304 characters$"):
            certificate_from_text("x" * 4_194_305)

    def test_a_stage_past_the_cap_is_refused_before_any_record_is_split(self):
        # the record line would be a ValueError if it were read
        with pytest.raises(BudgetExceeded) as exc:
            certificate_from_text(f"N={_STAGE_CAP + 1} pad=zero\n1 1 x\n")
        assert exc.value.payload == {"requested": _STAGE_CAP + 1, "cap": _STAGE_CAP}

    def test_the_header_is_refused_before_the_text_is_split(self):
        # 524 000 records fit the text bound; splitting them would take tens of MiB
        text = "N=524000 pad=zero\n" + "0 0 0 0\n" * 524_000
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                certificate_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.payload == {"requested": 524_000, "cap": _STAGE_CAP}
        assert peak < 1 << 20

    @pytest.mark.parametrize("header, fault", [
        (f"N={_STAGE_CAP + 1} pad=zero", BudgetExceeded),
        ("pad=zero N=1", ValueError),
    ])
    def test_a_header_fault_wins_over_a_long_line_after_it(self, header, fault):
        with pytest.raises(fault) as exc:
            certificate_from_text(header + "\n1 1 1 0\n" + "1" * (_LINE_CHARS + 1) + "\n")
        assert not str(exc.value).startswith("a line of")

    @pytest.mark.parametrize("text, header", [
        ("  pad=zero N=3\n", "  pad=zero N=3"),
        ("\n \r\n\x0b\t pad=zero\r\n1 1 1 0\n", "\t pad=zero"),
        ("\x85\u2028 \x1f pad=zero N=1\n", " \x1f pad=zero N=1"),
        # a header at the line bound, after a file-separator break
        ("\x1cpad=zero N=" + "1" * 69 + "\r\n", "pad=zero N=" + "1" * 69),
    ])
    def test_the_header_is_the_first_non_blank_line_as_split(self, text, header):
        assert [line for line in text.splitlines() if line.strip()][0] == header
        with pytest.raises(ValueError) as exc:
            certificate_from_text(text)
        assert str(exc.value) == f"malformed header: {header!r}"

    @pytest.mark.parametrize("text, length", [
        ("N=" + "1" * 100 + " pad=zero", 111),
        ("\n\n  N=" + "1" * 100 + " pad=zero\n" + "1" * 500, 113),
        # one past the bound, and the tab after the last break counts too
        ("\x0b \x1c\tN=" + "1" * 70 + " pad=zero", 82),
    ])
    def test_a_long_header_reports_its_whole_length(self, text, length):
        with pytest.raises(ValueError, match=f"^a line of {length} characters, over {_LINE_CHARS}$"):
            certificate_from_text(text)

    def test_malformed_inputs(self):
        for bad in (
            "",
            "N=x pad=zero\n",
            "pad=zero N=3\n",
            "N=2 pad=zero\n1 1 1 0\n",  # record count mismatch
            "N=1 pad=zero\n1 1 1\n",  # short record
        ):
            with pytest.raises(ValueError):
                certificate_from_text(bad)


entries = st.lists(st.text(alphabet="012", max_size=6), max_size=24)
field_values = st.sampled_from([0, 1, 2, -1, True, False, 1.0, 0.0])
tokens = st.sampled_from(
    ["0", "1", "2", "3", "10", "x", "+1", "-1", "1_0", "\u0663", "1.0", ""])
gaps = st.sampled_from([" ", "  ", "\t", " \t "])
breaks = st.sampled_from(["\n", "\n", "\n", "\r\n", "\n \n", "\n\n", "\x0b"])


@st.composite
def certificate_texts(draw):
    """Certificate-like texts: mostly four-field records of small
    integers, with malformed headers, short and long lines, non-decimal
    tokens, blank lines and odd whitespace mixed in."""
    stage = draw(st.integers(0, 6))
    header = draw(st.sampled_from(
        [f"N={stage} pad=zero", f"N={stage} pad=ones", f"N={stage}",
         f"pad=zero N={stage}", "N=x pad=zero", " N=2  pad=zero ", ""]))
    lines = [header]
    for i in range(1, draw(st.integers(0, 7)) + 1):
        if draw(st.integers(0, 3)):
            fields = [str(i), str(i)] + draw(st.sampled_from([["1", "0"], ["0", "1"]]))
        else:
            fields = draw(st.lists(tokens, min_size=2, max_size=5))
        line = ""
        for field in fields:
            line += draw(gaps) + field if line else field
        lines.append(line)
    text = ""
    for line in lines:
        text += line + draw(breaks)
    return text


class TestAgainstTheReferences:
    @given(entries, st.integers(1, 30))
    @example(["1", "01", "11"], 3)
    @example(["1", "01"], 3)
    def test_builder_on_list_sources(self, source, stage):
        got = outcome(certify_absence, source, stage)
        want = outcome(ref_certify_absence, source, stage)
        assert certificate_fields(got) == certificate_fields(want)
        if isinstance(want, DiagonalCertificate):
            assert diagonal_prefix(source, stage) == want.diagonal
            assert (outcome(verify_certificate, got, source)
                    == outcome(ref_verify_certificate, want, source))

    @given(entries, st.integers(1, 24), st.data())
    @settings(max_examples=300)
    def test_verifier_on_edited_certificates(self, source, stage, data):
        source = source + ["0"] * max(0, stage - len(source))
        records = list(certify_absence(source, stage).records)
        flags = {"ends_in_one": None, "occurs_in_prefix": None}
        for _ in range(data.draw(st.integers(0, 3))):
            edit = data.draw(st.sampled_from(
                ["field", "drop", "repeat", "flag", "stage"]))
            if edit == "field" and records:
                k = data.draw(st.integers(0, len(records) - 1))
                name = data.draw(st.sampled_from(MismatchRecord._fields))
                value = data.draw(field_values | st.integers(-1, stage + 1))
                records[k] = records[k]._replace(**{name: value})
            elif edit == "drop" and records:
                del records[data.draw(st.integers(0, len(records) - 1))]
            elif edit == "repeat" and records:
                records.append(records[-1])
            elif edit == "flag":
                name = data.draw(st.sampled_from(sorted(flags)))
                flags[name] = data.draw(st.sampled_from([None, True, False, 0, 1]))
            elif edit == "stage":
                stage = data.draw(st.integers(0, stage + 2))
        padding = data.draw(st.sampled_from(["zero", "zero", "ones"]))
        against = data.draw(st.sampled_from(["same", "short", "shifted"]))
        if against == "short":
            source = source[:data.draw(st.integers(0, len(source)))]
        elif against == "shifted":
            source = source[1:]
        cert = DiagonalCertificate(stage, tuple(records), padding, **flags)
        assert cert.diagonal == "".join(str(r.diagonal_bit) for r in records)
        if cert.diagonal and data.draw(st.booleans()):  # a diagonal that lies
            k = data.draw(st.integers(0, len(cert.diagonal) - 1))
            lie = "1" if cert.diagonal[k] == "0" else "0"
            cert.diagonal = cert.diagonal[:k] + lie + cert.diagonal[k + 1:]
        assert (outcome(verify_certificate, cert, source)
                == outcome(ref_verify_certificate, cert, source))
        assert certificate_to_text(cert) == ref_certificate_to_text(cert)

    @given(st.integers(1, 60))
    def test_text_of_built_certificates(self, stage):
        cert = certify_absence(all_strings, stage)
        text = certificate_to_text(cert)
        assert text == ref_certificate_to_text(cert)
        assert (certificate_fields(certificate_from_text(text))
                == certificate_fields(ref_certificate_from_text(text)))

    @pytest.mark.parametrize("text, message", [
        ("N=3 pad=zero\n1 1 1 0\n2 x 1 0\n3 3 0\n",
         "invalid literal for int() with base 10: 'x'"),
        ("N=3 pad=zero\n1 1 1 0\n2 2 1\n3 x 0 1\n",
         "malformed record: '2 2 1'"),
    ])
    def test_parser_reports_the_first_fault_in_text_order(self, text, message):
        want = (ValueError, message, None)
        assert outcome(ref_certificate_from_text, text) == want
        assert outcome(certificate_from_text, text) == want

    @given(st.data())
    @settings(max_examples=400)
    def test_parser_on_random_texts(self, data):
        text = data.draw(certificate_texts())
        got = outcome(certificate_from_text, text)
        want = outcome(ref_certificate_from_text, text)
        assert certificate_fields(got) == certificate_fields(want)
        if isinstance(want, DiagonalCertificate):
            assert certificate_to_text(got) == ref_certificate_to_text(want)

