import pytest
from hypothesis import example, given, strategies as st

from enumerant.diagonal import (
    DiagonalCertificate,
    MismatchRecord,
    certificate_from_text,
    certificate_to_text,
    certify_absence,
    diagonal_prefix,
    verify_certificate,
)
from enumerant.enumeration import all_strings, index_to_string
from enumerant.errors import EnumerationExhausted


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

    def test_dishonest_flags(self):
        cert = certify_absence(all_strings, 10)
        lying = DiagonalCertificate(10, cert.records, ends_in_one=False)
        assert not verify_certificate(lying, all_strings)

    def test_exhausted_construction(self):
        with pytest.raises(EnumerationExhausted):
            certify_absence(["1", "01"], 3)


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
