import inspect
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from enumerant.enumeration import (
    ColumnPosition,
    Entry,
    all_strings,
    approximate,
    column_entries,
    column_index,
    column_of,
    entries,
    index_to_string,
    index_to_string_recursive,
    locate_value,
    string_to_index,
)
from enumerant.errors import DepthZero, EmptyString, NotInImage, OutOfRange, ZeroIndex
from enumerant.exactnum import DyadicRational, dyadic_from_string
from enumerant.reals import RationalStream, SqrtStream

# the enumeration starts, column by column, exactly like this
FIRST_FIFTEEN = [
    "1",
    "01", "11",
    "001", "101", "011", "111",
    "0001", "1001", "0101", "1101", "0011", "1011", "0111", "1111",
]


class TestIndexToString:
    def test_first_fifteen(self):
        assert [index_to_string(n) for n in range(1, 16)] == FIRST_FIFTEEN

    def test_recursive_construction_agrees(self):
        for n in range(1, 4097):
            assert index_to_string_recursive(n) == index_to_string(n)

    def test_rejects_zero_and_negatives(self):
        for bad in (0, -1, -7):
            with pytest.raises(ZeroIndex):
                index_to_string(bad)
            with pytest.raises(ZeroIndex):
                index_to_string_recursive(bad)

    @given(st.integers(1, 10**45))
    def test_every_entry_ends_in_one_and_has_the_right_length(self, n):
        s = index_to_string(n)
        assert s.endswith("1")
        assert len(s) == n.bit_length()


class TestRoundTrip:
    def test_exhaustive_small(self):
        for n in range(1, 10_001):
            assert string_to_index(index_to_string(n)) == n

    @given(st.integers(1, 10**45))
    def test_random_large(self, n):
        assert string_to_index(index_to_string(n)) == n

    def test_image_characterization(self):
        # indices below 2**12 are exactly the <=12-bit strings ending in 1,
        # one each, with pairwise distinct values
        seen = {index_to_string(n) for n in range(1, 1 << 12)}
        assert len(seen) == (1 << 12) - 1
        assert all(s.endswith("1") and len(s) <= 12 for s in seen)
        values = {dyadic_from_string(s).value for s in seen}
        assert len(values) == len(seen)


class TestStringToIndex:
    def test_trailing_zeros_blocked_with_equivalent(self):
        with pytest.raises(NotInImage) as exc:
            string_to_index("10")
        assert exc.value.payload["equivalent"] == 1
        assert str(exc.value) == "NotInImage equivalent=1"

        with pytest.raises(NotInImage) as exc:
            string_to_index("0110")
        assert exc.value.payload["equivalent"] == 6
        # and the two strings really do denote the same value
        assert dyadic_from_string("0110") == dyadic_from_string("011")

    def test_all_zero_strings(self):
        with pytest.raises(NotInImage):
            string_to_index("000")

    def test_empty_and_malformed(self):
        with pytest.raises(EmptyString):
            string_to_index("")
        with pytest.raises(ValueError):
            string_to_index("0a1")


class TestColumns:
    def test_positions(self):
        assert column_of(1) == ColumnPosition(1, 1)
        assert column_of(2) == ColumnPosition(2, 1)
        assert column_of(3) == ColumnPosition(2, 2)
        assert column_of(5) == ColumnPosition(3, 2)

    @given(st.integers(1, 10**18))
    def test_round_trip(self, n):
        col, pos = column_of(n)
        assert column_index(col, pos) == n

    def test_column_entries_sizes_and_membership(self):
        for k in range(1, 11):
            block = list(column_entries(k))
            assert len(block) == 1 << (k - 1)
            assert all(len(s) == k and s.endswith("1") for s in block)

    def test_bad_arguments(self):
        with pytest.raises(ZeroIndex):
            column_of(0)
        with pytest.raises(ZeroIndex):
            column_index(3, 5)  # column 3 has positions 1..4
        with pytest.raises(ZeroIndex):
            next(column_entries(0))


class TestEntries:
    def test_first_entries_carry_values(self):
        got = list(entries(4))
        assert [(e.index, e.bits, e.value.value) for e in got] == [
            (1, "1", Fraction(1, 2)),
            (2, "01", Fraction(1, 4)),
            (3, "11", Fraction(3, 4)),
            (4, "001", Fraction(1, 8)),
        ]

    def test_count_zero_is_empty(self):
        assert list(entries(0)) == []

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError):
            list(entries(-1))

    def test_rows_are_entries(self):
        for row in entries(1 << 13):
            assert type(row) is Entry
            bits = index_to_string(row.index)
            assert row == Entry(row.index, bits, dyadic_from_string(bits))
            assert row._replace(index=0) == Entry(0, bits, dyadic_from_string(bits))


class TestAllStrings:
    def test_agrees_with_the_recursive_construction(self):
        for n, bits in enumerate(islice(all_strings(), (1 << 12) + 300), 1):
            assert bits == index_to_string_recursive(n)

    def test_byte_seams(self):
        # entry 256*h + j is the reversed low byte j followed by entry h
        got = list(islice(all_strings(), 65537))
        for n in (255, 256, 257, 511, 512, 65535, 65536, 65537):
            assert got[n - 1] == index_to_string(n), n

    def test_is_a_generator_function(self):
        # a lazy stream, one item per step
        assert inspect.isgeneratorfunction(all_strings)

    def test_streams_in_constant_memory(self):
        tracemalloc.start()
        try:
            deque(islice(all_strings(), 10 ** 6), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLocateValue:
    def test_frozen_lookups(self):
        assert locate_value(DyadicRational(1, 1)) == 1  # 1/2 -> "1"
        assert locate_value(DyadicRational(3, 3)) == 6  # 3/8 -> "011"
        assert locate_value(DyadicRational(7, 4)) == 14  # 7/16 -> "0111"

    def test_one_is_not_enumerated(self):
        with pytest.raises(OutOfRange):
            locate_value(DyadicRational(1, 0))

    @given(st.integers(1, 50), st.data())
    def test_inverse_of_the_value_map(self, exponent, data):
        numerator = data.draw(
            st.integers(0, (1 << (exponent - 1)) - 1)) * 2 + 1
        d = DyadicRational(numerator, exponent)
        n = locate_value(d)
        assert dyadic_from_string(index_to_string(n)) == d


class TestApproximate:
    def test_depth_must_be_positive(self):
        with pytest.raises(DepthZero):
            approximate(SqrtStream(2, 1), 0)

    def test_irrational_target(self):
        rep = approximate(SqrtStream(2, 1), 8)
        assert rep.verdict == "no-finite-index"
        assert rep.member_index is None and rep.reason
        assert rep.prefix == "01101010"
        assert rep.best_index == 86
        assert rep.best_value == DyadicRational(53, 7)
        assert rep.error_bound == Fraction(1, 512)

    def test_dyadic_target_is_an_exact_member(self):
        rep = approximate(RationalStream(5, 16), 3)
        assert rep.verdict == "exact-member"
        assert rep.member_index == 10 and rep.best_index == 10
        assert rep.error_bound == 0
        assert rep.best_bits == "0101"

    def test_non_dyadic_rational_target(self):
        rep = approximate(RationalStream(1, 3), 6)
        assert rep.verdict == "no-finite-index"
        assert rep.best_index == 42
        assert rep.best_value == DyadicRational(21, 6)
        assert rep.error_bound == Fraction(1, 128)

    def test_error_bound_is_honest(self):
        # sandwich the target far deeper and check the distance estimate
        for depth in (5, 9, 14):
            stream = SqrtStream(2, 1)
            rep = approximate(stream, depth)
            deep = 50
            scaled = int(stream.prefix(deep), 2)
            lo = Fraction(scaled, 1 << deep)
            hi = Fraction(scaled + 1, 1 << deep)
            worst = max(abs(rep.best_value.value - lo),
                        abs(rep.best_value.value - hi))
            assert worst <= rep.error_bound

    def test_prefix_at_the_bottom_edge(self):
        rep = approximate(RationalStream(1, 1000), 3)  # 0.001 ~ 0.000000001b
        assert rep.prefix == "000"
        assert rep.best_value == DyadicRational(1, 3)
        assert rep.error_bound == Fraction(1, 8)

    def test_prefix_at_the_top_edge(self):
        rep = approximate(RationalStream(999, 1000), 3)
        assert rep.prefix == "111"
        assert rep.best_value == DyadicRational(7, 3)
        assert rep.error_bound == Fraction(1, 8)

    def test_every_cell_against_the_three_case_rule(self):
        # the end cells spelled as their own cases: 0 and 1 are not
        # enumerated, so both take their inner endpoint, at twice the bound
        def three_cases(scaled, extra, depth):
            top = 1 << depth
            if scaled == 0:
                return DyadicRational(1, depth), Fraction(1, top)
            if scaled == top - 1:
                return DyadicRational(scaled, depth), Fraction(1, top)
            lower_half = extra == "0"
            best = DyadicRational(scaled if lower_half else scaled + 1, depth)
            return best, Fraction(1, 2 * top)

        for depth in range(1, 13):
            for scaled in range(1 << depth):
                for extra in "01":
                    rep = approximate(_Bits(format(scaled, f"0{depth}b") + extra), depth)
                    assert (rep.best_value, rep.error_bound) == three_cases(
                        scaled, extra, depth), (depth, scaled, extra)
                    assert rep.best_index == string_to_index(rep.best_value.bits())


class _Bits:
    """A stand-in real: a fixed bit prefix, never a dyadic."""

    name = "bits"

    def __init__(self, bits):
        self.bits = bits

    def prefix(self, n):
        return self.bits[:n]

    def exact_dyadic(self):
        return None
