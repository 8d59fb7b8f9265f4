import random
from fractions import Fraction
from itertools import combinations, count
from math import factorial

import pytest
from hypothesis import given, strategies as st

from enumerant import finitist
from enumerant.enumeration import (
    cantor_pair,
    cantor_unpair,
    column_entries,
    column_index,
    index_to_string,
)
from enumerant.errors import (
    BudgetExceeded,
    EmptySet,
    EnumerationExhausted,
    NotEvenPositiveDistinct,
)
from enumerant.exactnum import Exact, Tower, magnitude_cmp
from enumerant.finitist import (
    TABLE2_DIGIT_BUDGET,
    UnionItem,
    _UNION_CAP,
    _witnesses,
    check_even_set,
    induction_trace,
    table1_row,
    table2_row,
    union_enumerate,
)

even_sets = st.sets(
    st.integers(min_value=1, max_value=10 ** 6).map(lambda k: 2 * k),
    min_size=1,
    max_size=80,
)


class TestEvenSetTheorem:
    def test_smallest_cases(self):
        one = check_even_set([2])
        assert (one.cardinality, one.witnesses, one.required) == (1, (2,), 1)
        assert one.holds

        two = check_even_set([4, 2])
        assert two.elements == (2, 4)
        assert two.witnesses == (4,)
        assert two.holds

        three = check_even_set({2, 4, 6})
        assert three.witnesses == (4, 6)
        assert (three.witness_count, three.required) == (2, 2)
        assert three.holds

    def test_consecutive_evens_are_the_worst_case(self):
        # {2, 4, ..., 2m} achieves the bound with equality
        for m in range(1, 51):
            report = check_even_set(range(2, 2 * m + 1, 2))
            assert report.holds
            assert report.witness_count == report.required == (m + 1) // 2

    def test_spread_out_sets_have_slack(self):
        report = check_even_set([100, 200, 300])
        assert report.witness_count == 3 > report.required

    @given(even_sets)
    def test_every_valid_set_holds(self, elements):
        report = check_even_set(elements)
        assert report.holds
        # sorted position i (1-based) carries an element >= 2i
        for i, e in enumerate(report.elements, start=1):
            assert e >= 2 * i

    def test_rejections(self):
        with pytest.raises(EmptySet):
            check_even_set([])
        for bad in ([2, 3], [0], [-4], [2, True], [2, 4.0]):
            with pytest.raises(NotEvenPositiveDistinct):
                check_even_set(bad)
        with pytest.raises(NotEvenPositiveDistinct) as exc:
            check_even_set([2, 4, 2])
        assert exc.value.payload == {"offender": 2, "repeated": True}

    def test_offender_is_reported(self):
        with pytest.raises(NotEvenPositiveDistinct) as exc:
            check_even_set([2, 7, 4])
        assert str(exc.value) == "NotEvenPositiveDistinct offender=7"

    def test_repeat_offender_is_the_first_repeated_element_in_input_order(self):
        # 2 is the first element seen twice, but 4 comes first in the input
        with pytest.raises(NotEvenPositiveDistinct) as exc:
            check_even_set([4, 2, 2, 4])
        assert exc.value.payload == {"offender": 4, "repeated": True}

    def test_repeat_at_the_end_of_a_long_input(self):
        n = 10 ** 5
        with pytest.raises(NotEvenPositiveDistinct) as exc:
            check_even_set(list(range(2, 2 * n + 1, 2)) + [2 * n])
        assert exc.value.payload == {"offender": 2 * n, "repeated": True}

    @given(st.lists(st.integers(0, 40), max_size=30).map(sorted), st.integers(-2, 45))
    def test_witness_kernel_is_the_elements_above_m(self, ordered, m):
        ordered = tuple(ordered)
        assert _witnesses(ordered, m) == tuple(e for e in ordered if e > m)


class TestInductionTrace:
    def test_exhaustive_over_four(self):
        trace = induction_trace(4)
        assert trace.universe == (2, 4, 6, 8)
        assert [lv.subsets_checked for lv in trace.levels] == [4, 6, 4, 1]
        assert trace.total_checked == 15
        assert all(lv.failures == 0 for lv in trace.levels)
        assert trace.all_hold

    def test_subset_counts_are_binomials(self):
        trace = induction_trace(8)
        assert trace.total_checked == 2 ** 8 - 1
        assert trace.all_hold

    def test_levels_match_the_checker_on_every_subset(self):
        for m in range(1, 13):
            universe = range(2, 2 * m + 1, 2)
            oracle = [(size, len(subsets), sum(not check_even_set(s).holds for s in subsets))
                      for size in range(1, m + 1)
                      for subsets in [list(combinations(universe, size))]]
            trace = induction_trace(m)
            assert [tuple(lv) for lv in trace.levels] == oracle
            assert trace.total_checked == 2 ** m - 1

    def test_a_subset_short_of_one_witness_is_a_failure(self, monkeypatch):
        # with one witness dropped, exactly the subsets that meet the bound
        # with equality must fail
        m = 8
        universe = range(2, 2 * m + 1, 2)
        tight = [sum(r.witness_count == r.required
                     for r in map(check_even_set, combinations(universe, size)))
                 for size in range(1, m + 1)]
        kernel = finitist._witnesses
        monkeypatch.setattr(finitist, "_witnesses", lambda ordered, m: kernel(ordered, m)[1:])
        trace = induction_trace(m)
        assert [lv.failures for lv in trace.levels] == tight
        assert not trace.all_hold

    def test_cap(self):
        with pytest.raises(BudgetExceeded) as exc:
            induction_trace(21)
        assert exc.value.payload == {"requested": 21, "cap": 20}
        with pytest.raises(ValueError):
            induction_trace(0)


class TestPairing:
    def test_frozen_codes(self):
        # the first diagonal sweep
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 0) == 1
        assert cantor_pair(0, 1) == 2
        assert cantor_pair(2, 0) == 3
        assert cantor_pair(1, 1) == 4
        assert cantor_pair(0, 2) == 5
        assert cantor_pair(1, 2) == 8

    def test_bijection_on_an_initial_segment(self):
        seen = set()
        for code in range(10 ** 4):
            i, j = cantor_unpair(code)
            assert cantor_pair(i, j) == code
            seen.add((i, j))
        assert len(seen) == 10 ** 4

    def test_round_trip_from_pairs(self):
        for i in range(60):
            for j in range(60):
                assert cantor_unpair(cantor_pair(i, j)) == (i, j)

    @given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
    def test_round_trip_large(self, i, j):
        assert cantor_unpair(cantor_pair(i, j)) == (i, j)

    def test_domain(self):
        with pytest.raises(ValueError):
            cantor_pair(-1, 0)
        with pytest.raises(ValueError):
            cantor_unpair(-1)


def column_family(k):
    return column_entries(k + 1)


class TestUnionEnumeration:
    def test_frozen_prefix_over_the_column_family(self):
        items = union_enumerate(column_family, 8)
        assert [it.element for it in items] == [
            "1", "01", "001", "11", "0001", "101", "00001", "1001",
        ]
        assert items[0] == UnionItem(0, 0, "1")
        assert items[3] == UnionItem(1, 1, "11")

    def test_rows_and_positions_are_faithful(self):
        for it in union_enumerate(column_family, 200):
            expected = index_to_string(column_index(it.row + 1, it.position + 1))
            assert expected == it.element

    def test_single_infinite_row(self):
        def fam(k):
            if k:
                raise IndexError(k)
            return iter(range(10 ** 9))

        items = union_enumerate(fam, 12)
        assert items == [UnionItem(0, j, j) for j in range(12)]

    def test_two_infinite_rows_alternate(self):
        def fam(k):
            if k > 1:
                raise IndexError(k)
            tag = "ab"[k]
            return (f"{tag}{n}" for n in range(10 ** 9))

        got = [it.element for it in union_enumerate(fam, 10)]
        assert got == ["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4"]

    def test_finite_family_is_exhausted_honestly(self):
        data = [["a", "b"], ["c"]]

        def fam(k):
            return iter(data[k])

        assert [it.element for it in union_enumerate(fam, 3)] == ["a", "c", "b"]
        with pytest.raises(EnumerationExhausted) as exc:
            union_enumerate(fam, 10)
        assert exc.value.payload == {"requested": 10, "available": 3}

    def test_empty_family(self):
        def fam(k):
            raise IndexError(k)

        assert union_enumerate(fam, 0) == []
        with pytest.raises(EnumerationExhausted):
            union_enumerate(fam, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            union_enumerate(column_family, -1)

    def test_cap_refuses_before_the_family_is_called(self):
        # no command reaches this cap, so it is frozen here
        def fam(k):
            raise AssertionError("the budget was checked after the walk began")

        with pytest.raises(BudgetExceeded) as exc:
            union_enumerate(fam, _UNION_CAP + 1)
        assert exc.value.payload == {"requested": _UNION_CAP + 1, "cap": _UNION_CAP}

    @pytest.mark.parametrize("live, total", [({}, 1), ({0: [7]}, 2)])
    def test_a_family_whose_live_rows_run_dry_is_refused(self, live, total):
        # no row raises IndexError, so only the cap on rows opened ends the walk
        opened = []

        def fam(k):
            opened[:] = [k]
            return live.get(k, [])

        with pytest.raises(BudgetExceeded) as exc:
            union_enumerate(fam, total)
        assert exc.value.payload == {"requested": _UNION_CAP + 1, "cap": _UNION_CAP}
        assert opened == [_UNION_CAP]  # row cap + 1 is refused before it is opened

    def test_items_are_union_items(self):
        def bounded(k):
            if k > 2:
                raise IndexError(k)
            return iter(range(k + 1))

        def sparse(k):
            return count(k << 32) if k in (1, 3) else iter(())

        cases = [
            (lambda k: count(k << 32), 40, lambda i, j: (i << 32) + j),
            (sparse, 40, lambda i, j: (i << 32) + j),
            (bounded, 6, lambda i, j: j),
        ]
        for family, total, element in cases:
            items = union_enumerate(family, total)
            assert len(items) == total
            for it in items:
                assert type(it) is UnionItem
                assert it == UnionItem(it.row, it.position, element(it.row, it.position))
                assert it._replace(element=None) == UnionItem(it.row, it.position, None)

    @given(st.lists(st.integers(0, 12), max_size=10), st.booleans(), st.data())
    def test_matches_sorted_pairing_codes(self, lengths, bounded, data):
        # oracle: sort every available (code, row, position); rows past the
        # list raise IndexError (bounded) or are empty (unbounded)
        available = sorted((cantor_pair(i, j), i, j)
                           for i, n in enumerate(lengths) for j in range(n))
        top = len(available) + 3 if bounded else len(available)
        total = data.draw(st.integers(0, top))
        calls = []

        def fam(k):
            calls.append(k)
            if k < len(lengths):
                return iter([(k, j) for j in range(lengths[k])])
            if bounded:
                raise IndexError(k)
            return iter(())

        if total > len(available):
            with pytest.raises(EnumerationExhausted) as exc:
                union_enumerate(fam, total)
            assert exc.value.payload == {"requested": total, "available": len(available)}
            assert calls == list(range(len(lengths) + 1))
            return
        items = union_enumerate(fam, total)
        assert [(it.row, it.position) for it in items] == [(i, j) for _, i, j in available[:total]]
        assert all(it.element == (it.row, it.position) for it in items)
        # each row is opened once, in order, and none past the last diagonal used
        last = items[-1].row + items[-1].position if items else -1
        opened = min(last, len(lengths)) if bounded else last
        assert calls == list(range(opened + 1))


class TestTableOne:
    def test_frozen_rows(self):
        assert table1_row(1).cells() == ("1", "2", "1", "1")
        assert table1_row(2).cells() == ("2", "4", "4", "1/2")
        assert table1_row(3).cells() == ("3", "6", "9", "1/3")

    def test_columns(self):
        row = table1_row(10)
        assert (row.double, row.square, row.reciprocal) == (20, 100, Fraction(1, 10))

    @given(st.integers(1, 10 ** 9))
    def test_row_arithmetic(self, n):
        row = table1_row(n)
        assert row.double == 2 * n
        assert row.square == n * n
        assert row.reciprocal * n == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            table1_row(0)


class TestTableTwo:
    def test_frozen_row_one(self):
        assert table2_row(1).cells() == ("1/2", "1", "0", "1", "2", "1", "2", "4")

    def test_frozen_row_two(self):
        assert table2_row(2).cells() == ("1/4", "1/2", "1", "2", "4", "2", "4", "16")

    def test_frozen_row_three(self):
        cells = table2_row(3).cells()
        assert cells[0] == "1/64"
        assert cells[1] == "1/6"
        assert cells[2].startswith("[") and cells[2].endswith("]")
        assert cells[3:] == ("3", "8", "6", "64", "2^(64)")

    def test_the_u64_cell_stays_symbolic(self):
        row = table2_row(3)
        assert row.tower == Tower(2, Exact(64))
        assert row.two_pow_fact == Exact(64)

    def test_budget_controls_materialization(self):
        frugal = table2_row(5)
        assert frugal.two_pow_fact == Tower(2, Exact(120))
        assert frugal.tower == Tower(2, Tower(2, Exact(120)))

        generous = table2_row(5, digit_budget=10 ** 4)
        assert generous.two_pow_fact == Exact(2 ** 120)
        assert generous.tower == Tower(2, Exact(2 ** 120))

    def test_default_budget_is_the_u64_scale(self):
        assert TABLE2_DIGIT_BUDGET == 19
        assert 2 ** 63 < 10 ** TABLE2_DIGIT_BUDGET < 2 ** 64

    def test_each_column_grows_down_the_table(self):
        rows = [table2_row(n) for n in range(2, 21)]
        for above, below in zip(rows, rows[1:]):
            for field in ("n_value", "two_pow", "fact", "two_pow_fact", "tower"):
                assert magnitude_cmp(getattr(above, field), getattr(below, field)) < 0

    def test_columns_grow_left_to_right_from_four_on(self):
        for n in range(4, 21):
            row = table2_row(n)
            chain = [row.n_value, row.two_pow, row.fact, row.two_pow_fact, row.tower]
            for small, large in zip(chain, chain[1:]):
                assert magnitude_cmp(small, large) < 0

    def test_small_rows_cross_over(self):
        # 2**n still beats n! at n = 2 and 3
        for n in (2, 3):
            row = table2_row(n)
            assert magnitude_cmp(row.two_pow, row.fact) > 0

    def test_log2_column_separates_consecutive_rows(self):
        rows = [table2_row(n) for n in range(1, 21)]
        for above, below in zip(rows, rows[1:]):
            assert above.log2_n.hi < below.log2_n.lo

    def test_reciprocal_columns_match(self):
        row = table2_row(4)
        assert row.recip_fact == Fraction(1, 24)
        assert row.recip_two_pow_fact.denominator == row.two_pow_fact
        assert row.fact == Exact(factorial(4))

    def test_domain(self):
        with pytest.raises(ValueError):
            table2_row(0)

    def test_a_negative_digit_budget_is_refused(self):
        # once 10 ** -1, a float, reached the magnitude sandwich
        with pytest.raises(ValueError, match="nonnegative"):
            table2_row(3, -1)

    def test_row_cap(self):
        cap = finitist._TABLE2_ROWS_CAP
        assert table2_row(cap).fact == Exact(factorial(cap))
        with pytest.raises(BudgetExceeded) as exc:
            table2_row(cap + 1)
        assert str(exc.value) == f"BudgetExceeded requested={cap + 1} cap={cap}"

    def test_log2_precision_cap(self):
        at_cap = table2_row(3, log2_precision_bits=1 << 15)
        assert at_cap.log2_n.width == Fraction(1, 1 << (1 << 15))
        for n in (1, 3):
            with pytest.raises(BudgetExceeded) as exc:
                table2_row(n, log2_precision_bits=(1 << 15) + 1)
            assert str(exc.value) == "BudgetExceeded requested=32769 cap=32768"


class TestRandomizedEvenSets:
    def test_seeded_sample(self):
        rng = random.Random(99)
        for _ in range(500):
            size = rng.randint(1, 60)
            elements = rng.sample(range(2, 4000, 2), size)
            assert check_even_set(elements).holds
