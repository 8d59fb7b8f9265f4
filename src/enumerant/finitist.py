"""Finite witnesses: the even-set counting theorem, enumeration of
countable unions in the order of `enumeration.cantor_pair`, and the two
side-by-side growth tables.

Everything is checked on concrete finite objects; the theorem checker
returns the witnesses themselves, not just a verdict, and the exhaustive
tracer really does enumerate every subset and checks each one through
the witness kernel it shares with the checker.

The module imports no `dataclasses`: the records `EvenSetReport`,
`InductionTrace` and `Table2Row` live in `records`, and each loads with
the function that builds it, after every check that can refuse.
`check_even_set`, `induction_trace` and `table2_row` wrap
`_even_set_fields`, `_induction_fields` and `_table2_fields`, which
return the record's fields, and `theorem --set`, `theorem --exhaustive`
and `table --id 2` print from those, so no command loads `dataclasses`
through this module.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, count
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, TYPE_CHECKING

from . import _EXPORTS
from .errors import (
    EmptySet,
    EnumerationExhausted,
    NotEvenPositiveDistinct,
    _paused_gc,
    _within,
)
from .exactnum import (
    Exact,
    Reciprocal,
    Tower,
    canonicalize,
    log2_interval,
)

if TYPE_CHECKING:  # pragma: no cover
    from .records import EvenSetReport, InductionTrace, Table2Row

__all__ = _EXPORTS["finitist"]


# ---------------------------------------------------------------------------
# the even-set theorem: |{e in E : e > |E|}| >= ceil(|E| / 2)


def _even_set_fields(elements: Iterable[int]) -> tuple[tuple[int, ...], int, tuple[int, ...],
                                                      int, int, bool]:
    """The fields of `check_even_set(elements)` in field order, (elements,
    cardinality, witnesses, witness_count, required, holds).  An empty set
    raises `EmptySet`; an element that is not an int, is a bool, is not
    positive or is odd, or the first repeated one in input order, raises
    `NotEvenPositiveDistinct`."""
    items = list(elements)
    if not items:
        raise EmptySet()
    for x in items:
        if not isinstance(x, int) or isinstance(x, bool) or x <= 0 or x % 2:
            raise NotEvenPositiveDistinct(offender=x)
    if len(set(items)) != len(items):
        counts = Counter(items)
        dup = next(x for x in items if counts[x] > 1)  # first in input order
        raise NotEvenPositiveDistinct(offender=dup, repeated=True)
    ordered = tuple(sorted(items))
    m = len(ordered)
    witnesses = _witnesses(ordered, m)
    required = (m + 1) // 2
    return ordered, m, witnesses, len(witnesses), required, len(witnesses) >= required


def check_even_set(elements: Iterable[int]) -> "EvenSetReport":
    """Count the elements of a finite set of distinct positive even
    numbers that exceed the set's size.

    Sorted, the i-th smallest element is at least 2i, so everything from
    position floor(m/2)+1 on exceeds m; the checker just counts and
    reports rather than trusting that argument.  Refused as
    `_even_set_fields` refuses.
    """
    fields = _even_set_fields(elements)
    from .records import EvenSetReport

    return EvenSetReport(*fields)


def _witnesses(ordered: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The elements of the ascending tuple `ordered` that exceed m."""
    return ordered[bisect_right(ordered, m):]


class InductionLevel(NamedTuple):
    size: int
    subsets_checked: int
    failures: int


# m = 20 takes 0.23-0.43 s in process (10 runs, CPython 3.11, two shared Xeon
# cores); each step doubles it
_INDUCTION_CAP = 20


def _induction_fields(m: int) -> tuple[int, tuple[int, ...], tuple[InductionLevel, ...],
                                       int, bool]:
    """The fields of `induction_trace(m)` in field order, (m, universe,
    levels, total_checked, all_hold).  An m past `_INDUCTION_CAP` raises
    `BudgetExceeded` before any work.

    Each subset is counted through `_witnesses`, the kernel of
    `check_even_set`.  `combinations` of the ascending universe yields
    ascending tuples of distinct positive evens, so the checker's
    validation and sorting would have nothing to do and are skipped.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    _within(m, _INDUCTION_CAP)
    universe = tuple(range(2, 2 * m + 1, 2))
    levels = []
    total = 0
    for size in range(1, m + 1):
        required = (size + 1) // 2
        checked = failures = 0
        for subset in combinations(universe, size):
            checked += 1
            if len(_witnesses(subset, size)) < required:
                failures += 1
        levels.append(InductionLevel(size, checked, failures))
        total += checked
    return m, universe, tuple(levels), total, all(lv.failures == 0 for lv in levels)


def induction_trace(m: int) -> "InductionTrace":
    """Check every nonempty subset of {2, 4, ..., 2m}, smallest sizes
    first, mirroring how the statement climbs from the base case; refused
    as `_induction_fields` refuses."""
    fields = _induction_fields(m)
    from .records import InductionTrace

    return InductionTrace(*fields)


# ---------------------------------------------------------------------------
# countable unions


class UnionItem(NamedTuple):
    row: int
    position: int
    element: object


# the returned list holds `total` items, so the count bounds its memory and,
# for a dense family, its time: a million items of `lambda k: count()` take
# 0.24-0.25 s at a 142 MiB peak RSS, and 100 000 items 0.021-0.022 s at
# 26 MiB (CPython 3.11.7, 2 shared Xeon cores, 5 runs each).  The same cap
# bounds the rows the walk opens, dead rows included, so a sparse family ends
# too: one that takes its million items from row 0 or 1 alone returns, one
# whose every row is empty is refused after 0.34-0.56 s (same host, 5 runs),
# and so is any call whose last item lies on a diagonal past the cap.  The
# bench draws at most 30 000 items and opens fewer than 1 000 rows a call,
# the tests a few hundred of each
_UNION_CAP = 1_000_000
_DRY = object()  # end-of-row marker: rows may yield any value, None included
# tuple.__new__ is all that UnionItem.__new__ does, minus its frame
_new_tuple = tuple.__new__


@_paused_gc
def union_enumerate(family: Callable[[int], Iterable], total: int) -> list[UnionItem]:
    """First `total` elements of a union of countably many sequences.

    `family(k)` yields the k-th sequence (k = 0, 1, ...); pairs (row,
    position) are visited in pairing-code order, so element j of row i
    appears by step (i+j)(i+j+1)/2 + j at the latest.  The walk goes
    diagonal by diagonal: diagonal s opens row s and takes one element
    from every live row, highest row first, which is pairing-code order
    within the diagonal.  Exhausted rows are dropped; a family with
    finitely many rows signals the end by raising IndexError for
    out-of-range rows, and once every row has run dry the union itself
    is exhausted.  A count past `_UNION_CAP` is refused with
    `BudgetExceeded` before `family` is called, and so is a walk that
    would open a row past it.

    The cyclic collector is paused for the call, `family` and its rows
    included, and on again when it returns or raises (left off if it was
    off): each young pass would walk the items gathered so far.  So
    cyclic garbage that `family` makes is collected only after the call
    returns, and a `gc.disable()` from another thread during the call
    may find the collector on again when the call ends.
    """
    if total < 0:
        raise ValueError("need a nonnegative count")
    _within(total, _UNION_CAP)
    out: list[UnionItem] = []
    if total == 0:
        return out
    live: list[tuple[int, Iterator]] = []  # rows not yet run dry, highest first
    bounded = False  # a family(k) raised IndexError: no row past k exists
    for s in count(0):
        if not bounded:
            _within(s, _UNION_CAP)
            try:
                live.insert(0, (s, iter(family(s))))
            except IndexError:
                bounded = True
        if bounded and not live:
            raise EnumerationExhausted(requested=total, available=len(out))
        kept = []
        for pair in live:
            i, row = pair
            element = next(row, _DRY)
            if element is _DRY:
                continue
            kept.append(pair)
            out.append(_new_tuple(UnionItem, (i, s - i, element)))
            if len(out) == total:
                return out
        live = kept


# ---------------------------------------------------------------------------
# the two growth tables


class Table1Row(NamedTuple):
    """Row n of the everywhere-defined bijection table: n, 2n, n**2, 1/n."""

    n: int
    double: int
    square: int
    reciprocal: Fraction

    def cells(self) -> tuple[str, ...]:
        return tuple(map(str, self))


def table1_row(n: int) -> Table1Row:
    """Row n of table 1, (n, 2n, n**2, 1/n), for n >= 1."""
    if n < 1:
        raise ValueError("rows start at n=1")
    return Table1Row(n, 2 * n, n * n, Fraction(1, n))


# the u64 scale: row cells up to 19 digits print in full, 2**64 stays symbolic
TABLE2_DIGIT_BUDGET = 19
# row n prints n! and 1/n! in full, so rows 1..N take time about cubic in N:
# `table --id 2 --rows` at this cap takes 0.51 s wall in plain and csv and
# 0.53-0.54 s in json-lines (CPython 3.11.7, two shared Xeon cores, 5 runs each)
_TABLE2_ROWS_CAP = 1500


def _table2_fields(n: int, digit_budget: int = TABLE2_DIGIT_BUDGET,
                   log2_precision_bits: int = 32) -> tuple:
    """The fields of `table2_row` in field order: n, then the cells.  An n
    past `_TABLE2_ROWS_CAP` raises `BudgetExceeded` before any cell is
    built."""
    if n < 1:
        raise ValueError("rows start at n=1")
    _within(n, _TABLE2_ROWS_CAP)
    log2_n = log2_interval(n, log2_precision_bits)  # checks its budget first
    f = factorial(n)
    two_pow_fact = canonicalize(Tower(2, Exact(f)), digit_budget)  # checks the budget
    return (n, Reciprocal(two_pow_fact), Fraction(1, f), log2_n, Exact(n),
            canonicalize(Tower(2, Exact(n)), digit_budget), Exact(f), two_pow_fact,
            canonicalize(Tower(2, two_pow_fact), digit_budget))


def _table2_cells(fields: tuple) -> tuple[str, ...]:
    """A table-2 row's printed cells: the fields after n, in field order."""
    return tuple(map(str, fields[1:]))


def table2_row(n: int, digit_budget: int = TABLE2_DIGIT_BUDGET,
               log2_precision_bits: int = 32) -> "Table2Row":
    """Row n, refused as `_table2_fields` refuses."""
    fields = _table2_fields(n, digit_budget, log2_precision_bits)
    from .records import Table2Row

    return Table2Row(*fields)
