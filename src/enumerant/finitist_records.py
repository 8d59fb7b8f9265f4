"""The records of `finitist`: the even-set report, the exhaustive trace
and a row of growth table 2.

Each record loads with the function that builds it: `check_even_set`,
`induction_trace` and `table2_row` import theirs in their bodies, after
every check that can refuse, so `finitist` imports no `dataclasses`.  Of
the commands only `theorem --set` loads this module: `theorem
--exhaustive` and `table --id 2` print the fields that
`finitist._induction_fields` and `finitist._table2_fields` return, and
`Table2Row.cells()` is `finitist._table2_cells`, which `table` calls too.
"""

# the class statements evaluate the field types, so a missing import fails
# the import of this module; a builder has loaded them all before it
# imports its record
from dataclasses import dataclass
from fractions import Fraction

from . import _EXPORTS
from .exactnum import Magnitude, RationalInterval, Reciprocal
from .finitist import InductionLevel, _table2_cells

__all__ = _EXPORTS["finitist_records"]


@dataclass(frozen=True)
class EvenSetReport:
    """What `check_even_set` found for one finite set of distinct
    positive evens: the sorted elements and their count, the witnesses
    (the elements that exceed the count) and how many there are, the
    ceil(cardinality / 2) witnesses the theorem requires, and whether
    there are that many."""

    elements: tuple[int, ...]  # sorted
    cardinality: int
    witnesses: tuple[int, ...]  # the elements exceeding the cardinality
    witness_count: int
    required: int  # ceil(cardinality / 2)
    holds: bool


@dataclass(frozen=True)
class InductionTrace:
    """What `induction_trace(m)` checked: every nonempty subset of the
    universe {2, 4, ..., 2m}, one level per subset size, smallest first,
    with the number of subsets checked and whether the theorem held on
    all of them."""

    m: int
    universe: tuple[int, ...]  # {2, 4, ..., 2m}
    levels: tuple[InductionLevel, ...]
    total_checked: int
    all_hold: bool


@dataclass(frozen=True)
class Table2Row:
    """Row n of the fast-growth table, slowest column first:

    1/2**(n!), 1/n!, log2(n), n, 2**n, n!, 2**(n!), 2**(2**(n!)).

    Huge cells stay symbolic under the digit budget; log2(n) is only
    ever exposed as a certified enclosure (exact for powers of two).
    """

    n: int
    recip_two_pow_fact: Reciprocal
    recip_fact: Fraction
    log2_n: RationalInterval
    n_value: Magnitude
    two_pow: Magnitude
    fact: Magnitude
    two_pow_fact: Magnitude
    tower: Magnitude  # 2**(2**(n!))

    def cells(self) -> tuple[str, ...]:
        return _table2_cells([getattr(self, name) for name in self.__match_args__])
