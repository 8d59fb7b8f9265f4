"""The report records, frozen dataclasses: what `approximate` finds for a
real, a harmonic doubling block, a partial sum of tau, the even-set
report, the exhaustive trace and a row of growth table 2.

Each record loads with the function that builds it: `approximate`,
`oresme_block`, `liouville_partial`, `check_even_set`, `induction_trace`
and `table2_row` import theirs in their bodies, after every check that
can refuse, so no other module imports `dataclasses`.  No command loads
this module: each prints the fields that the builder's private field
function returns (`enumeration._approximate_fields`,
`series._oresme_fields`, `series._liouville_fields`,
`finitist._even_set_fields`, `finitist._induction_fields` and
`finitist._table2_fields`).  The block's rules, `terms` and
`at_least_half`, and `Table2Row.cells()` are the functions of `series`
and `finitist` that the commands call too.
"""

# the class statements evaluate the field types, so a missing import fails
# the import of this module; a builder has loaded them all before it
# imports its record
from dataclasses import dataclass
from fractions import Fraction

from . import _EXPORTS
from .dyadic import DyadicRational
from .exactnum import Magnitude, RationalInterval, Reciprocal
from .finitist import InductionLevel, _table2_cells
from .series import _at_least_half, _block_terms

__all__ = _EXPORTS["records"]


@dataclass(frozen=True)
class ApproximationReport:
    """Outcome of hunting a real number through the enumeration.

    `verdict` is "exact-member" when the target is a dyadic rational in
    (0, 1) (then `member_index` is its index), else "no-finite-index"
    with a `reason`.  In both cases `best_*` give the enumerated value
    nearest the target at the examined depth, with a proven error bound.
    """

    target: str
    depth: int
    prefix: str
    verdict: str
    member_index: int | None
    reason: str | None
    best_index: int
    best_bits: str
    best_value: DyadicRational
    error_bound: Fraction


@dataclass(frozen=True)
class OresmeBlock:
    """The k-th doubling block of the harmonic series.

    Block k sums 1/i for i in (2**(k-1), 2**k]; each of its 2**(k-1)
    terms is at least 1/2**k, so the block total is at least 1/2, which
    is what makes the partial sums pass every bound.
    """

    k: int
    first: int
    last: int
    total: Fraction

    @property
    def terms(self) -> int:
        return _block_terms(self.first, self.last)

    @property
    def at_least_half(self) -> bool:
        return _at_least_half(self.total)


@dataclass(frozen=True)
class LiouvillePartial:
    """Sum of 10**-(v!) for v in 1..m: decimal 1s exactly at the factorial
    places 1, 2, 6, 24, ..., m!, and a tail strictly below 2*10**-((m+1)!)."""

    m: int
    value: Fraction
    one_places: tuple[int, ...]
    tail_bound: Fraction


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
