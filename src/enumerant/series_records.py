"""The records of `series`: a harmonic doubling block and a partial sum
of tau.

Each record loads with the function that builds it: `oresme_block` and
`liouville_partial` import theirs in their bodies, after every check that
can refuse, so `series` imports no `dataclasses`.  No command loads this
module: `harmonic` and `series --name tau` print the fields that
`series._oresme_fields` and `series._liouville_fields` return, and the
block's rules, `terms` and `at_least_half`, are the functions of `series`
that the command calls too.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _EXPORTS
from .series import _at_least_half, _block_terms

__all__ = _EXPORTS["series_records"]


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
