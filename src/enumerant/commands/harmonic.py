"""``harmonic``: the doubling blocks of the harmonic series."""

from . import _emit, _positive


def run(args) -> None:
    from fractions import Fraction

    from ..series import harmonic_partial, oresme_block

    # the last block first: past the budget it refuses before any block is summed
    blocks = [oresme_block(k) for k in range(args.blocks, 0, -1)]
    rows = []
    for block in reversed(blocks):
        cumulative = harmonic_partial(block.last)
        rows.append((block.k, block.first, block.last, block.terms, block.total, cumulative,
                     block.at_least_half, cumulative >= 1 + Fraction(block.k, 2)))
    _emit(("k", "first", "last", "terms", "block", "cumulative", "at_least_half",
           "meets_bound"), rows, args.format)


def fill(p) -> None:
    p.add_argument("--blocks", type=_positive, required=True)
