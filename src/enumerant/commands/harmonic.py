"""``harmonic``: the doubling blocks of the harmonic series."""

from . import _emit, _positive


def run(args) -> None:
    from fractions import Fraction

    from ..series import _at_least_half, _block_terms, _oresme_fields, harmonic_partial

    # the last block first: past the budget it refuses before any block is summed
    blocks = [_oresme_fields(k) for k in range(args.blocks, 0, -1)]
    rows = []
    for k, first, last, total in reversed(blocks):
        cumulative = harmonic_partial(last)
        rows.append((k, first, last, _block_terms(first, last), total, cumulative,
                     _at_least_half(total), cumulative >= 1 + Fraction(k, 2)))
    _emit(("k", "first", "last", "terms", "block", "cumulative", "at_least_half",
           "meets_bound"), rows, args.format)


OPTIONS = {"--blocks": {"type": _positive, "required": True}}
