"""``table``: growth table 1 (n, 2n, n^2, 1/n) or 2 (the towers)."""

from ..errors import _within
from . import _emit, _positive


def run(args) -> None:
    from ..finitist import (
        _TABLE2_ROWS_CAP,
        TABLE2_DIGIT_BUDGET,
        Table1Row,
        _table2_cells,
        _table2_fields,
        table1_row,
    )

    span = range(1, args.rows + 1)
    if args.id == 1:
        _emit(Table1Row._fields, map(table1_row, span), args.format)
        return
    _within(args.rows, _TABLE2_ROWS_CAP)
    budget = TABLE2_DIGIT_BUDGET if args.digit_budget is None else args.digit_budget
    # every other budget refuses on row 1, before `_emit` writes its first chunk
    rows = (_table2_cells(_table2_fields(n, budget, args.log2_bits)) for n in span)
    _emit(("recip_two_pow_fact", "recip_fact", "log2_n", "n", "two_pow", "fact",
           "two_pow_fact", "tower"), rows, args.format)


OPTIONS = {"--id": {"type": int, "choices": (1, 2), "required": True},
           "--rows": {"type": _positive, "required": True},
           "--digit-budget": {"type": _positive,
                              "help": "decimal digits past which table-2 cells stay symbolic"},
           "--log2-bits": {"type": _positive, "default": 32,
                           "help": "fractional bits certified for the log2 column"}}
