"""``series``: exact partial sums and enclosures of e, tau and the
geometric series."""

from . import _emit, _nonnegative, _positive


def run(args) -> None:
    from ..series import _liouville_fields, e_enclosure, geometric_partial

    # only a printed decimal needs `exactnum`: geometric prints none
    if args.name == "e":
        from ..exactnum import decimal_string, pinned_decimals

        enc = e_enclosure(args.terms)
        iv = enc.interval
        fields = ("terms", "lo", "hi", "lo_decimal", "hi_decimal", "pinned")
        # an enclosure too wide to pin a digit prints "", in json too
        row = (enc.n, iv.lo, iv.hi, decimal_string(iv.lo, args.digits),
               decimal_string(iv.hi, args.digits), pinned_decimals(iv, args.digits) or "")
    elif args.name == "tau":
        m, value, places, _ = _liouville_fields(args.terms)
        # after the sum, so a term count past the cap loads no `exactnum`
        from math import factorial

        from ..exactnum import decimal_string

        fields = ("terms", "value", "decimal", "one_places", "tail_bound")
        row = (m, value, decimal_string(value, args.digits), places,
               f"2/10^{factorial(m + 1)}")
    else:
        value = geometric_partial(args.terms)
        p, q = value.numerator, value.denominator
        # the terms 2**-i, i = 1..n, summed as written: n one-bits over 2**n
        written = p.bit_count() == p.bit_length() == q.bit_length() - 1 == args.terms
        fields = ("terms", "value", "matches_closed_form")
        row = (args.terms, value, written and not q & (q - 1))
    _emit(fields, [row], args.format, report=True)


OPTIONS = {"--name": {"choices": ("e", "tau", "geometric"), "required": True},
           "--terms": {"type": _positive, "required": True},
           "--digits": {"type": _nonnegative, "default": 30,
                        "help": "decimal places to print (truncated, default 30)"}}
