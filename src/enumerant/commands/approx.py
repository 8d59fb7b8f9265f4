"""``approx``: hunt a real through the enumeration to a depth."""

from . import _emit, _positive


def run(args) -> None:
    from ..enumeration import _approximate_fields

    # the fields of `ApproximationReport`, which `approx` never builds
    _emit(("target", "depth", "prefix", "verdict", "member_index", "reason", "best_index",
           "best_bits", "best_value", "error_bound"),
          [_approximate_fields(args.real, args.depth)], args.format, report=True)


def parse_real(text: str):
    """``--real`` type; argparse names this function in its error message."""
    from ..reals import parse_real

    return parse_real(text)


OPTIONS = {"--real": {"type": parse_real, "required": True, "help": "sqrt2, e, tau, or rat:P/Q"},
           "--depth": {"type": _positive, "required": True}}
