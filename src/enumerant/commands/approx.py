"""``approx``: hunt a real through the enumeration to a depth."""

from . import _attrs, _emit, _positive


def run(args) -> None:
    from ..enumeration import approximate

    report = approximate(args.real, args.depth)
    _emit(report.__match_args__, [_attrs(report)], args.format, report=True)


def parse_real(text: str):
    """``--real`` type; argparse names this function in its error message."""
    from ..reals import parse_real

    return parse_real(text)


def fill(p) -> None:
    p.add_argument("--real", type=parse_real, required=True,
                   help="sqrt2, e, tau, or rat:P/Q")
    p.add_argument("--depth", type=_positive, required=True)
