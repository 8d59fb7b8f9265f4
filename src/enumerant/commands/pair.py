"""``pair``: the diagonal pairing code of (i, j), or its inverse."""

from . import _emit, _nonnegative


def run(args) -> None:
    from ..enumeration import cantor_pair, cantor_unpair

    if args.unpair is not None:
        if args.i is not None or args.j is not None:
            args.parser.error("--unpair does not combine with --i/--j")
        _emit(("i", "j"), [cantor_unpair(args.unpair)], args.format)
        return
    if args.i is None or args.j is None:
        args.parser.error("pair needs either --unpair N or both --i and --j")
    _emit(("code",), [(cantor_pair(args.i, args.j),)], args.format)


# either --unpair or both --i and --j, which `run` checks: argparse has no
# group for that
OPTIONS = {"--i": {"type": _nonnegative}, "--j": {"type": _nonnegative},
           "--unpair": {"type": _nonnegative, "metavar": "N"}}
