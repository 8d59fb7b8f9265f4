"""``theorem``: the even-set counting check, on one set or on every
subset of {2, 4, ..., 2M}."""

from . import _emit, _positive


def run(args) -> int | None:
    from ..finitist import _even_set_fields, _induction_fields

    if args.set is not None:
        # the fields of `EvenSetReport`, which `theorem --set` never builds
        _emit(("elements", "cardinality", "witnesses", "witness_count", "required", "holds"),
              [_even_set_fields(args.set)], args.format, report=True)
        return
    _, _, levels, checked, all_hold = _induction_fields(args.exhaustive)
    total = ("total", checked, sum(lv.failures for lv in levels))
    _emit(("size", "checked", "failures"), [*levels, total], args.format)
    return 0 if all_hold else 1


def _even_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


OPTIONS = {"--set": {"type": _even_list, "metavar": "E1,E2,..."},
           "--exhaustive": {"type": _positive, "metavar": "M",
                            "help": "check every nonempty subset of {2, 4, ..., 2M}"}}
ONE_OF = ("--set", "--exhaustive")
