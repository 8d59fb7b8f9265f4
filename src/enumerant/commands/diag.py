"""``diag``: a stage-N diagonal certificate, or the verdict on one."""

import sys

from . import _emit, _positive


def run(args) -> int | None:
    from ..diagonal import (
        _TEXT_CHARS,
        MismatchRecord,
        certificate_from_text,
        certificate_to_text,
        certify_absence,
        verify_certificate,
    )
    from ..enumeration import all_strings

    if args.verify is not None:
        try:
            with open(args.verify, "r", encoding="ascii") as fh:
                # one character past the bound is enough to refuse the text
                cert = certificate_from_text(fh.read(_TEXT_CHARS + 1))
        except (OSError, ValueError) as err:
            print(f"unreadable certificate: {err}", file=sys.stderr)
            return 1
        ok = verify_certificate(cert, all_strings)
        _emit(("stage", "valid"), [(cert.stage, ok)], args.format)
        return 0 if ok else 1
    cert = certify_absence(all_strings, args.count)
    if args.format == "plain":
        sys.stdout.write(certificate_to_text(cert))
        return
    if args.format == "json-lines":
        _emit(("stage", "pad", "diagonal", "ends_in_one", "occurs_in_prefix"),
              [(cert.stage, cert.padding, cert.diagonal, cert.ends_in_one,
                cert.occurs_in_prefix)], args.format)
    _emit(MismatchRecord._fields, cert.records, args.format)


OPTIONS = {"--count": {"type": _positive}, "--verify": {"metavar": "FILE"}}
ONE_OF = ("--count", "--verify")
