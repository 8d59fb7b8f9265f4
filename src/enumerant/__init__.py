"""Exact arithmetic around a breadth-first enumeration of binary strings.

The enumeration pairs index n with the binary digits of n reversed;
everything else in the package interrogates it with exact arithmetic:
dyadic values and inverse lookup, certified bit streams for reals with
membership verdicts, finite-stage diagonal certificates, exact series
bounds, a counting theorem over even sets, pairing/union enumerations,
and two growth tables with symbolic power towers.

Every public name below is importable from the package, but each loads
on first use (PEP 562): ``import enumerant`` runs no submodule, and
``enumerant.cli`` imports per command only the modules that command
runs, so a CLI call pays for what it uses.
"""

from importlib import import_module as _import_module

# the one list of public names; each submodule's ``__all__`` is its entry
_EXPORTS = {
    "errors": (
        "BudgetExceeded",
        "DepthZero",
        "DomainError",
        "EmptySet",
        "EmptyString",
        "EnumerationExhausted",
        "NotEvenPositiveDistinct",
        "NotInImage",
        "OutOfRange",
        "ZeroIndex",
    ),
    "exactnum": (
        "DEFAULT_DIGIT_BUDGET",
        "DyadicRational",
        "Exact",
        "Magnitude",
        "RationalInterval",
        "Reciprocal",
        "Tower",
        "canonicalize",
        "decimal_digit",
        "decimal_string",
        "dyadic_from_string",
        "log2_interval",
        "magnitude_cmp",
        "pinned_decimals",
    ),
    "enumeration": (
        "ColumnPosition",
        "Entry",
        "all_strings",
        "approximate",
        "cantor_pair",
        "cantor_unpair",
        "column_entries",
        "column_index",
        "column_of",
        "entries",
        "index_to_string",
        "index_to_string_recursive",
        "locate_value",
        "string_to_index",
    ),
    "reals": (
        "ApproximationReport",
        "ComputableReal",
        "EulerStream",
        "LiouvilleStream",
        "RationalStream",
        "SqrtStream",
        "parse_real",
    ),
    "diagonal": (
        "DiagonalCertificate",
        "EnumerationSource",
        "MismatchRecord",
        "certificate_from_text",
        "certificate_to_text",
        "certify_absence",
        "diagonal_prefix",
        "verify_certificate",
    ),
    "series": (
        "EulerEnclosure",
        "LiouvillePartial",
        "OresmeBlock",
        "e_enclosure",
        "geometric_partial",
        "harmonic_partial",
        "liouville_partial",
        "oresme_block",
    ),
    "finitist": (
        "EvenSetReport",
        "InductionLevel",
        "InductionTrace",
        "TABLE2_DIGIT_BUDGET",
        "Table1Row",
        "Table2Row",
        "UnionItem",
        "check_even_set",
        "induction_trace",
        "table1_row",
        "table2_row",
        "union_enumerate",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
