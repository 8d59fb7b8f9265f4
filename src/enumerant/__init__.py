"""Exact arithmetic around a breadth-first enumeration of binary strings.

The enumeration pairs index n with the binary digits of n reversed;
everything else in the package interrogates it with exact arithmetic:
dyadic values and inverse lookup, certified bit streams for reals with
membership verdicts, finite-stage diagonal certificates, exact series
bounds, a counting theorem over even sets, pairing/union enumerations,
and two growth tables with symbolic power towers.
"""

from .errors import (
    BudgetExceeded,
    DepthZero,
    DomainError,
    EmptySet,
    EmptyString,
    EnumerationExhausted,
    NotEvenPositiveDistinct,
    NotInImage,
    OutOfRange,
    ZeroIndex,
)
from .exactnum import (
    DEFAULT_DIGIT_BUDGET,
    DyadicRational,
    Exact,
    Magnitude,
    RationalInterval,
    Reciprocal,
    Tower,
    canonicalize,
    decimal_digit,
    decimal_string,
    dyadic_from_string,
    log2_interval,
    magnitude_cmp,
    pinned_decimals,
    render_magnitude,
    render_reciprocal,
)
from .enumeration import (
    ApproximationReport,
    ColumnPosition,
    Entry,
    all_strings,
    approximate,
    column_entries,
    column_index,
    column_of,
    entries,
    index_to_string,
    index_to_string_recursive,
    locate_value,
    string_to_index,
)
from .reals import (
    ComputableReal,
    EulerStream,
    LiouvilleStream,
    RationalStream,
    SqrtStream,
    parse_real,
)
from .diagonal import (
    DiagonalCertificate,
    MismatchRecord,
    certificate_from_text,
    certificate_to_text,
    certify_absence,
    diagonal_prefix,
    verify_certificate,
)
from .series import (
    EulerEnclosure,
    LiouvillePartial,
    OresmeBlock,
    e_enclosure,
    geometric_partial,
    harmonic_partial,
    liouville_partial,
    oresme_block,
)
from .finitist import (
    EvenSetReport,
    InductionTrace,
    Table1Row,
    Table2Row,
    UnionItem,
    cantor_pair,
    cantor_unpair,
    check_even_set,
    induction_trace,
    table1_row,
    table2_row,
    union_enumerate,
)

__version__ = "0.1.0"
