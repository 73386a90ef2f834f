"""Knot-group invariants for distinguishing knots with a common trace.

Two computable invariants of a finitely presented knot group:

* the Alexander polynomial, obtained from the free differential calculus
  as the gcd of maximal minors of the abelianized derivative matrix, and
* counts of homomorphisms into a finite permutation group that send a
  marked meridian word to a prescribed element.

Exact integer arithmetic throughout; no floating point anywhere.
"""

from .errors import (
    BudgetExceededError,
    CoefficientOverflowError,
    CountTooLargeError,
    DeficiencyError,
    DegreeMismatchError,
    DerivativeTooLargeError,
    DuplicateGeneratorError,
    GcdTooLargeError,
    GroupTooLargeError,
    InputError,
    InvalidParameterError,
    KnotGroupsError,
    MissingImageError,
    NotAMemberError,
    NotInfiniteCyclicError,
    PresentationSyntaxError,
    ResourceError,
    TooManyRowSetsError,
    UnknownGeneratorError,
    UnknownMarkerError,
    WordTooLargeError,
    ZeroPolynomialError,
)
from .fox import (
    AlexanderMatrix,
    alexander_matrix,
    alexander_polynomial,
    fox_derivative,
)
from .homsearch import (
    HomSearchResult,
    SearchStats,
    count_homs,
    meridian_invariant,
    meridian_search,
)
from .laurent import LaurentPoly, format_laurent, gcd, parse_laurent
from .permgroups import (
    FiniteGroup,
    Permutation,
    alternating_group,
    are_conjugate,
    generated_group,
    group_from_spec,
    parse_permutation,
    symmetric_group,
)
from .presentations import (
    AbelianizationReport,
    Presentation,
    abelianize,
    parse,
    parse_word,
    rbg_family,
    smith_normal_form,
)
from .words import Word, reduce_syllables

__version__ = "0.1.0"

__all__ = [
    "AbelianizationReport",
    "AlexanderMatrix",
    "BudgetExceededError",
    "CoefficientOverflowError",
    "CountTooLargeError",
    "DeficiencyError",
    "DegreeMismatchError",
    "DerivativeTooLargeError",
    "DuplicateGeneratorError",
    "FiniteGroup",
    "GcdTooLargeError",
    "GroupTooLargeError",
    "HomSearchResult",
    "InputError",
    "InvalidParameterError",
    "KnotGroupsError",
    "LaurentPoly",
    "MissingImageError",
    "NotAMemberError",
    "NotInfiniteCyclicError",
    "Permutation",
    "Presentation",
    "PresentationSyntaxError",
    "ResourceError",
    "SearchStats",
    "TooManyRowSetsError",
    "UnknownGeneratorError",
    "UnknownMarkerError",
    "Word",
    "WordTooLargeError",
    "ZeroPolynomialError",
    "abelianize",
    "alexander_matrix",
    "alexander_polynomial",
    "alternating_group",
    "are_conjugate",
    "count_homs",
    "format_laurent",
    "fox_derivative",
    "gcd",
    "generated_group",
    "group_from_spec",
    "meridian_invariant",
    "meridian_search",
    "parse",
    "parse_laurent",
    "parse_permutation",
    "parse_word",
    "rbg_family",
    "reduce_syllables",
    "smith_normal_form",
    "symmetric_group",
]
