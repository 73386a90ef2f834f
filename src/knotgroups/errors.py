"""Exception hierarchy shared by all knotgroups modules.

Two broad families matter to callers (and to the CLI exit-code mapping):
``InputError`` covers malformed or inconsistent user input, while
``ResourceError`` covers explicit refusals to run past a configured bound.
"""

import sys


class KnotGroupsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KnotGroupsError):
    """Malformed or inconsistent input (CLI exit code 2)."""


class ResourceError(KnotGroupsError):
    """A configured size or budget limit was exceeded (CLI exit code 3)."""


class PresentationSyntaxError(InputError):
    """Presentation text does not match the grammar."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownGeneratorError(InputError):
    """A word uses a generator that was never declared."""


class DuplicateGeneratorError(InputError):
    """The same generator name was declared twice."""


class InvalidParameterError(InputError):
    """A parameter is outside its documented domain."""


class MissingImageError(InputError):
    """Word evaluation hit a generator with no assigned image."""


class UnknownMarkerError(InputError):
    """A marker name is not present in the presentation."""


class DegreeMismatchError(InputError):
    """Permutations of different degrees cannot be composed."""


class NotAMemberError(InputError):
    """An element was expected to lie in a given finite group."""


class ZeroPolynomialError(InputError):
    """The zero polynomial has no breadth."""


class NotInfiniteCyclicError(InputError):
    """The abelianization is not infinite cyclic, so no weights exist."""


class DeficiencyError(InputError):
    """Too few relators to form maximal minors of the derivative matrix."""


class CoefficientOverflowError(ResourceError):
    """An integer left the checked range instead of silently wrapping."""


class GroupTooLargeError(ResourceError):
    """A group's points pass MAX_GROUP_POINTS, or a naive search's MAX_SEARCH_NODES."""


class DerivativeTooLargeError(ResourceError):
    """The abelianized Fox derivatives would expand to too many monomials."""


class WordTooLargeError(ResourceError):
    """The powers in a presentation text would build too many syllables."""


class GcdTooLargeError(ResourceError):
    """A polynomial gcd would run on operands of too high a degree."""


class TooManyRowSetsError(ResourceError):
    """The maximal minors would run over too many sets of rows."""


class BudgetExceededError(ResourceError):
    """A search visited more nodes, or a listing held more homomorphisms,
    than its limit allows."""


class CountTooLargeError(ResourceError):
    """A count has more decimal digits than the interpreter will print."""


# Characters of user input that an error message quotes: a longer input is
# cut, with its length, so that its error stays one short line.
QUOTE_LIMIT = 80


def quoted(value) -> str:
    """``repr(value)``, or, when that is longer than ``QUOTE_LIMIT``
    characters, its first ``QUOTE_LIMIT`` in ASCII and its length."""
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    head = text[:QUOTE_LIMIT].encode("ascii", "backslashreplace")[:QUOTE_LIMIT]
    return f"{head.decode()}... ({len(text)} characters)"


# Arbitrary-precision integers never wrap in Python, so "overflow" is a
# policy bound: everything in scope fits comfortably in 64 bits, and a value
# outside that range signals runaway input rather than a legitimate result.
CHECKED_INT_MAX = 2**63 - 1


def read_decimal(digits: str, refusal: str, error=InvalidParameterError, *where) -> int:
    """``int(digits)`` for decimal digits, perhaps signed, which int()
    refuses only past its digit limit: then raise
    ``error(refusal.format(limit), *where)``."""
    try:
        return int(digits)
    except ValueError:
        raise error(refusal.format(sys.get_int_max_str_digits()), *where) from None


def checked_int(value, context="integer arithmetic"):
    """Return ``value`` unchanged, or raise if it left the checked range."""
    if value > CHECKED_INT_MAX or value < -CHECKED_INT_MAX:
        raise CoefficientOverflowError(
            f"{context}: |{value}| exceeds the checked 64-bit range"
        )
    return value
