"""Exact integer Laurent polynomials in one variable t.

Elements of Z[t, t^-1] are stored as sparse exponent -> coefficient maps
with no zero coefficients; the empty map is the zero polynomial.  The ring
is a UFD whose units are +-t^k, and several consumers only care about
values up to units, hence :meth:`LaurentPoly.normalize_up_to_units`.

Coefficients are kept inside a checked 64-bit range; leaving it raises
CoefficientOverflowError rather than producing a huge silent result.

The text form is terms ``c``, ``c*t``, ``c*t^e``, ``t`` or ``t^e`` joined by
``+`` or ``-`` (``c`` decimal digits, ``e`` with an optional ``-``), read by
one anchored pattern; anything else (``2t``, ``t^+2``, ``_``) is an
InvalidParameterError.
"""

from __future__ import annotations

import re
from math import gcd as igcd
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import (
    CHECKED_INT_MAX,
    GcdTooLargeError,
    InvalidParameterError,
    ZeroPolynomialError,
    checked_int,
    quoted,
    read_decimal,
)


# Highest breadth of a gcd operand that is not a monomial, and of either
# operand of the Alexander polynomial's final exact division.  The dense
# pseudo-remainder sequence costs at least breadth^2 integer steps: one
# exact division of breadth 4000 by breadth 2000 took 0.35 s (CPython 3.11,
# 2-vCPU Xeon).  Breadths past this come from huge exponents.
MAX_GCD_DEGREE = 4000


def _check_range(data: Dict[int, int]) -> None:
    # the extremes alone: one C-level pass each, not a call per coefficient,
    # and checked_int only to raise
    if data and (max(data.values()) > CHECKED_INT_MAX
                 or min(data.values()) < -CHECKED_INT_MAX):
        checked_int(max(data.values()), "Laurent coefficient")
        checked_int(min(data.values()), "Laurent coefficient")


class LaurentPoly:
    """An element of Z[t, t^-1] with exact integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: Dict[int, int] = {}
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise InvalidParameterError("exponents and coefficients must be ints")
            if c == 0:
                continue
            data[exp] = data.get(exp, 0) + c
            if data[exp] == 0:
                del data[exp]
        _check_range(data)
        self._coeffs = data

    @classmethod
    def _from_clean(cls, data: Dict[int, int]) -> "LaurentPoly":
        """Wrap an int -> int map with no zero coefficients, which the
        ring operations build themselves; only the range is checked."""
        _check_range(data)
        poly = object.__new__(cls)
        poly._coeffs = data
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def terms(self) -> Tuple[Tuple[int, int], ...]:
        """(exponent, coefficient) pairs sorted by ascending exponent."""
        return tuple(sorted(self._coeffs.items()))

    def min_exp(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("the zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("the zero polynomial has no exponents")
        return max(self._coeffs)

    def breadth(self) -> int:
        """Difference between the highest and lowest nontrivial exponents."""
        return self.max_exp() - self.min_exp()

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["LaurentPoly"]:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in q._coeffs.items():
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
        return LaurentPoly._from_clean(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_clean({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        small, large = self._coeffs, q._coeffs
        if len(small) > len(large):
            small, large = large, small
        out: Dict[int, int] = {}
        get = out.get
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._from_clean(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        return LaurentPoly._from_clean({e + k: c for e, c in self._coeffs.items()})

    # -- normalization and divisibility -------------------------------------

    def normalize_up_to_units(self) -> "LaurentPoly":
        """Canonical representative of the associate class of this value.

        Zero maps to zero.  Otherwise multiply by +-t^k so the lowest
        exponent becomes 0 and the lowest-degree coefficient is positive.
        Two polynomials are associates iff their normal forms are equal.
        """
        if self.is_zero:
            return self
        lo = self.min_exp()
        sign = 1 if self._coeffs[lo] > 0 else -1
        if lo == 0 and sign == 1:
            return self
        return LaurentPoly._from_clean({e - lo: sign * c for e, c in self._coeffs.items()})

    def exact_divide(self, divisor: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Return self / divisor when the division is exact, else None.

        A monomial divisor c*t^k divides term by term, so nothing is made
        dense: a Bareiss pivot of +-1 costs one pass over self's terms."""
        if divisor.is_zero:
            return None if not self.is_zero else LaurentPoly.zero()
        if self.is_zero:
            return LaurentPoly.zero()
        if len(divisor._coeffs) == 1:
            ((k, c),) = divisor._coeffs.items()
            out: Dict[int, int] = {}
            for e, a in self._coeffs.items():
                q, r = divmod(a, c)
                if r:
                    return None
                out[e - k] = q
            return LaurentPoly._from_clean(out)
        num = _dense(self)
        den = _dense(divisor)
        quo = _dense_exact_div(num, den)
        if quo is None:
            return None
        offset = self.min_exp() - divisor.min_exp()
        return LaurentPoly._from_clean({i + offset: c for i, c in enumerate(quo) if c != 0})

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._coeffs == q._coeffs

    def __hash__(self) -> int:
        if not self._coeffs.keys() - {0}:  # a constant equals its int
            return hash(self._coeffs.get(0, 0))
        return hash(self.terms())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        return format_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_laurent(self)!r})"


def _dense(p: LaurentPoly) -> list:
    """Coefficient list of t^-minexp * p, constant term first; p is
    not zero."""
    lo, hi = min(p._coeffs), max(p._coeffs)
    out = [0] * (hi - lo + 1)
    for e, c in p._coeffs.items():
        out[e - lo] = c
    return out


def _dense_deg(a: list) -> int:
    for i in range(len(a) - 1, -1, -1):
        if a[i] != 0:
            return i
    return -1


def _dense_exact_div(num: list, den: list) -> Optional[list]:
    """Exact division in Z[t] on dense coefficient lists, or None.

    Intermediates use unbounded exact integers; the quotient is bounds-
    checked when it becomes a LaurentPoly.
    """
    dn, dd = _dense_deg(num), _dense_deg(den)
    if dn < dd:
        return None
    rem = list(num)
    quo = [0] * (dn - dd + 1)
    lead = den[dd]
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd]
        if c == 0:
            continue
        if c % lead != 0:
            return None
        q = c // lead
        quo[k] = q
        for i in range(dd + 1):
            rem[k + i] -= q * den[i]
    if any(rem):
        return None
    return quo


def _content_and_primitive(a: list) -> Tuple[int, list]:
    content = 0
    for c in a:
        content = igcd(content, abs(c))
    if content == 0:
        return 0, a
    return content, [c // content for c in a]


def _pseudo_rem(a: list, b: list) -> list:
    """A nonzero integer multiple of a mod b over Z.

    The primitive PRS strips content right away, so any multiple will do:
    the running remainder is rescaled by lc(b)/gcd(c, lc(b)) only when its
    leading coefficient c is not already divisible by lc(b), which for a
    monic b is never.  Intermediates are unbounded exact integers; only
    final gcd coefficients are bounds-checked (as a LaurentPoly).
    """
    da, db = _dense_deg(a), _dense_deg(b)
    rem = list(a[: da + 1])
    lead = b[db]
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        if c == 0:
            continue
        if c % lead:
            scale = lead // igcd(c, lead)
            rem = [x * scale for x in rem]
            c *= scale
        q = c // lead
        rem[k + db] = 0
        for i in range(db):
            rem[k + i] -= q * b[i]
    return rem[: db] if db > 0 else [0]


def check_dense_breadth(breadth: int, what: str) -> None:
    """Raise GcdTooLargeError, naming ``what``, if an operand of this
    breadth is past ``MAX_GCD_DEGREE`` and so may not be made dense."""
    if breadth > MAX_GCD_DEGREE:
        raise GcdTooLargeError(
            f"{what} of breadth {breadth}, over the limit of {MAX_GCD_DEGREE}"
        )


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """A greatest common divisor in Z[t, t^-1], in normalized form.

    If either operand is a monomial c*t^j (a unit times an integer), the
    gcd is the integer gcd of c and the other operand's content.
    Otherwise strip integer content, run a primitive pseudo-remainder
    sequence on the primitive parts, then reattach the gcd of contents
    (Gauss's lemma).  ``gcd(p, 0)`` is the normal form of ``p``.  Raises
    GcdTooLargeError when an operand of the sequence has breadth above
    ``MAX_GCD_DEGREE``.
    """
    if p.is_zero:
        return q.normalize_up_to_units()
    if q.is_zero:
        return p.normalize_up_to_units()
    if len(p._coeffs) == 1 or len(q._coeffs) == 1:
        return LaurentPoly._from_clean({0: igcd(*p._coeffs.values(), *q._coeffs.values())})
    check_dense_breadth(max(p.breadth(), q.breadth()), "gcd of polynomials")
    ca, a = _content_and_primitive(_dense(p))
    cb, b = _content_and_primitive(_dense(q))
    if _dense_deg(a) < _dense_deg(b):
        a, b = b, a
    while _dense_deg(b) >= 0:
        r = _pseudo_rem(a, b)
        _, r = _content_and_primitive(r)
        a, b = b, r
    content = igcd(ca, cb)
    result = LaurentPoly._from_clean({i: content * c for i, c in enumerate(a) if c != 0})
    return result.normalize_up_to_units()


# -- text form ---------------------------------------------------------------
#
# Terms sorted by ascending exponent, e.g. "1 - t + t^2", "t^-2 - t^-1 + 1",
# "-2*t^3 + 7*t^5".  Parsed back by parse_laurent for expected-value checks.


def format_laurent(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for e, c in p.terms():
        if e == 0:
            pieces.append(f" + {c}" if c > 0 else f" - {-c}")
        elif c == 1:
            pieces.append(" + t" if e == 1 else f" + t^{e}")
        elif c == -1:
            pieces.append(" - t" if e == 1 else f" - t^{e}")
        elif e == 1:
            pieces.append(f" + {c}*t" if c > 0 else f" - {-c}*t")
        else:
            pieces.append(f" + {c}*t^{e}" if c > 0 else f" - {-c}*t^{e}")
    # the first term has no spaces around its sign, and no sign if positive
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


# One term: "c", "c*t", "c*t^e", "t" or "t^e".  A text is a first term,
# whose sign is optional, and then signed terms; _SIGNED_TERM reads the
# terms out of a text that _LAURENT matched.  The patterns are compiled on
# first use, by the re module's cache, not at import.
_TERM = r"(?:(\d+)\*)?t(?:\^(-?\d+))?|(\d+)"
_LAURENT = rf"[+-]?\s*(?:{_TERM})(?:\s*[+-]\s*(?:{_TERM}))*"
_SIGNED_TERM = rf"\s*([+-]?)\s*(?:{_TERM})"


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the text form emitted by :func:`format_laurent`."""
    s = text.strip()
    if not re.fullmatch(_LAURENT, s):
        raise InvalidParameterError(f"cannot parse Laurent text {quoted(text)}")
    out: Dict[int, int] = {}
    refusal = "Laurent text has a number of more than {} digits"
    for sign, coeff, exp, constant in re.findall(_SIGNED_TERM, s):
        e = read_decimal(exp, refusal) if exp else 0 if constant else 1
        c = read_decimal(constant or coeff or "1", refusal)
        out[e] = out.get(e, 0) + (-c if sign == "-" else c)
    return LaurentPoly(out)
