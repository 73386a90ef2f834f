"""Fox free differential calculus and Alexander invariants.

The Fox derivative d/dg on the integral group ring of a free group is
determined by

    d(g)/dg = 1,   d(h)/dg = 0 for h != g,   d(uv)/dg = du/dg + u dv/dg,

which forces d(g^-1)/dg = -g^-1 and, for syllable powers,

    d(g^k)/dg = 1 + g + ... + g^(k-1)            (k > 0)
    d(g^k)/dg = -(g^-1 + g^-2 + ... + g^(-|k|))  (k < 0).

:func:`fox_derivative` computes these noncommutative sums of words and
returns each as a dict from word to coefficient.  It is the oracle the fast
path is tested against; no computation of the package calls it.

The Alexander path never builds a word.  The weights a(g) come from
``presentations.abelianize``, by unit pivots.  Abelianizing each generator
g to t^a(g) sends a prefix to t^w, where w is the weighted exponent sum of
the prefix, so one pass over a relator's syllables with a running w yields
its row of the matrix: a syllable g^k adds t^w + t^(w+a) + ... +
t^(w+(k-1)a) to column g when k > 0, and -(t^(w-a) + ... + t^(w+ka)) when
k < 0, then w += k*a (Fox, *Free Differential Calculus I*, 1953).  A
syllable of weight 0 adds k*t^w.  A relator is walked run by run
(``Word.runs``): since d(B^k) = (1 + B + ... + B^(k-1)) dB, a block
B repeated k times from weight w has its terms computed once, from weight
0, and each term c*t^e is written at w + e, w + e + a(B), ...,
w + e + (k-1)*a(B), or as k*c*t^(w+e) when a(B) = 0; then w += k*a(B), and
a run of k = 1 is walked syllable by syllable.  A row is a dict of
its nonzero entries and skips the column that the minors delete: a
syllable of that generator only advances w.  That column is expanded only
for ``alex --matrix``.  The monomials all columns would write are bounded
by ``MAX_DERIVATIVE_TERMS``, counted over the runs.

The gcd of the maximal minors of the matrix generates the first elementary
ideal, whose normal form is the Alexander polynomial of the presented
group.  Fox's fundamental formula, abelianized, says that the columns
weighted by t^a(g) - 1 sum to zero in every row, so within one set of rows
the minor without column k is +-D_j * (t^a(k) - 1) / (t^a(j) - 1), where
D_j is the minor without column j (Crowell and Fox, *Introduction to Knot
Theory*, ch. VII).  The weights have gcd 1, so the gcd over k of these
minors is D_j / Phi_j with Phi_j = (t^|a(j)| - 1) / (t - 1): one
determinant per row set suffices, and the gcd over row sets is divided
once by Phi_j.  Each determinant is computed by fraction-free (Bareiss)
elimination over Z[t, t^-1]: every division by the previous pivot is exact
by Sylvester's identity (Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, 1968), and a division that is
not raises instead of returning a guess.  The number of row sets is
bounded by ``MAX_ROW_SETS``.

Before any minor, the matrix N without the deleted column is reduced by
unit pivots (``presentations.pivot_units``, which also serves the integer
relation matrix).  Each Wirtinger relator x(i+1) x(i) x(i+1)^-1 x(j)^-1 puts
units +-t^k in its row, and a unit u at (i, j) is pivoted out: every other
row with an entry a in column j becomes row - (a/u) * row i, where a/u is a
times a monomial, and row i and column j are dropped.  Row operations keep
the ideal of maximal minors (Cauchy-Binet), and once column j is zero but
for u, each maximal minor is +-u times one of the smaller matrix, or zero;
so the gcd of the maximal minors is unchanged up to a unit (Crowell and
Fox, ch. VII).  A Wirtinger T(2, n) ends as a 2 x 1 remnant, a family
presentation as a 1 x 1 one, and a remnant with no column left has the one
minor 1.  The guards (``DeficiencyError``, ``MAX_ROW_SETS``, the breadth of
the divisor Phi_j) are checked on the unreduced shape, before any pivot.

A dense determinant runs at an integer point (Kronecker substitution; von
zur Gathen and Gerhard, *Modern Computer Algebra*, section 8.4).  Each row
is multiplied by the power of t that makes its lowest exponent 0, every
entry is evaluated at t = 2^b, and the same Bareiss loop runs over Python
ints, whose products and divisions run in C.  Hadamard's inequality bounds
every coefficient of every minor of the shifted matrix, each entry of the
elimination included, by a C with 2^(b-1) > C.  So a polynomial vanishes
exactly when its value does, the pivots and row swaps are those of the
LaurentPoly run, and the determinant is read back exactly from the
balanced base-2^b digits of its value.  A sparse matrix, whose integers
would be mostly zero digits, is eliminated over LaurentPoly.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, repeat
from math import comb
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import (
    DeficiencyError,
    DerivativeTooLargeError,
    NotInfiniteCyclicError,
    TooManyRowSetsError,
)
from .laurent import LaurentPoly, check_dense_breadth, gcd as laurent_gcd
from .presentations import Presentation, abelianize, pivot_units
from .words import Word

# Most monomials the abelianized derivatives of one presentation may expand
# to: the sum of |k| over its syllables g^k of nonzero weight.
MAX_DERIVATIVE_TERMS = 10**6

# Most sets of rows the minors of one Alexander polynomial may run over, one
# Bareiss determinant each; a square r x r matrix has r of them.
MAX_ROW_SETS = 1000


def fox_derivative(word: Word, gen: str) -> Dict[Word, int]:
    """The Fox derivative d(word)/d(gen) as a formal sum of words: a dict
    from each word to its coefficient.

    Walks the syllables once, emitting the closed-form derivative of each
    power of ``gen`` multiplied by the prefix preceding it.  The terms are
    distinct prefixes of the freely reduced ``word``, so a syllable g^k
    contributes |k| entries, each with coefficient +1 if k > 0 and -1 if
    k < 0.
    """
    terms: Dict[Word, int] = {}
    prefix = Word.identity()
    for name, exp in word.syllables:
        if name == gen:
            if exp > 0:
                for i in range(exp):
                    terms[prefix * Word.generator(name, i) if i else prefix] = 1
            else:
                for i in range(1, -exp + 1):
                    terms[prefix * Word.generator(name, -i)] = -1
        prefix = prefix * Word.generator(name, exp)
    return terms


class AlexanderMatrix:
    """Matrix of abelianized Fox derivatives: rows are relators, columns
    are generators of the presentation, and ``weights[j]`` is the exponent
    of t that generator j abelianizes to.

    ``deleted`` is the column that ``alexander_polynomial`` deletes, of
    weight +-1 or failing one of the least nonzero magnitude.  ``rows``
    holds each row's nonzero entries in the other columns, a dict from
    column to entry; ``entries``, every entry with the deleted column's
    expanded, is built on first use."""

    def __init__(self, presentation: Presentation, weights: Mapping[str, int]):
        self.generators = presentation.generators
        self.relators = presentation.relators
        self.weights = tuple(weights[g] for g in self.generators)
        self.deleted = min((j for j, a in enumerate(self.weights) if a),
                           key=lambda j: abs(self.weights[j]))
        column = {g: j for j, g in enumerate(self.generators) if j != self.deleted}
        self.rows = tuple(_fox_row(rel, column, weights) for rel in self.relators)

    @cached_property
    def entries(self) -> tuple:
        column = {self.generators[self.deleted]: self.deleted}
        weights = dict(zip(self.generators, self.weights))
        full = [{**row, **_fox_row(rel, column, weights)}
                for row, rel in zip(self.rows, self.relators)]
        zero = LaurentPoly.zero()
        return tuple(tuple(row.get(j, zero) for j in range(len(self.generators)))
                     for row in full)

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.relators), len(self.generators)

    def __getitem__(self, idx: Tuple[int, int]) -> LaurentPoly:
        i, j = idx
        return self.entries[i][j]

    def text_rows(self) -> list:
        return [[str(e) for e in row] for row in self.entries]

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"AlexanderMatrix({rows}x{cols})"


def _fox_row(relator: Word, column: Mapping[str, int],
             weights: Mapping[str, int]) -> Dict[int, LaurentPoly]:
    """The nonzero abelianized derivatives of ``relator`` by the generators
    of ``column``, which maps each to its column, in one pass over its
    syllables: a dict from column to entry, in column order.  A syllable of
    any other generator only advances the running weight.

    The relator is walked run by run (``Word.runs``): a run of k = 1
    syllable by syllable (``_add_terms``), and a block B repeated k > 1
    times has its terms computed once (``_add_repeated``)."""
    acc: Dict[int, dict] = {}
    # each generator's terms (None outside ``column``) and weight, one
    # lookup a syllable
    slots = {}
    for (g, _), _ in relator.syllable_counts():
        if g not in slots:
            j = column.get(g)
            slots[g] = (None if j is None else acc.setdefault(j, {}), weights[g])
    w = 0
    for block, k in relator.runs:
        w = _add_terms(block, slots, w) if k == 1 else _add_repeated(block, k, slots, w)
    row = {}  # in column order, the order in which the pivots try a row's units
    for j in sorted(acc):
        terms = acc[j]
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        if terms:
            row[j] = LaurentPoly._from_clean(terms)
    return row


def _add_terms(syllables, slots: Mapping[str, tuple], w: int) -> int:
    """Add the abelianized derivative terms of ``syllables``, read from the
    running weight ``w``, to the terms of ``slots`` (generator -> (terms or
    None, weight)); returns the weight after them."""
    for name, k in syllables:
        terms, a = slots[name]
        if terms is None:
            w += k * a
        elif k == 1 or a == 0:
            terms[w] = terms.get(w, 0) + k
            w += k * a
        elif k == -1:
            w -= a
            terms[w] = terms.get(w, 0) - 1
        elif k > 0:
            for e in range(w, w + k * a, a):
                terms[e] = terms.get(e, 0) + 1
            w += k * a
        else:
            w += k * a
            for e in range(w, w - k * a, a):
                terms[e] = terms.get(e, 0) - 1
    return w


def _add_repeated(block, k: int, slots: Mapping[str, tuple], w: int) -> int:
    """``_add_terms`` for ``block`` repeated k times.  By d(uv) = du + u dv,
    copy i of B adds t^(w + i a(B)) times the terms of B, a(B) its weight:
    each term c t^e of B's is written once at w + e, w + e + a(B), ...,
    w + e + (k - 1) a(B), by one C-level dict update when none of those
    exponents is held yet, or as k c t^(w + e) when a(B) = 0."""
    local = {g: (None if slots[g][0] is None else {}, slots[g][1]) for g, _ in block}
    a = _add_terms(block, local, 0)
    for g, (terms, _) in local.items():
        if not terms:
            continue
        target = slots[g][0]
        for e, c in terms.items():
            if not c:
                continue
            if not a:
                target[w + e] = target.get(w + e, 0) + k * c
                continue
            steps = range(w + e, w + e + k * a, a)
            if target.keys().isdisjoint(steps):
                target.update(zip(steps, repeat(c)))
            else:
                for s in steps:
                    target[s] = target.get(s, 0) + c
    return w + k * a


def alexander_matrix(presentation: Presentation) -> AlexanderMatrix:
    """Abelianized Fox derivative matrix of the presentation.

    Requires the abelianization to be infinite cyclic (weights defined);
    raises NotInfiniteCyclicError otherwise, and DerivativeTooLargeError
    when the rows would expand to more than ``MAX_DERIVATIVE_TERMS``
    monomials, the deleted column's included.
    """
    report = abelianize(presentation)
    if not report.is_infinite_cyclic:
        raise NotInfiniteCyclicError(
            "Alexander invariants need infinite cyclic abelianization; got "
            f"free rank {report.free_rank}, torsion {list(report.invariant_factors)}"
        )
    weights = report.weights
    expanded = sum(
        abs(k) * n
        for rel in presentation.relators
        for (name, k), n in rel.syllable_counts()
        if weights[name]
    )
    if expanded > MAX_DERIVATIVE_TERMS:
        raise DerivativeTooLargeError(
            f"the Fox derivatives expand to {expanded} monomials, over the "
            f"limit of {MAX_DERIVATIVE_TERMS}"
        )
    return AlexanderMatrix(presentation, weights)


def _exact_quotient(value: int, divisor: int) -> Optional[int]:
    """value / divisor for ints, or None when the division leaves a
    remainder: ``LaurentPoly.exact_divide`` for the integer point."""
    quotient, remainder = divmod(value, divisor)
    return None if remainder else quotient


def _eliminate(rows: list, steps: int, divide) -> Optional[bool]:
    """Fraction-free (Bareiss) elimination of the first ``steps`` columns
    of ``rows``, in place: equal-length lists of LaurentPoly with
    ``divide=LaurentPoly.exact_divide``, or of int with ``_exact_quotient``.

    Step k replaces every entry below and right of the pivot p_k by
    (p_k * a_ij - a_ik * a_kj) / p_(k-1).  By Sylvester's identity the
    entry (i, j) is then the minor on rows 0..k, i and columns 0..k, j of
    the row-swapped input, so the division is exact in Z[t, t^-1], and in
    Z.  A zero pivot is swapped with a nonzero entry below it.  Returns
    whether the swaps flipped the sign, or None when a pivot column is zero
    from the diagonal down: then the first k + 1 columns have rank k, and
    every minor on all of them is zero.  Raises ArithmeticError if a
    division is not exact.
    """
    height, width = len(rows), len(rows[0])
    negate = False
    previous = None
    for k in range(steps):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, height) if rows[i][k]), None)
            if swap is None:
                return None
            rows[k], rows[swap] = rows[swap], rows[k]
            negate = not negate
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, width):
                entry, above = row[j], pivot_row[j]
                if factor and above:
                    value = pivot * entry - factor * above if entry else -(factor * above)
                elif entry:
                    value = pivot * entry
                else:
                    continue
                if value and previous is not None:
                    quotient = divide(value, previous)
                    if quotient is None:
                        raise ArithmeticError(
                            f"Bareiss step {k}: {value} is not divisible by {previous}"
                        )
                    value = quotient
                row[j] = value
        previous = pivot
    return negate


def _det(matrix: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant by fraction-free (Bareiss) elimination (``_eliminate``).

    A dense matrix, one where writing every coefficient of t^s_i * a_ij
    from t^0 up (s_i the shift of row i, ``_row_shifts``) takes at most
    twice its nonzero terms, is eliminated over Python ints at an integer
    point (``_kronecker_det``).  A sparse one, such as one with a row
    t^100, 1 - t^100, -t^100, would fill whole integers with zero digits,
    so it is eliminated over LaurentPoly.  A 1 x 1 matrix is its entry."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return matrix[0][0]
    shifts = _row_shifts(matrix)
    terms = written = 0
    for row, shift in zip(matrix, shifts):
        for entry in row:
            if entry:
                terms += len(entry._coeffs)
                written += max(entry._coeffs) + shift + 1
    if written <= 2 * terms:
        return _kronecker_det(matrix, shifts)
    rows = [list(row) for row in matrix]
    negate = _eliminate(rows, n - 1, LaurentPoly.exact_divide)
    if negate is None:
        return LaurentPoly.zero()
    det = rows[n - 1][n - 1]
    return -det if negate else det


def _unit_inverse(entry: LaurentPoly) -> Optional[LaurentPoly]:
    """u^-1 for a unit u = +-t^k, and None for any other entry."""
    if len(entry._coeffs) == 1:
        ((k, c),) = entry._coeffs.items()
        if c == 1 or c == -1:
            return LaurentPoly._from_clean({-k: c})
    return None


def _pivot_units(rows: Sequence[Mapping[int, LaurentPoly]], kept: Sequence[int]) -> list:
    """The Fox rows ``rows``, dicts from a column of ``kept`` to a nonzero
    entry, with every unit +-t^k pivoted out (``presentations.pivot_units``),
    which keeps the gcd of the maximal minors up to a unit: the rows left,
    each a list over the columns left, both in their order."""
    rows, left, _ = pivot_units(rows, kept, _unit_inverse)
    zero = LaurentPoly.zero()
    return [[row.get(c, zero) for c in left] for row in rows]


def _row_shifts(matrix: Sequence[Sequence[LaurentPoly]]) -> list:
    """Minus the lowest exponent in each row (0 for a zero row), so that
    t^s_i times row i is a row of polynomials in t with a constant term."""
    return [-min((min(entry._coeffs) for entry in row if entry), default=0)
            for row in matrix]


def _kronecker_det(matrix: Sequence[Sequence[LaurentPoly]],
                   shifts: Sequence[int]) -> LaurentPoly:
    """``_det`` of M at the integer point t = 2^b (Kronecker substitution;
    von zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4).

    Row i is multiplied by t^s_i, ``shifts[i]``, so M' has polynomial
    entries and det M' = t^S det M, S the sum of the shifts.  By
    Hadamard's inequality on |t| = 1, no coefficient of any minor of M',
    each entry of the Bareiss elimination included, exceeds C, where

        C^2 = prod_i (1 + sum_j |a'_ij|_1^2),

    each factor at least 1, so that a zero row cannot make C 0.  With
    2^(b-1) > C, b rounded up to whole bytes, a polynomial is zero exactly
    when its value at 2^b is: the pivots, swaps, singular exit and sign
    are those of the LaurentPoly run, and the determinant is read back
    exactly as balanced base-2^b digits, the only value range-checked
    (``_from_clean``)."""
    n = len(matrix)
    square = 1
    for row in matrix:
        square *= 1 + sum(sum(map(abs, entry._coeffs.values())) ** 2 for entry in row)
    # C < 2^ceil(L/2) for C^2 of L bits, so b = ceil(L/2) + 1 bits will do
    bits = (square.bit_length() + 1) // 2 + 1
    width = (bits + 7) // 8
    rows = [[_to_int(entry, shift, width) for entry in row]
            for row, shift in zip(matrix, shifts)]
    negate = _eliminate(rows, n - 1, _exact_quotient)
    if negate is None:
        return LaurentPoly.zero()
    det = rows[n - 1][n - 1]
    return _from_int(-det if negate else det, width, sum(shifts))


def _to_int(poly: LaurentPoly, shift: int, width: int) -> int:
    """t^shift * poly, a polynomial in t whose coefficients are below
    2^(8 width - 1) in magnitude, at t = 2^(8 width): its positive and its
    negative coefficients are each written as one little-endian byte
    string, ``width`` bytes a digit."""
    if not poly:
        return 0
    size = (max(poly._coeffs) + shift + 1) * width
    plus, minus = bytearray(size), bytearray(size)
    for e, c in poly._coeffs.items():
        at = (e + shift) * width
        if c > 0:
            plus[at:at + width] = c.to_bytes(width, "little")
        else:
            minus[at:at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


def _from_int(value: int, width: int, shift: int) -> LaurentPoly:
    """t^-shift times the polynomial whose value at t = 2^(8 width) is
    ``value`` and whose coefficients are below 2^(8 width - 1) in
    magnitude: its balanced digits.  Adding half a digit to every digit
    makes them all nonnegative, so one ``to_bytes`` reads them."""
    if not value:
        return LaurentPoly.zero()
    half = 1 << (8 * width - 1)
    middle = half.to_bytes(width, "little")
    # a value of degree d is above 2^(8 width d - 1) in magnitude, so it
    # has at least 8 width d bits
    count = value.bit_length() // (8 * width) + 1
    data = (value + int.from_bytes(middle * count, "little")).to_bytes(count * width, "little")
    terms = {}
    for k in range(count):
        digit = data[k * width:(k + 1) * width]
        if digit != middle:
            terms[k - shift] = int.from_bytes(digit, "little") - half
    return LaurentPoly._from_clean(terms)


def alexander_polynomial(presentation: Presentation,
                         matrix: Optional[AlexanderMatrix] = None) -> LaurentPoly:
    """Generator of the first elementary ideal, in normalized form.

    With g generators, this is the gcd of all (g-1) x (g-1) minors of the
    Alexander matrix, which does not depend on the presentation of the
    group.  By Fox's fundamental formula it is computed from one minor per
    set of g-1 rows: delete the column j of weight +-1, or failing one the
    nonzero weight of least magnitude (``AlexanderMatrix.deleted``), take
    the gcd D of these minors over row sets, and divide D exactly by
    (t^|a(j)| - 1) / (t - 1).  First the other columns, the ones the
    matrix's rows hold, are reduced by unit pivots (``_pivot_units``): each entry
    +-t^k takes its row and its column out, and D is unchanged up to a
    unit.  Then each row set of the remnant is one determinant (``_det``);
    with no column left, that is the empty determinant, 1.

    ``matrix`` is the presentation's ``alexander_matrix`` when the caller
    has built it already.  The free group of rank 1 (no relators) yields
    1.  Raises DeficiencyError when there are fewer than g-1 relators,
    NotInfiniteCyclicError when no weights exist, GcdTooLargeError when a
    gcd or the final division would make an operand of breadth above
    ``laurent.MAX_GCD_DEGREE`` dense, and TooManyRowSetsError when there
    are more than ``MAX_ROW_SETS`` row sets.  The deficiency, the row sets
    and the divisor's breadth are checked on the unreduced matrix, before
    any pivot or minor.
    """
    size = len(presentation.generators) - 1
    if len(presentation.relators) < size:
        raise DeficiencyError(
            f"need at least {size} relators for a {size}x{size} minor, "
            f"have {len(presentation.relators)}"
        )
    if matrix is None:
        matrix = alexander_matrix(presentation)
    if size == 0:
        return LaurentPoly.one()
    weights = matrix.weights
    deleted = matrix.deleted
    a = abs(weights[deleted])
    division = f"division of the minors' gcd by (t^{a} - 1)/(t - 1), an operand"
    check_dense_breadth(a - 1, division)
    # (t^a - 1)/(t - 1) = 1 + t + ... + t^(a-1) divides every minor without
    # column `deleted`, so their gcd equals it exactly when the answer is 1
    phi = LaurentPoly._from_clean(dict.fromkeys(range(a), 1))
    rows = len(matrix.rows)
    if comb(rows, size) > MAX_ROW_SETS:
        raise TooManyRowSetsError(
            f"the minors run over C({rows}, {size}) sets of rows, over the "
            f"limit of {MAX_ROW_SETS}"
        )
    kept = [j for j in range(len(weights)) if j != deleted]
    remnant = _pivot_units(matrix.rows, kept)
    # each pivot took one row and one column
    left = size - (rows - len(remnant))
    result = LaurentPoly.zero()
    for minor in map(_det, combinations(remnant, left)):
        result = laurent_gcd(result, minor)
        if result == phi:
            return LaurentPoly.one()
    if a > 1:
        check_dense_breadth(result.breadth(), division)
        quotient = result.exact_divide(phi)
        if quotient is None:
            raise ArithmeticError(f"{phi} does not divide the minors' gcd {result}")
        result = quotient
    return result.normalize_up_to_units()
