"""Free differential calculus, derivative matrix, Alexander polynomial."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from knotgroups import errors, fox, laurent
from knotgroups.errors import (
    CoefficientOverflowError,
    DeficiencyError,
    DerivativeTooLargeError,
    GcdTooLargeError,
    KnotGroupsError,
    NotInfiniteCyclicError,
    TooManyRowSetsError,
)
from knotgroups.fox import (
    _det,
    _fox_row,
    alexander_matrix,
    alexander_polynomial,
    fox_derivative,
)
from knotgroups.laurent import LaurentPoly, gcd as laurent_gcd
from knotgroups.presentations import (
    Presentation,
    abelianize,
    parse,
    parse_word,
    rbg_family,
)
from knotgroups.words import Word
from test_knot_symmetry import torus_presentation, wirtinger_torus
from test_presentations import (
    NAMES,
    planted_relation_matrices,
    run_word_text,
    run_words,
)
from test_tietze import (
    MOVES,
    TREFOIL,
    Moved,
    add_consequence,
    marked_family,
    random_moves,
    random_word,
)


def lp(coeffs):
    return LaurentPoly(coeffs)


def gre(*pairs):
    """The formal sum of the (word text, coefficient) pairs, as the dict
    ``fox_derivative`` returns."""
    def to_word(text):
        if text == "1":
            return Word.identity()
        return parse_word(text, ("x", "y", "a"))

    return {to_word(w): c for w, c in pairs}


def abelianize_ring_element(element, weights):
    """Map each word of a formal sum to t^(its weighted exponent sum)."""
    out = {}
    for word, coeff in element.items():
        total = sum(e * weights[g] for g, e in word.syllables)
        out[total] = out.get(total, 0) + coeff
    return LaurentPoly(out)


R2 = parse_word("x^-1*a*x*a^-1*x^-1*y*a*y^-1", ("x", "y", "a"))
ALL_ONE = {"x": 1, "y": 1, "a": 1}


class TestFoxDerivative:
    def test_axiom_dg_dg(self):
        assert fox_derivative(Word.generator("x"), "x") == gre(("1", 1))

    def test_axiom_other_generator(self):
        assert fox_derivative(Word.generator("y"), "x") == {}

    def test_axiom_inverse(self):
        assert fox_derivative(Word.generator("x", -1), "x") == gre(("x^-1", -1))

    def test_syllable_power_positive(self):
        # d(x^3)/dx = 1 + x + x^2
        assert fox_derivative(Word.generator("x", 3), "x") == gre(
            ("1", 1), ("x", 1), ("x^2", 1)
        )

    def test_syllable_power_negative(self):
        # d(x^-3)/dx = -(x^-1 + x^-2 + x^-3)
        assert fox_derivative(Word.generator("x", -3), "x") == gre(
            ("x^-1", -1), ("x^-2", -1), ("x^-3", -1)
        )

    def test_second_relator_by_x(self):
        # -x^-1 + x^-1 a - x^-1 a x a^-1 x^-1, a three-term formal sum
        expected = gre(
            ("x^-1", -1), ("x^-1*a", 1), ("x^-1*a*x*a^-1*x^-1", -1)
        )
        assert fox_derivative(R2, "x") == expected

    def test_second_relator_by_a(self):
        # x^-1 (1 + a x (-a^-1 + a^-1 x^-1 y)) expanded to three terms
        expected = gre(
            ("x^-1", 1), ("x^-1*a*x*a^-1", -1), ("x^-1*a*x*a^-1*x^-1*y", 1)
        )
        assert fox_derivative(R2, "a") == expected

    def test_second_relator_by_y(self):
        # x^-1 a x a^-1 x^-1 (1 - y a y^-1)
        expected = gre(
            ("x^-1*a*x*a^-1*x^-1", 1), ("x^-1*a*x*a^-1*x^-1*y*a*y^-1", -1)
        )
        assert fox_derivative(R2, "y") == expected

    def test_identity_word(self):
        assert fox_derivative(Word.identity(), "x") == {}


class TestAbelianizeRingElement:
    def test_second_relator_entries(self):
        # the three columns of the second matrix row: 1-2t^-1, t^-1-1, t^-1
        by_x = abelianize_ring_element(fox_derivative(R2, "x"), ALL_ONE)
        by_y = abelianize_ring_element(fox_derivative(R2, "y"), ALL_ONE)
        by_a = abelianize_ring_element(fox_derivative(R2, "a"), ALL_ONE)
        assert by_x == lp({-1: -2, 0: 1})
        assert by_y == lp({-1: 1, 0: -1})
        assert by_a == lp({-1: 1})

    def test_empty_sum(self):
        assert abelianize_ring_element({}, {}) == lp({})

    def test_nontrivial_weights(self):
        element = gre(("x*y", 1), ("y^-1", 2))
        poly = abelianize_ring_element(element, {"x": 2, "y": -1})
        assert poly == lp({1: 3})  # t^(2-1) + 2*t^1


class TestAlexanderMatrix:
    def test_family_m1(self):
        matrix = alexander_matrix(rbg_family(1))
        assert matrix.shape == (2, 3)
        row1 = [matrix[0, j] for j in range(3)]
        row2 = [matrix[1, j] for j in range(3)]
        assert row1 == [lp({0: -1, 1: 1, 2: -1}), lp({0: 1, 1: -1, 2: 1}), lp({})]
        assert row2 == [lp({-1: -2, 0: 1}), lp({-1: 1, 0: -1}), lp({-1: 1})]
        # the stored first relator is a rotation of the form whose
        # derivatives read -t^-1 + 1 - t etc.; rows agree up to a unit
        rotated = [lp({-1: -1, 0: 1, 1: -1}), lp({-1: 1, 0: -1, 1: 1})]
        for entry, other in zip(row1, rotated):
            assert entry.normalize_up_to_units() == other.normalize_up_to_units()

    def test_free_group_rank_one(self):
        matrix = alexander_matrix(parse("< x | >"))
        assert matrix.shape == (0, 1)

    def test_requires_infinite_cyclic(self):
        with pytest.raises(NotInfiniteCyclicError):
            alexander_matrix(parse("< x | x^2 >"))
        with pytest.raises(NotInfiniteCyclicError):
            alexander_matrix(parse("< x,y | x*y*x^-1*y^-1 >"))


class TestTermGuard:
    def test_huge_exponents_refused(self):
        with pytest.raises(DerivativeTooLargeError):
            alexander_matrix(parse("< x, y | x^100000000*y*x^-100000001 >"))

    def test_limit_is_inclusive(self, monkeypatch):
        # x^3*y*x^-4 expands to 3 + 1 + 4 = 8 monomials
        pres = parse("< x, y | x^3*y*x^-4 >")
        monkeypatch.setattr(fox, "MAX_DERIVATIVE_TERMS", 8)
        assert alexander_matrix(pres).shape == (1, 2)
        monkeypatch.setattr(fox, "MAX_DERIVATIVE_TERMS", 7)
        with pytest.raises(DerivativeTooLargeError):
            alexander_matrix(pres)

    def test_limit_counts_repeats_and_skips_weight_zero(self, monkeypatch):
        # y has weight 0, so y^5 and y^-5 cost nothing; x^2 occurs twice,
        # apart, so the rows expand to 2 + 2 + 4 = 8 monomials
        pres = parse("< x, y | y*x^2*y^5*x^2*y^-5*x^-4 >")
        assert abelianize(pres).weights == {"x": 1, "y": 0}
        monkeypatch.setattr(fox, "MAX_DERIVATIVE_TERMS", 8)
        assert alexander_matrix(pres).shape == (1, 2)
        monkeypatch.setattr(fox, "MAX_DERIVATIVE_TERMS", 7)
        with pytest.raises(DerivativeTooLargeError, match="expand to 8 monomials"):
            alexander_matrix(pres)

    def test_limit_is_the_same_with_runs(self, monkeypatch):
        # (x^2 y^-1)^200 x: weights a(x) = 200, a(y) = 401, and the rows
        # expand to 2*200 + 200 + 1 = 601 monomials, counted over the runs
        # as over the syllables
        text = "< x, y | " + "x^2*y^-1*" * 200 + "x >"
        pres = parse(text)
        syllables = pres.relators[0].syllables
        assert len(pres.relators[0].runs) == 2
        plain = Presentation(pres.generators, [Word._trusted(syllables, ((syllables, 1),))])
        for limit, fits in ((601, True), (600, False)):
            monkeypatch.setattr(fox, "MAX_DERIVATIVE_TERMS", limit)
            for p in (pres, plain):
                if fits:
                    assert alexander_matrix(p).shape == (1, 2)
                else:
                    with pytest.raises(DerivativeTooLargeError, match="expand to 601 monomials"):
                        alexander_matrix(p)

    def test_weight_zero_syllables_cost_one_term(self):
        # y has weight 0, so y^N contributes N*t^w in one monomial
        big = 100000000
        pres = parse(f"< x, y | y*x*y^{big}*x^-1*y^-{big} >")
        matrix = alexander_matrix(pres)
        assert matrix[0, 0] == lp({})
        assert matrix[0, 1] == lp({0: 1 - big, 1: big})


class TestAlexanderPolynomial:
    def test_family_formula(self):
        for m in range(1, 6):
            poly = alexander_polynomial(rbg_family(m))
            expected = lp({k: (-1) ** k for k in range(2 * m + 1)})
            assert poly == expected
            assert poly.breadth() == 2 * m

    def test_unknot_convention(self):
        assert alexander_polynomial(parse("< x | >")) == LaurentPoly.one()

    def test_trefoil(self):
        # oracle: the derivative of a b a b^-1 a^-1 b^-1 by a is
        # 1 + ab - a b a b^-1 a^-1, which abelianizes to 1 - t + t^2
        poly = alexander_polynomial(parse("< a,b | a*b*a*b^-1*a^-1*b^-1 >"))
        assert poly == lp({0: 1, 1: -1, 2: 1})

    def test_deficiency_guard(self):
        with pytest.raises(DeficiencyError):
            alexander_polynomial(parse("< x,y | >"))

    def test_family_minor_gcd_matches_selected_minor(self):
        # all three 2x2 minors are associates, so the gcd agrees with the
        # determinant of any one of them
        for m in range(1, 6):
            matrix = alexander_matrix(rbg_family(m))
            minors = []
            for c1, c2 in ((0, 1), (0, 2), (1, 2)):
                det = (
                    matrix[0, c1] * matrix[1, c2]
                    - matrix[0, c2] * matrix[1, c1]
                )
                minors.append(det)
            folded = minors[0]
            for minor in minors[1:]:
                folded = laurent_gcd(folded, minor)
            selected = minors[2].normalize_up_to_units()
            assert folded == selected
            assert alexander_polynomial(rbg_family(m)) == selected


# -- properties ----------------------------------------------------------------

gen_names = st.sampled_from(("x", "y", "a"))
words = st.lists(
    st.tuples(gen_names, st.integers(min_value=-3, max_value=3)), max_size=8
).map(Word)


@settings(max_examples=150)
@given(words, words, gen_names)
def test_product_rule(u, v, g):
    # d(uv) = du + u dv, summed term by term with zero sums dropped
    rhs = dict(fox_derivative(u, g))
    for w, c in fox_derivative(v, g).items():
        key = u * w
        rhs[key] = rhs.get(key, 0) + c
        if rhs[key] == 0:
            del rhs[key]
    assert fox_derivative(u * v, g) == rhs


@settings(max_examples=150)
@given(words, st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
def test_fundamental_identity(w, wx, wy, wa):
    # sum over generators of (d w / d g)^ab (t^weight(g) - 1) telescopes to
    # t^(total weight of w) - 1
    weights = {"x": wx, "y": wy, "a": wa}
    total = LaurentPoly.zero()
    for g in ("x", "y", "a"):
        poly = abelianize_ring_element(fox_derivative(w, g), weights)
        total = total + poly * (lp({weights[g]: 1}) - 1)
    ab_w = sum(weights[g] * e for g, e in w.exponent_sums().items())
    assert total == lp({ab_w: 1}) - 1


BASE_PRESENTATIONS = [
    rbg_family(1),
    rbg_family(2),
    parse("< a,b | a*b*a*b^-1*a^-1*b^-1 >"),
]


def _random_word_over(rng, gens):
    return Word(
        [
            (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 4))
        ]
    )


@pytest.mark.parametrize("base_idx", range(len(BASE_PRESENTATIONS)))
def test_alexander_invariance(base_idx):
    """Inverting a relator, conjugating a relator, or permuting the
    generators produces an associate Alexander polynomial."""
    base = BASE_PRESENTATIONS[base_idx]
    reference = alexander_polynomial(base)
    rng = random.Random(100 + base_idx)

    for trial in range(8):
        relators = list(base.relators)
        which = rng.randrange(len(relators))
        if trial % 2 == 0:
            relators[which] = ~relators[which]
        else:
            conjugator = _random_word_over(rng, base.generators)
            relators[which] = conjugator * relators[which] * ~conjugator
        tweaked = Presentation(base.generators, relators)
        assert alexander_polynomial(tweaked) == reference

    order = list(base.generators)
    rng.shuffle(order)
    reordered = Presentation(order, base.relators)
    assert alexander_polynomial(reordered) == reference


# -- one-pass rows against the noncommutative oracle ----------------------------

long_words = st.lists(
    st.tuples(gen_names, st.integers(min_value=-5, max_value=5)), max_size=12
).map(Word)
weight = st.integers(min_value=-3, max_value=3)


def _read_run_word(segments):
    """The word of ``segments``, each (block, k), written out as text and
    parsed, so that it keeps the runs it was written with."""
    text = "*".join("*".join([f"{g}^{e}" for g, e in block] * k) for block, k in segments)
    pres = parse(f"< x, y, a | {text} >")
    return pres.relators[0] if pres.relators else Word.identity()


# blocks of distinct generators, so that most words keep their runs
short_blocks = st.builds(
    lambda names, exps: list(zip(names, exps)),
    st.permutations(("x", "y", "a")),
    st.lists(st.integers(min_value=-3, max_value=3).filter(bool), min_size=1, max_size=3))
short_run_words = st.lists(st.tuples(short_blocks, st.integers(min_value=1, max_value=5)),
                           min_size=1, max_size=3).map(_read_run_word)


@settings(max_examples=300)
@given(st.one_of(long_words, short_run_words), weight, weight, weight,
       st.sets(st.sampled_from(("x", "y", "a"))))
def test_one_pass_row_matches_fox_derivative(w, wx, wy, wa, skipped):
    # the row holds the nonzero derivatives by the generators of the
    # column map, in column order; the others only advance the weight
    weights = {"x": wx, "y": wy, "a": wa}
    gens = ("x", "y", "a")
    row = _fox_row(w, {g: j for j, g in enumerate(gens) if g not in skipped}, weights)
    expected = {j: abelianize_ring_element(fox_derivative(w, g), weights)
                for j, g in enumerate(gens) if g not in skipped}
    assert row == {j: poly for j, poly in expected.items() if poly}
    assert list(row) == sorted(row)


@settings(max_examples=150, deadline=None)
@given(run_words, st.lists(weight, min_size=len(NAMES), max_size=len(NAMES)),
       st.sets(st.sampled_from(NAMES)))
def test_run_rows_match_per_syllable_rows(segments, weights, skipped):
    # a word with runs has the rows and the syllable counts, in the same
    # order, of the same syllables without them
    pres = parse(f"< {', '.join(NAMES)} | {run_word_text(segments)} >")
    if not pres.relators:
        return
    w = pres.relators[0]
    plain = Word._trusted(w.syllables, ((w.syllables, 1),))
    assert w.syllable_counts() == plain.syllable_counts()
    weights = dict(zip(NAMES, weights))
    column = {g: j for j, g in enumerate(NAMES) if g not in skipped}
    row = _fox_row(w, column, weights)
    assert row == _fox_row(plain, column, weights)
    assert list(row) == sorted(row)


@settings(max_examples=300)
@given(long_words)
def test_fox_derivative_terms_never_merge(w):
    # each letter g of the reduced word w gives the term (prefix before it)
    # with +1, each letter g^-1 the term (prefix through it) with -1; the
    # prefixes differ in length, so no two terms share a word
    letters = [(name, 1 if k > 0 else -1) for name, k in w.syllables for _ in range(abs(k))]
    for g in ("x", "y", "a"):
        expected = {}
        for j, (name, sign) in enumerate(letters):
            if name == g:
                expected[Word(letters[:j] if sign > 0 else letters[:j + 1])] = sign
        derivative = fox_derivative(w, g)
        assert len(derivative) == sum(abs(k) for name, k in w.syllables if name == g)
        assert derivative == expected


# -- Bareiss against cofactor expansion -------------------------------------------


def cofactor_det(matrix):
    """Determinant by expansion along the first column (the oracle)."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for i in range(n):
        minor = [row[1:] for k, row in enumerate(matrix) if k != i]
        term = matrix[i][0] * cofactor_det(minor)
        total = total + (term if i % 2 == 0 else -term)
    return total


# half the entries zero, so zero pivots (row swaps) and singular matrices
# come up often
entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-4, max_value=4),
        min_size=1, max_size=3,
    ).map(LaurentPoly),
)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=5).flatmap(square))
def test_bareiss_matches_cofactor(matrix):
    assert _det(matrix) == cofactor_det(matrix)


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=5).flatmap(square), entries, entries)
def test_bareiss_singular(matrix, p, q):
    # last row = p * first row + q * second-to-last row
    matrix[-1] = [p * a + q * b for a, b in zip(matrix[0], matrix[-2])]
    assert _det(matrix) == LaurentPoly.zero()
    assert cofactor_det(matrix) == LaurentPoly.zero()


class TestBareiss:
    def test_zero_pivot_swaps_rows_and_flips_sign(self):
        t = lp({1: 1})
        matrix = [[lp({}), t, lp({0: 2})],
                  [lp({0: 1}), lp({0: 1, 1: 1}), lp({})],
                  [t, lp({}), lp({-1: 3})]]
        assert _det(matrix) == cofactor_det(matrix)
        swapped = [matrix[1], matrix[0], matrix[2]]
        assert _det(swapped) == -_det(matrix)

    def test_later_zero_pivot(self):
        # the (2,2) entry vanishes only after the first elimination step
        one, two = lp({0: 1}), lp({0: 2})
        matrix = [[one, one, one, one],
                  [one, one, two, one],
                  [one, two, one, one],
                  [one, one, one, two]]
        assert _det(matrix) == cofactor_det(matrix) == lp({0: -1})

    def test_zero_column_is_singular(self):
        t = lp({1: 1})
        matrix = [[t, lp({})], [lp({0: 5}), lp({})]]
        assert _det(matrix) == LaurentPoly.zero()

    def test_inexact_division_raises(self, monkeypatch):
        # t^100 makes the matrix sparse, so it is eliminated over LaurentPoly
        monkeypatch.setattr(LaurentPoly, "exact_divide", lambda self, d: None)
        one, two, far = lp({0: 1}), lp({0: 2}), lp({100: 1})
        with pytest.raises(ArithmeticError):
            _det([[two, far, one], [one, two, far], [far, one, two]])

    def test_zero_row_with_a_wide_entry(self):
        # dense, so eliminated at the integer point: the zero row's factor
        # of Hadamard's bound is 1, and 300 still fits the digits
        zero = LaurentPoly.zero()
        assert _det([[lp({0: 300}), lp({0: 1})], [zero, zero]]) == zero


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_square_wirtinger_matches_all_minors(n):
    pres = wirtinger_torus(n)
    expected = LaurentPoly({k: (-1) ** k for k in range(n)})
    assert alexander_polynomial(pres) == all_minors_alexander(pres) == expected


# -- the integer point against the LaurentPoly elimination ----------------------


def laurent_det(matrix):
    """The determinant by the Bareiss loop over LaurentPoly, whatever the
    density: the oracle of ``_kronecker_det``."""
    rows = [list(row) for row in matrix]
    negate = fox._eliminate(rows, len(rows) - 1, LaurentPoly.exact_divide)
    if negate is None:
        return LaurentPoly.zero()
    return -rows[-1][-1] if negate else rows[-1][-1]


def kronecker_det(matrix):
    return fox._kronecker_det(matrix, fox._row_shifts(matrix))


def divisions(monkeypatch):
    """The list that each later ``_eliminate`` call appends its division
    to: ``fox._exact_quotient`` at the integer point, else
    ``LaurentPoly.exact_divide``."""
    taken = []
    eliminate = fox._eliminate

    def recording(rows, steps, divide):
        taken.append(divide)
        return eliminate(rows, steps, divide)

    monkeypatch.setattr(fox, "_eliminate", recording)
    return taken


@st.composite
def shifted_square(draw):
    """An r x r matrix, r in [1, 6], whose rows are multiplied by powers of
    t from t^-700 to t^500.  Its top-left z x z block is zero, so the first
    z pivots are zero in turn, and sometimes its last column is a multiple
    of its first, so it is singular."""
    r = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    zeros = draw(st.integers(min_value=0, max_value=r - 1))
    for i in range(zeros):
        m[i][:zeros] = [LaurentPoly.zero()] * zeros
    if r > 1 and draw(st.booleans()):
        p = draw(entries)
        for row in m:
            row[-1] = p * row[0]
    powers = st.one_of(st.integers(min_value=-5, max_value=5), st.sampled_from((-700, 500)))
    exps = draw(st.lists(powers, min_size=r, max_size=r))
    return [[entry.shift(k) for entry in row] for row, k in zip(m, exps)]


@settings(max_examples=300, deadline=None)
@given(shifted_square())
def test_kronecker_minors_equal_laurent_minors(matrix):
    # the same determinant, sign included, singular matrices too
    assert kronecker_det(matrix) == laurent_det(matrix)


def sylvester_hadamard(k):
    """The 2^k x 2^k matrix of +-1 with orthogonal rows."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-c for c in row] for row in h]
    return h


@pytest.mark.parametrize("k,power", [(1, 6), (2, 4), (3, 3), (3, 0)])
def test_kronecker_minors_of_hadamard_times_one_plus_t(k, power):
    # a Hadamard matrix meets Hadamard's bound, so the largest coefficient
    # of its determinant comes within 3 bits of the bound C that sizes b
    scale = LaurentPoly({e: comb(power, e) for e in range(power + 1)})
    matrix = [[scale * c for c in row] for row in sylvester_hadamard(k)]
    assert kronecker_det(matrix) == laurent_det(matrix)


@pytest.mark.parametrize("seed", range(6))
def test_kronecker_minors_of_dense_entries_near_fifty(seed):
    # up to 5 x 5, as large as the LaurentPoly oracle stays in range
    rng = random.Random(seed)
    r = rng.randint(1, 5)

    def entry():
        lo = rng.randint(-3, 3)
        return lp({lo + e: rng.choice((-1, 1)) * rng.randint(40, 60)
                   for e in range(rng.randint(1, 4))})

    matrix = [[entry() for _ in range(r)] for _ in range(r)]
    assert kronecker_det(matrix) == laurent_det(matrix)


def test_kronecker_minors_with_digits_wider_than_64_bits(monkeypatch):
    # a 46 x 46 row set of T(2,47)'s N, whose Hadamard bound needs 9-byte
    # digits
    widths = []
    read = fox._from_int

    def recording(value, width, shift):
        widths.append(width)
        return read(value, width, shift)

    matrix = [row[1:] for row in alexander_matrix(wirtinger_torus(47)).entries][:46]
    monkeypatch.setattr(fox, "_from_int", recording)
    assert kronecker_det(matrix) == laurent_det(matrix) == torus_closed_form(47)
    assert widths == [9]


def twisted_torus(n, k):
    """Wirtinger T(2, n) with the first syllable of each relator raised to
    the k-th power: the rows t^k, 1 - t^k, -t^k are sparse."""
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [f"{gens[(i + 1) % n]}^{k}*{gens[i]}*{gens[(i + 1) % n]}^-{k}*{gens[(i + 2) % n]}^-1"
            for i in range(n)]
    return parse(f"< {', '.join(gens)} | {', '.join(rels)} >")


def torus_closed_form(n):
    # Delta_T(2,n) = (t^n + 1) / (t + 1) = 1 - t + t^2 - ... + t^(n-1)
    return LaurentPoly({k: (-1) ** k for k in range(n)})


class TestIntegerPoint:
    # alexander_polynomial pivots T(2,n) down to a 2 x 1 remnant, so these
    # tests take the row sets of the unreduced N to keep full-size
    # determinants exercised
    def test_wirtinger_takes_the_integer_point(self, monkeypatch):
        n = [row[1:] for row in alexander_matrix(wirtinger_torus(7)).entries]
        taken = divisions(monkeypatch)
        minors = list(map(_det, combinations(n, 6)))
        assert {m.normalize_up_to_units() for m in minors} == {torus_closed_form(7)}
        assert taken == [fox._exact_quotient] * 7
        assert alexander_polynomial(wirtinger_torus(7)) == torus_closed_form(7)

    def test_sparse_matrix_takes_the_laurent_path(self, monkeypatch):
        pres = twisted_torus(9, 100)
        n = [row[1:] for row in alexander_matrix(pres).entries]
        expected = [kronecker_det(rows) for rows in combinations(n, 8)]
        taken = divisions(monkeypatch)
        assert list(map(_det, combinations(n, 8))) == expected
        assert taken == [LaurentPoly.exact_divide] * 9
        assert alexander_polynomial(pres).breadth() > 0

    def test_rows_conjugated_by_x_to_the_500_are_shifted_back(self, monkeypatch):
        # the row of w*r*w^-1 is t^a(w) times that of r, so the shift of
        # each conjugated row is -500 and the integers stay as small as T(2,7)'s
        base = wirtinger_torus(7)
        x = Word.generator("x1", 500)
        relators = [x * r * ~x if i % 3 == 0 else r for i, r in enumerate(base.relators)]
        pres = Presentation(base.generators, relators)
        n = [row[1:] for row in alexander_matrix(pres).entries]
        assert fox._row_shifts(n) == [-500 if i % 3 == 0 else 0 for i in range(7)]
        expected = [laurent_det(rows) for rows in combinations(n, 6)]
        assert [kronecker_det(rows) for rows in combinations(n, 6)] == expected
        assert alexander_polynomial(pres) == alexander_polynomial(base)
        taken = divisions(monkeypatch)
        assert list(map(_det, combinations(n, 6))) == expected
        assert taken == [fox._exact_quotient] * 7

    def test_inexact_division_raises(self, monkeypatch):
        monkeypatch.setattr(fox, "_exact_quotient", lambda value, divisor: None)
        n = [row[1:] for row in alexander_matrix(wirtinger_torus(5)).entries]
        with pytest.raises(ArithmeticError):
            kronecker_det(n[:4])

    def test_intermediate_overflow_answers(self):
        # u^(2^40) makes the first pivot 2^40 and u^(2^24) a minor -2^24, so
        # the LaurentPoly elimination of N bordered by the unit column e_2
        # forms the product -2^64 before it divides by 2^40; the integer
        # point range-checks only the determinant
        pres = parse("< x, u, v | u^1099511627776*v, u^16777216, u >")
        n = [row[1:] for row in alexander_matrix(pres).entries]
        bordered = [[*row, lp({0: int(i == 2)})] for i, row in enumerate(n)]
        with pytest.raises(CoefficientOverflowError):
            laurent_det(bordered)
        assert _det(bordered) == lp({0: -2**24})
        assert alexander_polynomial(pres) == LaurentPoly.one()


# -- unit pivots before the minors ------------------------------------------------


def minors_gcd(n, width):
    """The gcd of the maximal minors of the matrix n of ``width`` columns,
    one ``_det`` per row set: the oracle of ``_pivot_units``.  With no
    column the one minor is the empty determinant, 1."""
    result = LaurentPoly.zero()
    for minor in map(_det, combinations(n, width)):
        result = laurent_gcd(result, minor)
    return result


def sparse(n):
    """The rows of the dense matrix n as dicts of their nonzero entries,
    as ``alexander_matrix`` keeps them."""
    return [{c: entry for c, entry in enumerate(row) if entry} for row in n]


def pivoted(n, width):
    """``_pivot_units`` of all ``width`` columns of n, and the number of
    columns it leaves: each pivot takes one row and one column."""
    remnant = fox._pivot_units(sparse(n), range(width))
    return remnant, width - (len(n) - len(remnant))


def is_unit(entry):
    return len(entry.terms()) == 1 and abs(entry.terms()[0][1]) == 1


units = st.builds(lambda sign, k: lp({k: sign}), st.sampled_from((-1, 1)),
                  st.integers(min_value=-3, max_value=3))


@st.composite
def planted_units(draw):
    """An r x c matrix, c <= r <= 5, of ``entries`` with units planted at
    random places: often some rows share a unit's column (a step), and
    often a row has no entry where the pivot row has one (fill)."""
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=r))
    n = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    for _ in range(draw(st.integers(min_value=0, max_value=r + c))):
        n[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(units)
    return n, c


@settings(max_examples=300, deadline=None)
@given(planted_units())
def test_unit_pivots_keep_the_gcd_of_maximal_minors(case):
    n, width = case
    given_n = [list(row) for row in n]
    remnant, left = pivoted(n, width)
    assert n == given_n
    assert all(len(row) == left for row in remnant)
    assert not any(is_unit(entry) for row in remnant for entry in row)
    assert minors_gcd(remnant, left) == minors_gcd(n, width)


@settings(max_examples=150, deadline=None)
@given(planted_units(), st.integers(min_value=4, max_value=30))
def test_steps_past_the_range_are_skipped(case, bound):
    # with the checked range cut to `bound`, many steps would leave it:
    # they are not taken, and what is left has the same minors' gcd
    n, width = case
    expected = minors_gcd(n, width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "CHECKED_INT_MAX", bound)
        mp.setattr(errors, "CHECKED_INT_MAX", bound)
        remnant, left = pivoted(n, width)
    assert minors_gcd(remnant, left) == expected


def check_pivots(n, width, remnant):
    assert pivoted(n, width)[0] == remnant
    assert minors_gcd(remnant, len(remnant[0]) if remnant else 0) == minors_gcd(n, width)


class TestUnitPivots:
    def test_zero_multiplier_leaves_the_row(self):
        # row 1 has no entry in the pivot column, so the step skips it
        one, t = lp({0: 1}), lp({1: 1})
        n = [[one, lp({0: 2})], [lp({}), t + 3], [lp({0: 5}), lp({0: 7})]]
        check_pivots(n, 2, [[t + 3], [lp({0: -3})]])

    def test_step_makes_fill(self):
        # row 1 has no entry in column 1 until (1 + t) * (2 + t) is taken
        # from it; nothing left is a unit
        one, t = lp({0: 1}), lp({1: 1})
        n = [[one, t + 2, lp({})], [one + t, lp({}), lp({0: 3})], [lp({}), lp({0: 2}), 2 + 2 * t]]
        check_pivots(n, 3, [[-(t + 1) * (t + 2), lp({0: 3})], [lp({0: 2}), 2 + 2 * t]])

    def test_step_past_the_checked_range_is_skipped(self):
        # the pivot (0, 0) would make 2^30 * 2^40 in row 1, so it is not
        # taken; (2, 1) then clears column 1 from row 0, and (0, 0) no
        # longer needs a product.  Rows 0 and 2 have minor 1, so the gcd is 1
        big, huge, one = lp({0: 2**30}), lp({0: 2**40}), lp({0: 1})
        n = [[one, huge], [big, lp({})], [lp({}), one]]
        with pytest.raises(CoefficientOverflowError):
            minors_gcd(n, 2)
        assert fox._pivot_units(sparse(n), range(2)) == [[]]
        assert _det([n[0], n[2]]) == one

    def test_every_column_pivoted_leaves_the_empty_minor(self):
        one, t = lp({0: 1}), lp({1: 1})
        n = [[one, lp({})], [t, lp({0: -1})], [lp({0: 2}), lp({0: 3})]]
        check_pivots(n, 2, [[]])
        assert minors_gcd([[]], 0) == one

    def test_square_without_a_unit_left_alone(self):
        two, t = lp({0: 2}), lp({1: 1})
        n = [[two, t + 1], [t - 1, two * t], [t + t * t, lp({})]]
        check_pivots(n, 2, n)

    def test_kept_columns_only(self):
        # the rows hold no entry of the deleted column, so its units are not
        # pivots: T(2,3) has two of them there, and one pivot leaves 2 x 1
        matrix = alexander_matrix(wirtinger_torus(3))
        assert matrix.deleted == 0
        assert sum(is_unit(matrix[i, 0]) for i in range(3)) == 2
        assert all(0 not in row for row in matrix.rows)
        assert [len(row) for row in fox._pivot_units(matrix.rows, [1, 2])] == [1, 1]


def cascade(rows):
    """A rows x (rows - 1) matrix whose only unit sits in its last row:
    row i is 2, 5, 2 in columns i, i - 1, i - 2, and the last row is 1, 2
    in its last two columns.  Each pivot turns the row above it into
    1, 2, so the units appear one row up at a time."""
    width = rows - 1
    n = [[lp({})] * width for _ in range(rows)]
    for i in range(width):
        for c, value in ((i, 2), (i - 1, 5), (i - 2, 2)):
            if c >= 0:
                n[i][c] = lp({0: value})
    n[-1][-1], n[-1][-2] = lp({0: 1}), lp({0: 2})
    return n


def test_cascade_against_the_oracle():
    n = cascade(6)
    check_pivots(n, 5, [[]])


def test_units_in_the_last_rows_reduce_in_linear_time(monkeypatch):
    # 400 x 399: every row is read once in order, and once more after the
    # step below it changes it; a search from the top for each pivot would
    # read about 400 rows of entries for each of the 399 pivots
    read = []
    inverse = fox._unit_inverse

    def counting(entry):
        read.append(entry)
        return inverse(entry)

    n = sparse(cascade(400))
    entries = sum(map(len, n))
    monkeypatch.setattr(fox, "_unit_inverse", counting)
    assert fox._pivot_units(n, range(399)) == [[]]
    assert len(read) <= 2 * entries


@pytest.mark.parametrize("n", range(3, 102, 2))
def test_wirtinger_pivots_to_two_by_one(n, monkeypatch):
    shapes = []
    pivot_units = fox._pivot_units

    def recording(rows, kept):
        remnant = pivot_units(rows, kept)
        shapes.append((len(remnant), len(remnant[0])))
        return remnant

    monkeypatch.setattr(fox, "_pivot_units", recording)
    assert alexander_polynomial(wirtinger_torus(n)) == torus_closed_form(n)
    assert shapes == [(2, 1)]


# -- one minor per row set against all maximal minors ---------------------------


def all_minors_alexander(presentation):
    """The gcd of every (g-1) x (g-1) minor of the Alexander matrix, one
    Bareiss elimination each: the definition, and the oracle of
    ``alexander_polynomial``, which computes one minor per row set."""
    size = len(presentation.generators) - 1
    matrix = alexander_matrix(presentation)
    rows, cols = matrix.shape
    if size == 0:
        return LaurentPoly.one()
    result = LaurentPoly.zero()
    for row_idx in combinations(range(rows), size):
        for col_idx in combinations(range(cols), size):
            minor = [[matrix.entries[i][j] for j in col_idx] for i in row_idx]
            result = laurent_gcd(result, _det(minor))
            if result == LaurentPoly.one():
                return result
    return result.normalize_up_to_units()


TORUS_PQ = ((2, 3), (3, 4), (2, 5), (3, 5), (4, 7), (5, 6))

# Bases of the random chains: knot groups whose matrices all have a column
# of weight 1, and torus presentations x^p * y^-q, whose weights are q and p.
MOVE_BASES = [rbg_family(1), rbg_family(2), wirtinger_torus(3)] + [
    torus_presentation(p, q) for p, q in TORUS_PQ
]


def add_null_relator(rng, moved):
    """A commutator of random words: it abelianizes to 0, so the group
    changes but its abelianization and weights do not."""
    gens = moved.presentation.generators
    u = random_word(rng, gens, rng.randint(1, 2))
    v = random_word(rng, gens, rng.randint(1, 2))
    return moved.rebuild(relators=moved.presentation.relators + (u * v * ~u * ~v,))


@st.composite
def moved_presentations(draw):
    """A base from ``MOVE_BASES`` after up to four random Tietze moves or
    added null relators; either kind of step can add a relator, so many
    presentations have more relators than a maximal minor needs."""
    base = draw(st.sampled_from(MOVE_BASES))
    rng = draw(st.randoms(use_true_random=False))
    moved = Moved(base, {g: g for g in base.generators})
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        moved = rng.choice(MOVES + (add_null_relator,))(rng, moved)
    return moved.presentation


@settings(max_examples=150, deadline=None)
@given(moved_presentations())
def test_one_minor_per_row_set_matches_all_minors(presentation):
    assert alexander_polynomial(presentation) == all_minors_alexander(presentation)


def check_with_the_full_matrix(presentation):
    """``alexander_polynomial`` on the kept columns of its own matrix
    equals it on a matrix built first, as ``alex --matrix`` builds it, and
    a refusal is the same refusal."""
    try:
        expected = alexander_polynomial(presentation)
    except KnotGroupsError as error:
        expected = type(error)
    try:
        matrix = None
        if len(presentation.relators) >= len(presentation.generators) - 1:
            matrix = alexander_matrix(presentation)
            assert len(matrix.entries) == len(matrix.rows) == len(presentation.relators)
        got = alexander_polynomial(presentation, matrix)
    except KnotGroupsError as error:
        got = type(error)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(st.one_of(moved_presentations(), planted_relation_matrices()))
def test_polynomial_with_the_full_matrix(presentation):
    check_with_the_full_matrix(presentation)


@pytest.mark.parametrize("text", [
    "< x | x^6 >", "< x, y | x^2, y^3 >", "< x, y | >", "< x | >",
    "< x, y | x*y^4611686018427387904, x*y^-4611686018427387904 >",
    "< x, y | x^100000000*y*x^-100000001 >",
])
def test_refusals_with_the_full_matrix(text):
    check_with_the_full_matrix(parse(text))


@pytest.mark.parametrize("seed", range(24))
def test_tietze_moved_with_the_full_matrix(seed):
    rng = random.Random(seed)
    base = (TREFOIL, marked_family(1), marked_family(2), wirtinger_torus(7))[seed % 4]
    check_with_the_full_matrix(random_moves(rng, base, rng.randint(1, 6), MOVES).presentation)


# Moves that keep the number of relators less the number of generators: a
# relator is added only with the generator it defines.
SQUARE_MOVES = tuple(m for m in MOVES if m is not add_consequence)


@st.composite
def square_moved_presentations(draw):
    """A base from ``MOVE_BASES``, given one consequence of its relators if
    it has a relator too few to be square, after up to four random moves
    that keep it square."""
    base = draw(st.sampled_from(MOVE_BASES))
    rng = draw(st.randoms(use_true_random=False))
    moved = Moved(base, {g: g for g in base.generators})
    if len(base.relators) < len(base.generators):
        moved = add_consequence(rng, moved)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        moved = rng.choice(SQUARE_MOVES)(rng, moved)
    presentation = moved.presentation
    assert len(presentation.relators) == len(presentation.generators)
    return presentation


@settings(max_examples=100, deadline=None)
@given(square_moved_presentations())
def test_square_elimination_matches_row_sets_and_all_minors(presentation):
    assert alexander_polynomial(presentation) == all_minors_alexander(presentation)


@pytest.mark.parametrize("p,q", TORUS_PQ)
def test_no_unit_weight_column_matches_all_minors(p, q):
    # a surplus relator, a conjugate of the first, and a generator z of
    # weight 2q that no column of weight +-1 can stand in for
    base = torus_presentation(p, q)
    pres = Presentation(
        ("y", "z", "x"),
        base.relators + (
            parse_word(f"y*x^{p}*y^-{q + 1}", ("x", "y")),
            parse_word("z^-1*x^2", ("x", "z")),
        ),
    )
    assert sorted(abs(a) for a in alexander_matrix(pres).weights) == [p, q, 2 * q]
    assert alexander_polynomial(pres) == all_minors_alexander(pres)
    assert alexander_polynomial(pres) == alexander_polynomial(base)


def no_unit_square(n):
    """< x1..xn | x_i^3 * x_(i+1)^-2 * x_i^-2 * x_(i+1) >, indices mod n: row
    i of its matrix is p * (e_i - e_(i+1)) with p = t^-1 (t^3 + t^2 - 1),
    so no entry is a unit, nothing is pivoted, and each of the n row sets
    of the n x (n - 1) matrix N is one dense determinant."""
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [f"{gens[i]}^3*{gens[(i + 1) % n]}^-2*{gens[i]}^-2*{gens[(i + 1) % n]}"
            for i in range(n)]
    return parse(f"< {', '.join(gens)} | {', '.join(rels)} >")


@pytest.mark.parametrize("n", range(3, 27))
def test_square_without_units_answers_the_closed_form(n):
    # each minor of N is +-p^(n-1), so Delta = (t^3 + t^2 - 1)^(n-1) up to
    # a unit; from n = 26 on, the LaurentPoly run of these minors leaves
    # the checked range, and only the integer point answers
    pres = no_unit_square(n)
    expected = LaurentPoly.one()
    for _ in range(n - 1):
        expected = expected * lp({0: -1, 2: 1, 3: 1})
    expected = expected.normalize_up_to_units()
    assert alexander_polynomial(pres) == expected
    if n <= 5:
        assert all_minors_alexander(pres) == expected


class TestDivisionGuard:
    # x^4*y^-7: weights 7 and 4, so the one minor 1 + t^7 + t^14 + t^21
    # (breadth 21) is divided by 1 + t + t^2 + t^3 (breadth 3)
    PRES = "< x, y | x^4*y^-7 >"

    def test_limit_is_inclusive(self, monkeypatch):
        expected = alexander_polynomial(parse(self.PRES))
        monkeypatch.setattr(laurent, "MAX_GCD_DEGREE", 21)
        assert alexander_polynomial(parse(self.PRES)) == expected
        monkeypatch.setattr(laurent, "MAX_GCD_DEGREE", 20)
        with pytest.raises(GcdTooLargeError, match="breadth 21,"):
            alexander_polynomial(parse(self.PRES))

    def test_divisor_checked_before_any_minor(self, monkeypatch):
        monkeypatch.setattr(laurent, "MAX_GCD_DEGREE", 2)
        monkeypatch.setattr(fox, "_det", lambda minor: pytest.fail("minor computed"))
        with pytest.raises(GcdTooLargeError, match="breadth 3,"):
            alexander_polynomial(parse(self.PRES))


class TestRowSetGuard:
    # T(2,5) and the conjugate of its first relator by x1: 6 relators, so
    # C(6, 4) = 15 sets of 4 rows
    BASE = wirtinger_torus(5)
    x1 = Word.generator("x1")
    PRES = Presentation(BASE.generators,
                        BASE.relators + (x1 * BASE.relators[0] * ~x1,), {})

    def test_limit_is_inclusive(self, monkeypatch):
        expected = alexander_polynomial(self.BASE)
        monkeypatch.setattr(fox, "MAX_ROW_SETS", 15)
        assert alexander_polynomial(self.PRES) == expected
        monkeypatch.setattr(fox, "MAX_ROW_SETS", 14)
        with pytest.raises(TooManyRowSetsError,
                           match=r"C\(6, 4\) sets of rows, over the limit of 14$"):
            alexander_polynomial(self.PRES)

    def test_checked_before_any_minor(self, monkeypatch):
        monkeypatch.setattr(fox, "MAX_ROW_SETS", 14)
        monkeypatch.setattr(fox, "_det", lambda minor: pytest.fail("minor computed"))
        with pytest.raises(TooManyRowSetsError):
            alexander_polynomial(self.PRES)


def test_zero_weight_column_is_never_deleted():
    # y abelianizes to 0, so the minor without y's column is zero and
    # the one without x's column carries the polynomial
    pres = parse("< y, x | y*x*y^-1*x^-1*y >")
    matrix = alexander_matrix(pres)
    assert matrix.weights == (0, 1)
    assert matrix[0, 1] == LaurentPoly.zero()
    assert alexander_polynomial(pres) == all_minors_alexander(pres) != LaurentPoly.zero()


# -- Fox's fundamental formula on the one-pass matrix ----------------------------


def assert_fundamental_formula(presentation):
    """Every row of the one-pass matrix, with column j weighted by
    t^a(j) - 1, sums to zero: each relator abelianizes to t^0."""
    weights = abelianize(presentation).weights
    matrix = alexander_matrix(presentation)
    assert matrix.weights == tuple(weights[g] for g in presentation.generators)
    factors = [lp({weights[g]: 1}) - 1 for g in presentation.generators]
    for row in matrix.entries:
        total = LaurentPoly.zero()
        for entry, factor in zip(row, factors):
            total = total + entry * factor
        assert total == LaurentPoly.zero()


FORMULA_CASES = (
    [(f"family m={m}", rbg_family(m)) for m in (1, 2, 5, 30)]
    + [(f"T(2,{n})", wirtinger_torus(n)) for n in (3, 5, 7, 9)]
    + [(f"x^{p}*y^-{q}", torus_presentation(p, q)) for p, q in TORUS_PQ]
)


@pytest.mark.parametrize("name,presentation", FORMULA_CASES,
                         ids=[c[0] for c in FORMULA_CASES])
def test_fundamental_formula_on_rows(name, presentation):
    assert_fundamental_formula(presentation)


@settings(max_examples=150, deadline=None)
@given(moved_presentations())
def test_fundamental_formula_after_moves(presentation):
    assert_fundamental_formula(presentation)
