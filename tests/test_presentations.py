"""Presentation parsing, rendering, the family generator, abelianization."""

import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from knotgroups import presentations
from knotgroups.errors import (
    CoefficientOverflowError,
    DerivativeTooLargeError,
    DuplicateGeneratorError,
    InvalidParameterError,
    KnotGroupsError,
    PresentationSyntaxError,
    UnknownGeneratorError,
    WordTooLargeError,
)
from knotgroups.fox import alexander_matrix
from knotgroups.presentations import (
    Presentation,
    abelianize,
    parse,
    parse_word,
    rbg_family,
    smith_normal_form,
)
from knotgroups.words import Word, reduce_syllables
from test_knot_symmetry import wirtinger_torus
from test_tietze import MOVES, TREFOIL, marked_family, random_moves

THREE_GEN_TEXT = (
    "< x,y,a | x^-1*y*x*y*x^-1*y^-1, x^-1*a*x*a^-1*x^-1*y*a*y^-1 >"
)


class TestParse:
    def test_free_group_rank_one(self):
        pres = parse("< x | >")
        assert pres.generators == ("x",)
        assert pres.relators == ()
        assert pres.markers == {}

    def test_three_generator_two_relator(self):
        pres = parse(THREE_GEN_TEXT)
        assert pres.generators == ("x", "y", "a")
        assert len(pres.relators) == 2
        assert pres.relators[1] == parse_word(
            "x^-1*a*x*a^-1*x^-1*y*a*y^-1", ("x", "y", "a")
        )

    def test_parenthesized_powers(self):
        pres = parse("< x,y | (y*x)^-3 >")
        yx = Word((("y", 1), ("x", 1)))
        assert pres.relators[0] == yx**-3

    def test_markers(self):
        pres = parse("< x,a | >\nmeridian mu: x^-1*a*x\nmeridian nu: a\n")
        assert list(pres.markers) == ["mu", "nu"]
        assert pres.markers["mu"] == parse_word("x^-1*a*x", ("x", "a"))

    def test_whitespace_insensitive(self):
        a = parse("<x,y|x*y^2>")
        b = parse("  < x , y |\n   x * y ^ 2 >  ")
        assert a == b

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            parse("< x | x*y >")

    def test_duplicate_generator(self):
        with pytest.raises(DuplicateGeneratorError):
            parse("< x,x | >")
        with pytest.raises(DuplicateGeneratorError, match="generator 'x' declared twice"):
            parse("< x, y, x | >")

    def test_duplicate_marker(self):
        with pytest.raises(DuplicateGeneratorError):
            parse("< x | >\nmeridian m: x\nmeridian m: x^-1\n")

    def test_empty_input(self):
        with pytest.raises(PresentationSyntaxError):
            parse("")

    def test_syntax_error_carries_position(self):
        with pytest.raises(PresentationSyntaxError) as err:
            parse("< x |\n x* >")
        assert err.value.line == 2
        assert err.value.column == 5  # points at the offending '>'

    @pytest.mark.parametrize("text, line, column", [
        ("< x | x", 1, 8),
        ("<x", 1, 3),
        ("< x, y | x,\n  y^", 2, 5),
        ("< x |\n x\n", 3, 1),
    ])
    def test_end_of_input_error_points_past_the_text(self, text, line, column):
        # the token after the last one is the end of the text
        with pytest.raises(PresentationSyntaxError, match="found end of input") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_exponent_past_the_digit_limit(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(PresentationSyntaxError, match="exponent of more than") as err:
            parse(f"< x, y |\n x^{digits}*y^-1 >")
        assert (err.value.line, err.value.column) == (2, 4)

    def test_long_product_spelled_out(self):
        # the family relator written letter by letter, as `knotgroups
        # family` or a benchmark input writes it, parses to the same word
        m = 181
        text = "y*x*" * m + "y*" + "x^-1*y^-1*" * m + "x^-1"
        word = parse_word(text, ("x", "y", "a"))
        assert word == rbg_family(m).relators[0]
        assert parse_word("x*y*y^-1*x^-1*a", ("x", "y", "a")) == Word((("a", 1),))

    def test_error_position_late_in_long_word(self):
        text = "< x, y | " + "x*y*" * 50 + "x*z >"
        with pytest.raises(UnknownGeneratorError, match="line 1, column 212"):
            parse(text)
        with pytest.raises(PresentationSyntaxError) as err:
            parse("< x, y |\n" + "x*y*" * 50 + "* >")
        assert (err.value.line, err.value.column) == (2, 201)

    def test_word_generators_that_are_not_names(self):
        # parsed words skip name checks, so only name tokens may match
        with pytest.raises(PresentationSyntaxError, match="found '-1'"):
            parse_word("-1", ("-1",))
        assert parse_word("(x)^2", ("(", "x", "x y")) == Word((("x", 2),))

    def test_reserved_keyword(self):
        with pytest.raises(PresentationSyntaxError):
            parse("< meridian | >")
        with pytest.raises(PresentationSyntaxError) as err:
            parse("< x,\n  y, meridian | >")
        assert (err.value.line, err.value.column) == (2, 6)

    def test_trailing_junk(self):
        with pytest.raises(PresentationSyntaxError):
            parse("< x | > nonsense")

    def test_identity_relator_dropped(self):
        pres = parse("< x,y | x*x^-1, y^2 >")
        assert pres.relators == (Word((("y", 2),)),)


class TestRender:
    def test_round_trip_values(self):
        for text in (
            "< x | >",
            THREE_GEN_TEXT,
            "< x,a | a^2 >\nmeridian mu: x^-1*a*x\n",
        ):
            pres = parse(text)
            assert parse(pres.render()) == pres

    def test_round_trip_canonical_text(self):
        canonical = rbg_family(2).render()
        assert parse(canonical).render() == canonical

    def test_marker_lines_in_order(self):
        lines = rbg_family(1).render().splitlines()
        assert lines[1] == "meridian meridian_B: x"
        assert lines[2] == "meridian meridian_G: a"


class TestFamily:
    def test_relator1_is_rotation_of_conventional_form(self):
        # (yx) y (yx)^-1 x^-1 and the conventional x^-1 y x y x^-1 y^-1
        # are the same relator up to cyclic rotation
        fam = rbg_family(1)
        target = parse_word("x^-1*y*x*y*x^-1*y^-1", ("x", "y"))
        assert _cyclically_equal(fam.relators[0], target)

    def test_relator2_literal(self):
        fam = rbg_family(1)
        assert fam.relators[1] == parse_word(
            "x^-1*a*x*a^-1*x^-1*y*a*y^-1", ("x", "y", "a")
        )

    def test_construction_formula(self):
        for m in (1, 2, 5):
            fam = rbg_family(m)
            x, y = Word.generator("x"), Word.generator("y")
            yx = y * x
            assert fam.relators[0] == yx**m * y * yx**-m * ~x

    def test_exponent_sums_independent_of_m(self):
        for m in (1, 2, 3, 7):
            fam = rbg_family(m)
            assert relation_matrix(fam) == [[-1, 1, 0], [-1, 0, 1]]

    def test_relator1_exponent_sums_m3(self):
        r1 = rbg_family(3).relators[0]
        assert exponent_sum(r1, "x") == -1
        assert exponent_sum(r1, "y") == 1

    def test_relator1_size_linear_in_m(self):
        # the reduced relator alternates single letters: 4m + 2 syllables
        for m in (1, 4, 61):
            r1 = rbg_family(m).relators[0]
            assert len(r1.syllables) == 4 * m + 2
            assert all(abs(e) == 1 for _, e in r1.syllables)

    def test_markers(self):
        fam = rbg_family(3)
        assert fam.markers["meridian_B"] == Word.generator("x")
        assert fam.markers["meridian_G"] == Word.generator("a")

    def test_invalid_parameter(self):
        for bad in (0, -2, "3"):
            with pytest.raises(InvalidParameterError):
                rbg_family(bad)


def exponent_sum(word, name):
    """Total signed exponent of ``name`` in ``word``, letter by letter."""
    return sum(e for g, e in word.syllables if g == name)


def relation_matrix(presentation):
    """Exponent-sum matrix, one row per relator, one column per generator."""
    sums = [r.exponent_sums() for r in presentation.relators]
    return [[s.get(g, 0) for g in presentation.generators] for s in sums]


def _cyclically_equal(u, v):
    if u.letter_length() != v.letter_length():
        return False
    letters = []
    for g, e in u.syllables:
        sign = 1 if e > 0 else -1
        letters.extend([(g, sign)] * abs(e))
    for k in range(len(letters) or 1):
        rotated = Word(letters[k:] + letters[:k])
        if rotated == v:
            return True
    return False


class TestAbelianize:
    def test_family_is_infinite_cyclic_all_weights_one(self):
        for m in range(1, 6):
            report = abelianize(rbg_family(m))
            assert report.invariant_factors == ()
            assert report.free_rank == 1
            assert report.weights == {"x": 1, "y": 1, "a": 1}

    def test_free_rank_one(self):
        report = abelianize(parse("< x | >"))
        assert report.free_rank == 1
        assert report.weights == {"x": 1}

    def test_torsion(self):
        report = abelianize(parse("< x | x^2 >"))
        assert report.invariant_factors == (2,)
        assert report.free_rank == 0
        assert report.weights is None

    def test_trefoil_weights(self):
        report = abelianize(parse("< a,b | a*b*a*b^-1*a^-1*b^-1 >"))
        assert report.is_infinite_cyclic
        assert report.weights == {"a": 1, "b": 1}

    def test_mixed_torsion_and_rank(self):
        # < x, y, z | x^2, y^6 > has H1 = Z/2 + Z/6 + Z
        report = abelianize(parse("< x,y,z | x^2, y^6 >"))
        assert report.invariant_factors == (2, 6)
        assert report.free_rank == 1
        assert report.weights is None  # torsion present

    def test_weight_sign_normalization(self):
        # the quotient map to Z is unique up to a global sign, and the
        # first generator with nonzero weight is normalized to be positive
        report = abelianize(parse("< x,y | x*y >"))
        assert report.free_rank == 1
        assert report.weights == {"x": 1, "y": -1}


def snf_abelianization(presentation):
    """Invariant factors, free rank and weights of the presentation from
    one Smith normal form of its whole relation matrix: the oracle of
    ``abelianize``, which pivots out the entries +-1 first."""
    gens = presentation.generators
    matrix = relation_matrix(presentation)
    d, u = smith_normal_form([[row[j] for row in matrix] for j in range(len(gens))])
    diag = [d[i][i] for i in range(min(len(gens), len(matrix)))]
    rank = sum(1 for x in diag if x)
    factors = tuple(x for x in diag if x > 1)
    weights = None
    if len(gens) - rank == 1 and not factors:
        row = u[rank]
        sign = 1 if next(w for w in row if w) > 0 else -1
        weights = {g: sign * w for g, w in zip(gens, row)}
    return factors, len(gens) - rank, weights


def check_against_snf(presentation):
    report = abelianize(presentation)
    assert (report.invariant_factors, report.free_rank, report.weights) == \
        snf_abelianization(presentation)


@st.composite
def planted_relation_matrices(draw):
    """A presentation whose relation matrix is r x g, r <= 5 and g <= 5,
    with entries +-1 planted at random places, each relator's syllables
    in a random order: pivots of every kind, chains of them, and remnants
    with torsion or free rank other than 1."""
    r = draw(st.integers(min_value=0, max_value=5))
    g = draw(st.integers(min_value=1, max_value=5))
    matrix = draw(st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                                    min_size=g, max_size=g), min_size=r, max_size=r))
    for _ in range(draw(st.integers(min_value=0, max_value=r + g)) if r else 0):
        matrix[draw(st.integers(0, r - 1))][draw(st.integers(0, g - 1))] = draw(
            st.sampled_from((-1, 1)))
    gens = [f"x{j}" for j in range(g)]
    relators = [Word(draw(st.permutations([(gens[j], e) for j, e in enumerate(row) if e])))
                for row in matrix]
    return Presentation(gens, relators)


@settings(max_examples=300, deadline=None)
@given(planted_relation_matrices())
def test_unit_pivots_match_the_smith_normal_form(presentation):
    check_against_snf(presentation)


@pytest.mark.parametrize("text", [
    "< x | x^6 >",
    "< x, y | x^2, y^3 >",
    "< x, y | >",
    "< x, y, z | x^2, y^6 >",
    "< x, y | x*y >",
    "< x, y, z | x*y^3*z^-2, y*z^7 >",
    "< x, y | x^3*y^-2 >",
    "< x, y | x^4*y^6, x^6*y^4 >",
])
def test_torsion_and_free_rank_match_the_smith_normal_form(text):
    check_against_snf(parse(text))


@pytest.mark.parametrize("seed", range(24))
def test_tietze_moved_presentations_match_the_smith_normal_form(seed):
    rng = random.Random(seed)
    base = (TREFOIL, marked_family(1), marked_family(2), wirtinger_torus(7))[seed % 4]
    check_against_snf(random_moves(rng, base, rng.randint(1, 6), MOVES).presentation)


@pytest.mark.parametrize("text", [
    # a step on x would make y's exponent +-2^63, so it is not taken; the
    # step on z is, and then the back-substituted weight of z is 2^63
    "< x, y, z | x*y^4611686018427387904, x*y^-4611686018427387904*z >",
    # every step would leave the range, so the SNF gets the whole matrix
    "< x, y | x*y^4611686018427387904, x*y^-4611686018427387904 >",
    "< x, y, z | x*y^4611686018427387904*z^3, x*y^-4611686018427387904*z^5 >",
    # an exponent sum past the range is refused as it is read
    "< x, y | x^9223372036854775808*y >",
])
def test_pivots_past_the_range_raise_as_the_snf_does(text):
    presentation = parse(text)
    with pytest.raises(CoefficientOverflowError):
        snf_abelianization(presentation)
    with pytest.raises(CoefficientOverflowError):
        abelianize(presentation)


def test_wirtinger_pivots_to_one_generator():
    # each Wirtinger relator x(i+1) x(i) x(i+1)^-1 x(i+2)^-1 has the
    # exponent sums +1 and -1, so n - 1 pivots leave one generator
    for n in (3, 41, 301):
        presentation = wirtinger_torus(n)
        assert abelianize(presentation).weights == dict.fromkeys(presentation.generators, 1)
    check_against_snf(wirtinger_torus(41))


def _matrix_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for i in range(n):
        minor = [row[:i] + row[i + 1 :] for row in m[1:]]
        total += (-1) ** i * m[0][i] * _det(minor)
    return total


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
)


def _gcd_of_minors(matrix, size):
    """The gcd of the size x size minors of ``matrix`` (0 when all vanish)."""
    rows, cols = range(len(matrix)), range(len(matrix[0]))
    return math.gcd(*(_det([[matrix[i][j] for j in cs] for i in rs])
                      for rs in combinations(rows, size) for cs in combinations(cols, size)))


@settings(max_examples=150)
@given(int_matrices)
def test_smith_normal_form_properties(matrix):
    d, u = smith_normal_form(matrix)
    rows, cols = len(matrix), len(matrix[0])
    # u unimodular
    assert abs(_det(u)) == 1
    # u @ matrix = d @ V^-1, so its row i is divisible by d_ii and zero
    # past the rank; with the determinantal divisors below, that makes
    # u @ matrix @ V = d for a unimodular V that the SNF does not build
    product = _matrix_mul(u, matrix)
    for i, row in enumerate(product):
        pivot = d[i][i] if i < cols else 0
        assert all(x % pivot == 0 if pivot else x == 0 for x in row)
    # the product of the first k diagonal entries is the gcd of the k x k
    # minors of the matrix
    expected = 1
    for k in range(1, min(rows, cols) + 1):
        expected *= d[k - 1][k - 1]
        assert _gcd_of_minors(matrix, k) == expected
    # d diagonal, nonnegative, successive divisibility
    diag = []
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
            else:
                diag.append(d[i][j])
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_presentation_rejects_foreign_generators():
    with pytest.raises(UnknownGeneratorError):
        Presentation(("x",), (Word((("y", 1),)),))
    with pytest.raises(UnknownGeneratorError):
        Presentation(("x",), (), {"mu": Word((("z", 1),))})


def test_presentation_rejects_identity_marker():
    with pytest.raises(InvalidParameterError):
        Presentation(("x",), (), {"mu": Word()})


def test_presentation_names_follow_the_grammar():
    with pytest.raises(InvalidParameterError):
        Presentation(("1x", "-y"))
    x = Word.generator("x")
    for name in ("a b", "", "2m", "m:"):
        with pytest.raises(InvalidParameterError):
            Presentation(("x",), (), {name: x})


# Names drawn from valid and invalid strings; the oracle below states the
# grammar's name token without the package's code.
NAME_POOL = ("x", "y1", "g-2", "h'", "é", "²b", "meridian",
             "1x", "-y", "a b", "x^", "", "٣q", "t\u2003", "p)")
name_draws = st.one_of(st.sampled_from(NAME_POOL), st.text(max_size=3))


def _is_name_token(name):
    return (name != "" and not name[0].isdecimal() and name[0] != "-"
            and not any(ch.isspace() or ch in "^*(),|<>:" for ch in name))


@settings(max_examples=200)
@given(st.lists(name_draws, min_size=1, max_size=5, unique=True),
       st.lists(name_draws, max_size=3, unique=True),
       st.lists(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                   st.integers(min_value=-3, max_value=3)),
                         max_size=6), max_size=3))
def test_every_accepted_presentation_round_trips(gens, marker_names, raw_relators):
    valid = [g for g in gens if _is_name_token(g)] or ["x"]
    words = [Word([(valid[i % len(valid)], e) for i, e in raw]) for raw in raw_relators]
    markers = {name: Word.generator(valid[0]) for name in marker_names}
    ok = (all(_is_name_token(g) and g != "meridian" for g in gens)
          and all(_is_name_token(name) for name in marker_names))
    try:
        pres = Presentation(gens, words, markers)
    except InvalidParameterError:
        assert not ok
        return
    assert ok
    assert parse(pres.render()) == pres


def test_many_generators_parse_in_linear_time():
    n = 40000
    text = "< " + ", ".join(f"g{i}" for i in range(n)) + " | g0*g1^-1 >\n"
    started = time.perf_counter()
    pres = parse(text)
    assert time.perf_counter() - started < 2.0
    assert len(pres.generators) == n


def test_random_render_parse_round_trip():
    rng = random.Random(7)
    gens = ("x", "y", "z")
    for _ in range(25):
        relators = [
            Word(
                [
                    (rng.choice(gens), rng.choice((-3, -2, -1, 1, 2, 3)))
                    for _ in range(rng.randint(1, 6))
                ]
            )
            for _ in range(rng.randint(0, 3))
        ]
        markers = {}
        if rng.random() < 0.5:
            markers["mu"] = Word([(rng.choice(gens), rng.choice((-1, 1)))])
        pres = Presentation(gens, relators, markers)
        assert parse(pres.render()) == pres


# -- the parser against oracles that share no code with it ---------------------
#
# A word is built as a small syntax tree: ("gen", name, exp) or
# ("group", [factors], exp), exp None meaning no '^'.  The expected word
# comes from expanding the tree letter by letter and reducing with a stack,
# and from Word operations; the text is the tree rendered with random
# whitespace and redundant parentheses.

NAMES = ("x", "y1", "g-2", "h'", "é", "²b")
exps = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
factors = st.recursive(
    st.tuples(st.just("gen"), st.sampled_from(NAMES), exps),
    lambda inner: st.tuples(st.just("group"), st.lists(inner, min_size=1, max_size=3), exps),
    max_leaves=10,
)
word_trees = st.lists(factors, min_size=1, max_size=4)
GAPS = ("", "", " ", "\n", "\t", " \n  ")
rngs = st.integers(min_value=0, max_value=2**32).map(random.Random)


def _letters(factor):
    kind, body, e = factor
    e = 1 if e is None else e
    if kind == "gen":
        return [(body, 1 if e > 0 else -1)] * abs(e)
    inner = [letter for f in body for letter in _letters(f)]
    if e < 0:
        inner = [(g, -s) for g, s in reversed(inner)]
    return inner * abs(e)


def _free_reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    syllables = []
    for g, s in stack:
        if syllables and syllables[-1][0] == g:
            syllables[-1][1] += s
        else:
            syllables.append([g, s])
    return tuple((g, e) for g, e in syllables)


def _word_of(factor):
    kind, body, e = factor
    e = 1 if e is None else e
    if kind == "gen":
        return Word.generator(body, e)
    product = Word.identity()
    for f in body:
        product = product * _word_of(f)
    return product**e


def _tokens(factor, rng):
    """The factor as tokens, possibly wrapped in redundant parentheses."""
    kind, body, e = factor
    if kind == "gen":
        toks = [body]
    else:
        toks = ["("] + _word_tokens(body, rng) + [")"]
    if e is not None:
        toks += ["^", str(e)]
    if rng.random() < 0.2:
        toks = ["("] + toks + [")"]
    return toks


def _word_tokens(tree, rng):
    toks = []
    for i, f in enumerate(tree):
        toks += (["*"] if i else []) + _tokens(f, rng)
    return toks


def _join(tokens, rng):
    """Text of the tokens with random gaps, and the offset of each token;
    the keyword 'meridian' keeps whitespace on both sides."""
    text, offsets = "", []
    for i, tok in enumerate(tokens):
        gap = rng.choice(GAPS)
        if i and not gap and "meridian" in (tok, tokens[i - 1]):
            gap = " "
        text += gap
        offsets.append(len(text))
        text += tok
    return text + rng.choice(GAPS), offsets


def _line_column(text, offset):
    before = text[:offset]
    return before.count("\n") + 1, len(before) - before.rfind("\n")


@settings(max_examples=200)
@given(word_trees, rngs)
def test_parse_word_matches_letter_expansion(tree, rng):
    text, _ = _join(_word_tokens(tree, rng), rng)
    expected = _free_reduce([letter for f in tree for letter in _letters(f)])
    parsed = parse_word(text, NAMES)
    assert parsed.syllables == expected
    product = Word.identity()
    for f in tree:
        product = product * _word_of(f)
    assert parsed == product


syllable_lists = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(min_value=-3, max_value=3)), max_size=8
)


@given(st.lists(syllable_lists, max_size=4), st.lists(syllable_lists, max_size=3))
def test_render_parse_round_trip(relators, markers):
    words = [Word(raw) for raw in markers]
    pres = Presentation(
        NAMES, [Word(raw) for raw in relators],
        {f"m{i}": w for i, w in enumerate(words) if w},
    )
    assert parse(pres.render()) == pres


@given(st.integers(min_value=1, max_value=len(NAMES)),
       st.lists(syllable_lists, max_size=5))
def test_relation_matrix_is_exponent_sums(rank, relators):
    # a presentation on the first ``rank`` names; the others fold onto them
    gens = NAMES[:rank]
    fold = {g: gens[i % rank] for i, g in enumerate(NAMES)}
    pres = Presentation(gens, [Word([(fold[g], e) for g, e in raw]) for raw in relators])
    assert relation_matrix(pres) == [
        [exponent_sum(r, g) for g in gens] for r in pres.relators
    ]


def _presentation_tokens(relators, markers, rng):
    toks = ["<"] + [t for n in NAMES for t in (",", n)][1:] + ["|"]
    for i, tree in enumerate(relators):
        toks += ([","] if i else []) + _word_tokens(tree, rng)
    toks.append(">")
    for i, tree in enumerate(markers):
        toks += ["meridian", f"mu{i}", ":"] + _word_tokens(tree, rng)
    return toks


def _nonidentity(tree):
    return bool(_free_reduce([letter for f in tree for letter in _letters(f)]))


def _inject(toks, start, fault, rng):
    """Corrupt ``toks`` in place by ``fault``; the index of the bad token."""
    if fault == "undeclared":
        spots = [i for i in range(start, len(toks)) if toks[i] in NAMES]
        at = rng.choice(spots)
        toks[at] = "zz"
    elif fault == "stray":
        at = rng.randint(0, len(toks))
        toks.insert(at, "-")
    elif fault == "exponent":
        spots = [i for i in range(len(toks)) if toks[i - 1] == "^"]
        assume(spots)
        at = rng.choice(spots)
        toks[at] = "²"
    else:  # "drop"
        at = rng.randrange(len(toks))
        del toks[at]
    return at


@settings(max_examples=100)
@given(st.lists(word_trees, min_size=1, max_size=3),
       st.lists(word_trees.filter(_nonidentity), max_size=2),
       st.sampled_from(("undeclared", "stray", "exponent")),
       rngs)
def test_injected_error_position(relators, markers, fault, rng):
    toks = _presentation_tokens(relators, markers, rng)
    text, _ = _join(toks, rng)
    assert parse(text).generators == NAMES  # the clean text parses
    at = _inject(toks, toks.index("|") + 1, fault, rng)
    text, offsets = _join(toks, rng)
    if fault == "stray":
        # a gap keeps the '-' from joining a name or an integer
        text = text[:offsets[at]] + " - " + text[offsets[at] + 1:]
        offsets[at] += 1
    line, column = _line_column(text, offsets[at])
    if fault == "undeclared":
        with pytest.raises(UnknownGeneratorError,
                           match=rf"'zz' \(line {line}, column {column}\)$"):
            parse(text)
        return
    with pytest.raises(PresentationSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(
        "stray '-'" if fault == "stray" else "expected an integer exponent, found '²'"
    )


# -- the piece reader against the token parser ----------------------------------
#
# parse reads texts without parentheses as '*'-separated pieces and hands
# every text it does not take whole to the token parser _Parser; these tests
# hold the two to the same presentations, and to the same errors at the same
# places.


def _token_parse(text):
    return presentations._Parser(text).parse_presentation()


def _outcome(read, *args):
    """What ``read(*args)`` gives: the value, its markers in order, or
    the class, message and position of the error it raises."""
    try:
        value = read(*args)
    except KnotGroupsError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    return value, list(getattr(value, "markers", {}).items())


gen_trees = st.lists(st.tuples(st.just("gen"), st.sampled_from(NAMES), exps),
                     min_size=1, max_size=6)


def _relators_and_markers(trees):
    return st.tuples(st.lists(trees, min_size=1, max_size=3),
                     st.lists(trees.filter(_nonidentity), max_size=2))


@settings(max_examples=300)
@given(st.one_of(_relators_and_markers(gen_trees), _relators_and_markers(word_trees)),
       st.sampled_from((None, "undeclared", "stray", "exponent", "drop")),
       rngs)
def test_piece_reader_matches_token_parser(trees, fault, rng):
    relators, markers = trees
    toks = _presentation_tokens(relators, markers, rng)
    if all(f[0] == "gen" for tree in relators + markers for f in tree):
        # no groups: drop the redundant parentheses, so the piece reader reads it
        toks = [t for t in toks if t not in ("(", ")")]
    if fault:
        _inject(toks, toks.index("|") + 1, fault, rng)
    text, _ = _join(toks, rng)
    assert _outcome(parse, text) == _outcome(_token_parse, text)


DIGITS = "9" * 5000


@pytest.mark.parametrize("text", [
    "< x, y | x**y >", "< x, y | x*y* >", "< x, y | () >", "< x, y | (x*y >",
    "< x | x^1_0 >", "< x | x^\u0663 >", f"< x, y | x^{DIGITS}*y >",
    "< x | x^- 1 >", "< x, y | (x, y)^2 >", "< x | x^2 >meridian m:x",
    "< x | (x)meridian >", "< x, y | >\nmeridian m: x meridian n: y\n",
    "< x, y | >\nmeridian m: (x)meridian n: y^2", "< x | x >\nmeridian m: x\nmeridian m: x",
    "< x, meridian | x >", "< x, x | x*y >",
    # long words whose runs merge: a block whose ends share a generator,
    # a run followed by its inverse, x^0 inside a block, and blocks that
    # reduce to one syllable or none
    "< x, y | " + "x*y*x^2*" * 60 + "y >",
    "< x, y | " + "x*y^-1*" * 60 + "y*x^-1*" * 59 + "y >",
    "< x, y | " + "x*y^0*" * 80 + "y >",
    "< x, y | " + "x*x^-1*" * 80 + "y*x*y*x*" * 30 + "y >",
])
def test_piece_reader_pinned_texts(text):
    assert _outcome(parse, text) == _outcome(_token_parse, text)


def test_piece_reader_pinned_outcomes():
    assert parse("< x | x^\u0663 >").relators == (Word.generator("x", 3),)
    with pytest.raises(PresentationSyntaxError, match="found '_0'"):
        parse("< x | x^1_0 >")
    with pytest.raises(PresentationSyntaxError, match="exponent of more than"):
        parse(f"< x, y | x^{DIGITS}*y >")
    assert list(parse("< x | x^2 >meridian m:x").markers) == ["m"]
    assert list(parse("< x, y | >\nmeridian m: (x)meridian n: y^2").markers) == ["m", "n"]


def test_piece_reader_needs_no_token_parser(monkeypatch):
    texts = [rbg_family(m).render() for m in (1, 2, 181)] + [
        wirtinger_torus(7).render(),
        "< x, a | a^2 >  meridian mu: x^-1*a*x\r\n\nmeridian nu: a * x ^ 2\n",
    ]
    expected = [_token_parse(text) for text in texts]

    def refuse(text):
        raise AssertionError(f"the token parser read {text!r}")

    monkeypatch.setattr(presentations, "_Parser", refuse)
    for text, pres in zip(texts, expected):
        assert _outcome(parse, text) == _outcome(lambda: pres)


# -- runs: repeated blocks read once ----------------------------------------------
#
# The piece reader reads a block of pieces written out several times in a
# row once, and the word keeps the runs (block, k) it was written with.
# These texts repeat blocks of 1 to 8 pieces 2 to 300 times, with spaces,
# x^1 and x^0 spellings, blocks whose ends share a generator, runs followed
# by their inverse, runs in marker lines and faults inside runs.


def expand_runs(word):
    return tuple(s for block, k in word.runs for _ in range(k) for s in block)


def assert_runs(word):
    """The runs of every word: nonempty reduced blocks, each k >= 1, that
    expand exactly to its syllables."""
    assert expand_runs(word) == word.syllables
    for block, k in word.runs:
        assert block and reduce_syllables(block) == block and k >= 1


def _piece_text(piece):
    name, exp, gap = piece
    body = name if exp is None else f"{name}{gap}^{gap}{exp}"
    return f"{gap}{body}{gap}"


def _inverse_block(block):
    return [(name, -(1 if exp is None else exp), gap) for name, exp, gap in reversed(block)]


run_pieces = st.tuples(st.sampled_from(NAMES),
                       st.sampled_from((None, None, None, 1, -1, 0, 2, -3)),
                       st.sampled_from(("", "", " ")))
# half the blocks have distinct generators, so that they can stay whole
distinct_blocks = st.builds(
    lambda names, pieces: [(name, exp, gap) for name, (_, exp, gap) in zip(names, pieces)],
    st.permutations(NAMES), st.lists(run_pieces, min_size=2, max_size=6))
# (kind, block, k): a "run" writes the block k times, a "wrap" too with the
# block's first generator again at its end, a "gap" once, and an "inverse"
# the last block's inverse k times
run_segments = st.tuples(st.sampled_from(("run",) * 4 + ("wrap", "gap", "gap", "inverse")),
                         st.one_of(st.lists(run_pieces, min_size=1, max_size=8), distinct_blocks),
                         st.integers(2, 300))
run_words = st.lists(run_segments, min_size=1, max_size=4)


def run_word_text(segments, fault=None, rng=None):
    """The text of a word of ``run_segments``; ``fault`` ("undeclared" or
    "exponent") spoils one piece of one block, in every copy of it."""
    blocks, last = [], [("x", None, "")]
    for kind, block, k in segments:
        if kind == "wrap":
            block = block + [(block[0][0], None, "")]
        elif kind == "inverse":
            block = _inverse_block(last)
        blocks.append([list(map(_piece_text, block)), 1 if kind == "gap" else k])
        last = block
    if fault:
        pieces = rng.choice(blocks)[0]
        at = rng.randrange(len(pieces))
        pieces[at] = "zz" if fault == "undeclared" else pieces[at].split("^")[0] + "^²"
    return "*".join("*".join(pieces * k) for pieces, k in blocks)


@settings(max_examples=150, deadline=None)
@given(st.lists(run_words, min_size=1, max_size=2), st.lists(run_words, max_size=2),
       st.sampled_from((None, None, "undeclared", "exponent")), rngs)
def test_piece_reader_reads_runs(relators, markers, fault, rng):
    spoiled = rng.randrange(len(relators) + len(markers)) if fault else None
    texts = [rng.choice(("", " ", "  ")) + run_word_text(w, fault if i == spoiled else None, rng)
             + rng.choice(("", " ", "  ")) for i, w in enumerate(relators + markers)]
    text = (f"< {', '.join(NAMES)} | {', '.join(texts[:len(relators)])} >\n"
            + "".join(f"meridian mu{i}: {w}\n" for i, w in enumerate(texts[len(relators):])))
    expected = _outcome(_token_parse, text)
    assert _outcome(parse, text) == expected
    if fault:
        assert isinstance(expected[0], type)  # the spoiled text is refused
        return
    try:
        read = (parse(text), _token_parse(text))
    except KnotGroupsError:
        return  # a marker that reduces to the identity
    for pres in read:
        for word in pres.relators + tuple(pres.markers.values()):
            assert_runs(word)


def test_long_words_carry_runs():
    # the family's long relator is read as (y x)^m y (x^-1 y^-1)^m x^-1, as
    # it is built, the short one as one run of k = 1
    for m in (2, 28, 29, 181):
        long, short = parse(rbg_family(m).render()).relators
        assert list(long.runs) == [
            ((("y", 1), ("x", 1)), m), ((("y", 1),), 1),
            ((("x", -1), ("y", -1)), m), ((("x", -1),), 1)]
        assert long._runs is not None  # read, not found again
        assert long.runs == rbg_family(m).relators[0].runs
        assert expand_runs(long) == long.syllables == rbg_family(m).relators[0].syllables
        assert short.runs == ((short.syllables, 1),)
    # equality and hashing read the syllables alone; a word operation
    # returns a word whose runs are found from its syllables
    long = parse(rbg_family(181).render()).relators[0]
    plain = Word._trusted(long.syllables, ((long.syllables, 1),))
    assert long == plain and hash(long) == hash(plain)
    assert (long * Word.identity()).runs == (long ** 1).runs == long.runs
    assert Word.identity().runs == ()


def test_merged_runs_are_found_from_the_syllables():
    # x written 50 times is a block of two pieces that reduces to x^2, whose
    # ends share a generator, so the reader reduces the word whole and its
    # runs are found from its syllables
    word = parse("< x, y | " + "x*" * 50 + "y*x*" * 100 + "y >").relators[0]
    assert word._runs is None
    assert list(word.runs) == [((("x", 50),), 1), ((("y", 1), ("x", 1)), 100),
                               ((("y", 1),), 1)]
    assert_runs(word)


class TestPowers:
    def test_power_of_conjugate_stays_short(self):
        word = parse_word("(x*y*x^-1)^1000000000", ("x", "y"))
        assert str(word) == "x*y^1000000000*x^-1"

    def test_huge_power_refused_before_building(self):
        started = time.perf_counter()
        with pytest.raises(WordTooLargeError):
            parse("< x, y | (y*x)^1000000000 >")
        assert time.perf_counter() - started < 1.0

    def test_family_powers_under_the_same_cap(self, monkeypatch):
        # (yx)^m and (yx)^-m build 4m syllables
        with pytest.raises(WordTooLargeError):
            rbg_family(250_001)
        monkeypatch.setattr(presentations, "MAX_WORD_SYLLABLES", 40)
        assert rbg_family(10) == parse(
            "< x, y, a | (y*x)^10*y*(y*x)^-10*x^-1, x^-1*a*x*a^-1*x^-1*y*a*y^-1 >\n"
            "meridian meridian_B: x\nmeridian meridian_G: a\n")
        with pytest.raises(WordTooLargeError):
            rbg_family(11)

    def test_cap_counts_every_power_of_the_text(self, monkeypatch):
        monkeypatch.setattr(presentations, "MAX_WORD_SYLLABLES", 120)
        assert len(parse("< x, y | (x*y)^30, (y*x)^30 >").relators) == 2  # 120
        with pytest.raises(WordTooLargeError):
            parse("< x, y | (x*y)^30, (y*x)^30 >\nmeridian m: (x*y)^-2\n")
        with pytest.raises(WordTooLargeError):
            parse("< x, y | ((x*y)^20)^3 >")  # 40 + 120 built
        # plain products and single powers of one syllable build nothing
        assert parse("< x, y | " + "x*y*" * 100 + "x^1000000000 >").relators

    def test_huge_exponents_still_reach_the_derivative_guard(self):
        pres = parse("< x, y | x^100000000*y*x^-100000001 >")
        with pytest.raises(DerivativeTooLargeError):
            alexander_matrix(pres)

    def test_deep_nesting(self):
        depth = 4999  # deeper than the recursion limit
        word = parse_word("(" * depth + "x*y" + ")^-1" * depth, ("x", "y"))
        assert word == parse_word("y^-1*x^-1", ("x", "y"))


class TestSupportCheckedOnce:
    """The readers match every name in a word against the declared
    generators, so their presentations skip ``_check_support``; an
    undeclared generator still raises, with the same class and message,
    through the public constructor and through both readers."""

    def test_public_constructor(self):
        y = Word.generator("y")
        with pytest.raises(UnknownGeneratorError,
                           match=r"^relator uses undeclared generator 'y'$"):
            Presentation(("x",), [y])
        with pytest.raises(UnknownGeneratorError,
                           match=r"^marker 'm' uses undeclared generator 'y'$"):
            Presentation(("x",), [], {"m": y})

    def test_first_undeclared_generator_under_every_hash_seed(self):
        # named in syllable order, not in the order of a hash-seeded set
        child = (
            "from knotgroups.presentations import Presentation\n"
            "from knotgroups.words import Word\n"
            "try:\n"
            "    Presentation(('x',), [Word([('y', 1), ('z', 1), ('w', 1), ('v', 1)])])\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
        )
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            out = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                 text=True, env=env, timeout=60).stdout
            assert out == "relator uses undeclared generator 'y'\n", seed

    @pytest.mark.parametrize("text,column", [
        ("< x | x*y >", 9), ("< x | (x*y)^2 >", 10),
    ])
    def test_relator_through_both_readers(self, text, column):
        message = rf"^undeclared generator 'y' \(line 1, column {column}\)$"
        with pytest.raises(UnknownGeneratorError, match=message):
            parse(text)
        with pytest.raises(UnknownGeneratorError, match=message):
            _token_parse(text)
        if "(" not in text:
            with pytest.raises(presentations._Unread):
                presentations._read_pieces(text)

    @pytest.mark.parametrize("text", [
        "< x | x >\nmeridian m: y\n", "< x | x >\nmeridian m: (y)\n",
    ])
    def test_marker_through_both_readers(self, text):
        message = r"^undeclared generator 'y' \(line 2, column \d+\)$"
        with pytest.raises(UnknownGeneratorError, match=message):
            parse(text)
        with pytest.raises(UnknownGeneratorError, match=message):
            _token_parse(text)

    def test_readers_skip_the_check(self, monkeypatch):
        monkeypatch.setattr(Presentation, "_check_support",
                            lambda *args: pytest.fail("support checked again"))
        for text in ("< x, y | x*y^2 >\nmeridian m: y\n", "< x, y | (x*y)^2 >\nmeridian m: y\n"):
            assert parse(text).relators
