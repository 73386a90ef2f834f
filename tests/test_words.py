"""Free-group word arithmetic: normal form, operators, evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from knotgroups.errors import InvalidParameterError, MissingImageError
from knotgroups.permgroups import Permutation, symmetric_group, alternating_group
from knotgroups.words import Word, power_length, power_syllables, reduce_syllables

S3 = symmetric_group(3)
S4 = symmetric_group(4)
A5 = alternating_group(5)


def w(*syllables):
    return Word(syllables)


def exponent_sum(word, name):
    """Total signed exponent of ``name`` in ``word``, letter by letter."""
    return sum(e for g, e in word.syllables if g == name)


class TestReduction:
    def test_cancellation(self):
        assert w(("x", 1), ("x", -1)) == Word.identity()

    def test_already_reduced(self):
        word = w(("x", -1), ("y", 1), ("x", 1))
        assert word.syllables == (("x", -1), ("y", 1), ("x", 1))

    def test_inner_cancellation_then_merge(self):
        assert w(("y", 1), ("x", 1), ("x", -1), ("y", 1)) == w(("y", 2))

    def test_cascading_cancellation(self):
        word = w(("x", 1), ("y", 1), ("y", -1), ("x", -1), ("a", 1))
        assert word == w(("a", 1))

    def test_syllables_given_as_lists_become_tuples(self):
        word = Word([["x", 1], ["y", 2]])
        assert word.syllables == (("x", 1), ("y", 2))
        assert hash(word) == hash(w(("x", 1), ("y", 2)))

    def test_zero_exponent_dropped(self):
        assert w(("x", 0)) == Word.identity()
        assert w(("x", 1), ("y", 0), ("x", 2)) == w(("x", 3))

    def test_bad_generator_name(self):
        with pytest.raises(InvalidParameterError):
            Word((("a b", 1),))
        with pytest.raises(InvalidParameterError):
            Word((("x^", 1),))
        with pytest.raises(InvalidParameterError):
            Word((("", 1),))
        # names that would scan as integers or a stray '-'
        for name in ("1x", "-y", "\u0663"):
            with pytest.raises(InvalidParameterError):
                Word(((name, 1),))
            with pytest.raises(InvalidParameterError):
                Word.generator(name)

    def test_generators_computed_once(self):
        # built by the constructor and by an operator (the trusted path)
        for word in (w(("x", 2), ("y", -1), ("x", 1)), w(("y", 1)) * w(("a", 3))):
            assert word.generators() == {g for g, _ in word.syllables}
            assert word.generators() is word.generators()
        assert Word.identity().generators() == frozenset()


class TestOperators:
    def test_power_inverse(self):
        yx = w(("y", 1), ("x", 1))
        assert yx**-1 == w(("x", -1), ("y", -1))
        assert yx**-1 == ~yx

    def test_multiply(self):
        assert w(("x", -1)) * w(("y", 1), ("x", 1)) == w(("x", -1), ("y", 1), ("x", 1))

    def test_conjugate_matches_convention(self):
        # the conjugate of u by g is g u g^-1
        a = w(("a", 1))
        x_inv = w(("x", -1))
        assert x_inv * a * ~x_inv == w(("x", -1), ("a", 1), ("x", 1))

    def test_power_zero_and_one(self):
        u = w(("x", 1), ("y", -2))
        assert u**0 == Word.identity()
        assert u**1 == u
        assert u**3 == u * u * u

    def test_double_inverse(self):
        u = w(("x", 2), ("y", -1), ("a", 3))
        assert ~~u == u

    def test_exponent_sums(self):
        u = w(("x", 2), ("y", -1), ("x", -3))
        assert exponent_sum(u, "x") == -1
        assert exponent_sum(u, "y") == -1
        assert exponent_sum(u, "a") == 0
        assert u.exponent_sums() == {"x": -1, "y": -1}

    def test_exponent_sums_of_a_repeated_syllable(self):
        # x^2 occurs twice, not side by side, and y^3 cancels against y^-3
        u = w(("x", 2), ("y", 3), ("x", 2), ("y", -3), ("x", 2))
        assert u.syllable_counts() == ((("x", 2), 3), (("y", 3), 1), (("y", -3), 1))
        assert u.exponent_sums() == {"x": 6}
        assert u.exponent_sums() == {g: exponent_sum(u, g) for g in "xy" if exponent_sum(u, g)}
        assert Word.identity().exponent_sums() == {}

    def test_letter_length(self):
        assert w(("x", 2), ("y", -3)).letter_length() == 5
        assert Word.identity().letter_length() == 0

    def test_str(self):
        assert str(w(("x", -1), ("a", 1), ("x", 1))) == "x^-1*a*x"
        assert str(Word.identity()) == "1"


class TestEvaluate:
    def test_identity_word(self):
        assert Word.identity().evaluate({}, S3) == S3.identity

    def test_conjugated_transposition(self):
        # x y x^-1 with x -> (1,2), y -> (1,3) gives (2,3); the result is
        # independent of the composition convention, checked against a
        # brute-force table below.
        word = w(("x", 1), ("y", 1), ("x", -1))
        images = {
            "x": Permutation.from_cycles([(1, 2)], 3),
            "y": Permutation.from_cycles([(1, 3)], 3),
        }
        expected = Permutation.from_cycles([(2, 3)], 3)
        assert word.evaluate(images, S3) == expected
        # brute-force oracle: the unique element equal under both orders
        px, py = images["x"], images["y"]
        both = {px * py * ~px, ~px * py * px}
        assert both == {expected}

    def test_power_of_five_cycle(self):
        # element of order 5, so the 60th power is the identity
        word = w(("x", 60))
        sigma = Permutation.from_cycles([(1, 5, 4, 3, 2)], 5)
        assert sigma.order() == 5
        assert word.evaluate({"x": sigma}, A5) == A5.identity

    def test_missing_image(self):
        with pytest.raises(MissingImageError):
            w(("x", 1), ("y", 1)).evaluate({"x": S3.identity}, S3)


# hypothesis strategies -------------------------------------------------------

gen_names = st.sampled_from(("x", "y", "a"))
syllables = st.tuples(gen_names, st.integers(min_value=-4, max_value=4))
raw_lists = st.lists(syllables, max_size=12)
words = raw_lists.map(Word)


@given(raw_lists)
def test_reduce_idempotent(raw):
    once = reduce_syllables(raw)
    assert reduce_syllables(once) == once


def reference_reduce(raw):
    """The stack pass: merge a syllable into the one below it on the
    stack, popping both when they cancel."""
    stack = []
    for name, exp in raw:
        if stack and stack[-1][0] == name:
            exp += stack.pop()[1]
        if exp:
            stack.append((name, exp))
    return tuple(stack)


@st.composite
def raw_with_cancellations(draw):
    """Raw lists on two names with zero exponents and adjacent repeats, and
    often a word and its inverse spelled letter by letter in the middle,
    which cancel in a cascade."""
    letters = st.tuples(st.sampled_from(("x", "y")), st.integers(min_value=-2, max_value=2))
    raw = draw(st.lists(letters, max_size=10))
    if draw(st.booleans()):
        inner = draw(st.lists(letters, max_size=6))
        cut = draw(st.integers(min_value=0, max_value=len(raw)))
        raw = raw[:cut] + inner + [(g, -e) for g, e in reversed(inner)] + raw[cut:]
    return raw


@settings(max_examples=300)
@given(st.one_of(raw_lists, raw_with_cancellations(), raw_lists.map(reference_reduce)))
def test_reduce_matches_stack_pass(raw):
    expected = reference_reduce(raw)
    assert reduce_syllables(raw) == expected
    assert reduce_syllables(tuple(raw)) == expected
    assert reduce_syllables(iter(raw)) == expected
    if tuple(raw) == expected:
        # reduced already: the input tuple itself comes back
        reduced = tuple(raw)
        assert reduce_syllables(reduced) is reduced


def test_reduce_cascade_and_zero_exponents():
    assert reduce_syllables([("x", 1), ("y", 2), ("x", 0), ("y", -2), ("x", -1)]) == ()
    assert reduce_syllables([("x", 0)]) == ()
    assert reduce_syllables([("x", 1), ("x", 1)]) == (("x", 2),)
    # a zero exponent alone, or a repeat alone, is enough to reduce
    assert reduce_syllables((("x", 1), ("y", 0), ("z", 1))) == (("x", 1), ("z", 1))
    assert reduce_syllables((("x", 1), ("y", 1), ("y", 1))) == (("x", 1), ("y", 2))


@given(raw_lists)
def test_reduced_invariants(raw):
    word = Word(raw)
    for (g1, e1), (g2, e2) in zip(word.syllables, word.syllables[1:]):
        assert g1 != g2
    assert all(e != 0 for _, e in word.syllables)


@given(words, words, words)
def test_multiplication_associative(u, v, z):
    assert (u * v) * z == u * (v * z)


@given(words)
def test_inverse_cancels(u):
    assert u * ~u == Word.identity()
    assert ~u * u == Word.identity()


@given(words, st.integers(min_value=-6, max_value=6))
def test_power_definition(u, k):
    expected = Word.identity()
    step = u if k >= 0 else ~u
    for _ in range(abs(k)):
        expected = expected * step
    assert u**k == expected


@settings(max_examples=60)
@given(words, words, st.data())
def test_evaluate_is_multiplicative(u, v, data):
    # evaluating a product equals multiplying the evaluations, for any
    # fixed images of the generators in S4
    images = {
        g: data.draw(st.sampled_from(S4.elements), label=f"image of {g}")
        for g in ("x", "y", "a")
    }
    lhs = (u * v).evaluate(images, S4)
    rhs = u.evaluate(images, S4) * v.evaluate(images, S4)
    assert lhs == rhs


# -- powers built from the cyclic reduction ------------------------------------

conjugated_words = st.tuples(words, words).map(lambda uc: uc[0] * uc[1] * ~uc[0])


@given(st.one_of(words, conjugated_words), st.integers(min_value=-6, max_value=6))
def test_power_against_repeated_reduction(u, k):
    # oracle: the public constructor reducing k copies of the letters
    step = u.syllables if k >= 0 else tuple((g, -e) for g, e in reversed(u.syllables))
    expected = Word(step * abs(k))
    assert power_syllables(u.syllables, k) == expected.syllables
    assert power_length(u.syllables, k) == len(expected.syllables)
    assert u**k == expected
    for result in (u**k, u * expected, ~expected):
        assert result == Word(result.syllables)  # operators keep normal form


def test_power_length_without_building():
    conj = (("x", 2), ("y", 1), ("x", -3))  # x^2 y x^-3: ends merge to x^-1
    assert power_length(conj, 10**12) == 2 * 10**12 + 1
    assert power_length((("x", 1), ("y", 1), ("x", -1)), -10**12) == 3
    assert power_syllables((("x", 1), ("y", 1), ("x", -1)), 10**9) == (
        ("x", 1), ("y", 10**9), ("x", -1))

