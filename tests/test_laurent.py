"""Exact Laurent arithmetic, unit normalization, gcd, text form."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from knotgroups.errors import (
    CoefficientOverflowError,
    GcdTooLargeError,
    InvalidParameterError,
    ZeroPolynomialError,
)
from knotgroups import laurent
from knotgroups.laurent import (
    MAX_GCD_DEGREE,
    LaurentPoly,
    format_laurent,
    gcd,
    parse_laurent,
)


def lp(coeffs):
    return LaurentPoly(coeffs)


class TestArithmetic:
    def test_t_inverse_times_t(self):
        assert lp({-1: 1}) * lp({1: 1}) == LaurentPoly.one()

    def test_difference_of_squares(self):
        one_minus_t = lp({0: 1, 1: -1})
        one_plus_t = lp({0: 1, 1: 1})
        assert one_minus_t * one_plus_t == lp({0: 1, 2: -1})

    def test_alternating_sum_minus_leading_term(self):
        # (t^-2 - t^-1 + 1) + (-t^-2) = -t^-1 + 1, term by term
        alternating = lp({k - 2: (-1) ** k for k in range(3)})
        assert alternating + lp({-2: -1}) == lp({-1: -1, 0: 1})

    def test_int_coercion(self):
        p = lp({1: 1})
        assert p - 1 == lp({0: -1, 1: 1})
        assert 1 - p == lp({0: 1, 1: -1})
        assert 3 * p == lp({1: 3})

    def test_constants_hash_as_their_ints(self):
        # a constant equals its int, so the two must be one dict key
        for value in (0, 1, -7, 2**62):
            assert lp({0: value}) == value and hash(lp({0: value})) == hash(value)
        assert {1: "v"}.get(LaurentPoly.one()) == "v"
        assert {LaurentPoly.zero(): "v"}.get(0) == "v"
        assert hash(lp({1: 1})) == hash(lp({1: 1}).terms())

    def test_zero_behaviour(self):
        zero = LaurentPoly.zero()
        assert zero.is_zero
        assert zero + zero == zero
        assert zero * lp({5: 7}) == zero
        assert LaurentPoly([(0, 1), (0, -1)]) == zero

    def test_overflow_raises(self):
        big = lp({0: 2**62})
        with pytest.raises(CoefficientOverflowError):
            big * big
        with pytest.raises(CoefficientOverflowError):
            lp({0: 2**63})
        # the range ends at +-(2**63 - 1), checked at both ends, in the
        # constructor and in the ring operations
        for c in (2**63 - 1, -(2**63 - 1)):
            assert lp({0: c, 1: -c}).terms() == ((0, c), (1, -c))
            assert (lp({0: c}) + lp({1: -c})).terms() == ((0, c), (1, -c))
        for c in (2**63, -(2**63)):
            other = -1 if c > 0 else 1  # beside it, one of the other sign
            with pytest.raises(CoefficientOverflowError):
                lp({0: c, 1: other})
            with pytest.raises(CoefficientOverflowError):
                lp({0: c // 2, 1: other}) + lp({0: c // 2})

    def test_products_whose_terms_cancel(self):
        # (1 + t + t^2)(1 - t) = 1 - t^3: the t and t^2 terms cancel
        assert lp({0: 1, 1: 1, 2: 1}) * lp({0: 1, 1: -1}) == lp({0: 1, 3: -1})
        assert lp({0: 1, 1: -1}) * lp({0: 1, 1: 1, 2: 1}) == lp({0: 1, 3: -1})
        assert (lp({0: 1, 1: 1}) * lp({0: 1, 1: -1})).terms() == ((0, 1), (2, -1))

    def test_overflow_raises_from_sums(self):
        half = lp({1: 2**62})
        with pytest.raises(CoefficientOverflowError):
            half + half
        with pytest.raises(CoefficientOverflowError):
            half - (-half)


class TestNormalize:
    def test_alternating_normalizes_to_ascending(self):
        p = lp({-2: 1, -1: -1, 0: 1})  # t^-2 - t^-1 + 1
        assert p.normalize_up_to_units() == lp({0: 1, 1: -1, 2: 1})

    def test_unit_times_unit(self):
        assert lp({5: -1}).normalize_up_to_units() == LaurentPoly.one()

    def test_zero(self):
        assert LaurentPoly.zero().normalize_up_to_units() == LaurentPoly.zero()

    def test_idempotent_and_associate_invariant(self):
        p = lp({-3: 2, 0: -5, 2: 1})
        n = p.normalize_up_to_units()
        assert n.normalize_up_to_units() == n
        assert (-p.shift(4)).normalize_up_to_units() == n
        assert (-p.shift(-7)).normalize_up_to_units() == n


class TestBreadth:
    def test_constant(self):
        assert lp({0: 7}).breadth() == 0

    def test_spread(self):
        assert lp({-3: 1, 4: 1}).breadth() == 7

    def test_family_formula_breadth(self):
        for m in range(1, 6):
            formula = lp({k - 2: (-1) ** k for k in range(2 * m + 1)})
            assert formula.breadth() == 2 * m

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            LaurentPoly.zero().breadth()


class TestGcd:
    def test_gcd_with_zero(self):
        p = lp({0: 1, 1: -1, 2: 1})
        assert gcd(p, LaurentPoly.zero()) == p
        assert gcd(LaurentPoly.zero(), p) == p

    def test_content_and_primitive_parts(self):
        # gcd(2 - 2t, 3 - 3t) = 1 - t; verified by multiplying back
        g = gcd(lp({0: 2, 1: -2}), lp({0: 3, 1: -3}))
        assert g == lp({0: 1, 1: -1})
        assert g * lp({0: 2}) == lp({0: 2, 1: -2})
        assert g * lp({0: 3}) == lp({0: 3, 1: -3})

    def test_associates(self):
        p = lp({0: 1, 1: -1, 2: 1})
        q = (-p).shift(-3)
        assert gcd(p, q) == p

    def test_coprime(self):
        assert gcd(lp({0: 1, 1: 1}), lp({0: 1, 1: -1})) == LaurentPoly.one()

    def test_common_factor_recovered(self):
        common = lp({0: 1, 1: -1, 2: 1})
        p = common * lp({0: 1, 1: 1})
        q = common * lp({0: 2, 3: 1})
        assert gcd(p, q) == common

    def test_monomial_gives_integer_gcd_at_any_breadth(self):
        wide = lp({0: 6, 10**9: -4, -10**9: 10})
        assert gcd(lp({7: -3}), wide) == LaurentPoly.one()
        assert gcd(wide, lp({-5: 4})) == lp({0: 2})
        assert gcd(lp({3: -12}), lp({8: 18})) == lp({0: 6})

    def test_breadth_guard(self):
        at_cap = lp({0: -1, MAX_GCD_DEGREE: 1})
        assert gcd(at_cap, lp({0: -1, 1: 1})) == lp({0: 1, 1: -1})
        with pytest.raises(GcdTooLargeError, match="breadth"):
            gcd(lp({0: -1, MAX_GCD_DEGREE + 1: 1}), lp({0: -1, 1: 1}))
        with pytest.raises(GcdTooLargeError):
            gcd(lp({0: 1, 1: 1}), lp({0: 1, 10**9: 1}))


class TestDivision:
    def test_exact(self):
        p = lp({0: 1, 1: -1, 2: 1}) * lp({-2: 3, 1: 1})
        q = p.exact_divide(lp({0: 1, 1: -1, 2: 1}))
        assert q == lp({-2: 3, 1: 1})

    def test_inexact(self):
        assert lp({0: 1, 1: 1}).exact_divide(lp({0: 2})) is None
        assert lp({2: 1}).exact_divide(lp({0: 1, 1: 1})) is None
        # every leading term divides, and a remainder of 2 is left
        assert lp({0: 1, 2: 1}).exact_divide(lp({0: 1, 1: 1})) is None

    def test_zero_cases(self):
        assert LaurentPoly.zero().exact_divide(lp({0: 3})) == LaurentPoly.zero()
        assert lp({0: 3}).exact_divide(LaurentPoly.zero()) is None

    def test_monomial_divisor_makes_nothing_dense(self, monkeypatch):
        # breadth 2 * 10^9: a dense list of it would not fit in memory
        wide = lp({-10**9: 6, 0: -4, 10**9: 2})
        monkeypatch.setattr(laurent, "_dense", lambda p: pytest.fail("made dense"))
        assert wide.exact_divide(lp({7: -2})) == lp({-10**9 - 7: -3, -7: 2, 10**9 - 7: -1})
        assert wide.exact_divide(lp({0: 1})) == wide
        assert wide.exact_divide(lp({-5: -1})) == -wide.shift(5)
        assert wide.exact_divide(lp({3: 4})) is None


class TestTextForm:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ({}, "0"),
            ({0: 1, 1: -1, 2: 1}, "1 - t + t^2"),
            ({-2: 1, -1: -1, 0: 1}, "t^-2 - t^-1 + 1"),
            ({0: 7}, "7"),
            ({5: -1}, "-t^5"),
            ({1: 1}, "t"),
            ({-1: -2, 0: 1}, "-2*t^-1 + 1"),
            ({3: 2, 5: 7}, "2*t^3 + 7*t^5"),
            ({-1: 1}, "t^-1"),
            ({1: -1}, "-t"),
            ({0: -3}, "-3"),
            ({1: -12, 2: 1}, "-12*t + t^2"),
            ({-1: 5, 0: -1, 1: 1}, "5*t^-1 - 1 + t"),
            ({0: 2, 1: 3, 2: -1}, "2 + 3*t - t^2"),
        ],
    )
    def test_round_trip(self, coeffs, text):
        p = lp(coeffs)
        assert format_laurent(p) == text
        assert parse_laurent(text) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "t^", "1 +", "q + 1", "t**2", "xt", "0^t", "2t", "t^+2",
                    "1_0", "1_0*t", "t^1_0", "1 2", "t t", "+", "--t", "1 + - t",
                    "*t", "2*", "2^3", "t^-"):
            with pytest.raises(InvalidParameterError):
                parse_laurent(bad)

    def test_parse_reads_signs_and_spaces(self):
        assert parse_laurent("- t") == lp({1: -1})
        assert parse_laurent("+1-t+t^2") == lp({0: 1, 1: -1, 2: 1})
        assert parse_laurent(" 3*t^-2 - 2*t^-2 ") == lp({-2: 1})
        assert parse_laurent("1 - 1") == LaurentPoly.zero()

    def test_number_past_the_digit_limit_is_an_input_error(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        for text in (digits, f"t^{digits}", f"1 + {digits}*t"):
            with pytest.raises(InvalidParameterError, match="more than"):
                parse_laurent(text)


# -- property tests -------------------------------------------------------------

small_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=5,
).map(LaurentPoly)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def naive_product(p, q):
    """The convolution of the two term lists, zero coefficients dropped."""
    out = {}
    for e1, c1 in p.terms():
        for e2, c2 in q.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return tuple(sorted((e, c) for e, c in out.items() if c))


# factors whose products often cancel: (1 - t^k) times a geometric sum
cancelling = st.integers(min_value=1, max_value=3).map(lambda k: lp({0: 1, k: -1}))
monomials = st.integers(min_value=-3, max_value=3).map(lambda k: lp({k: 1}))


@given(st.one_of(small_polys, cancelling), st.one_of(small_polys, cancelling, monomials))
def test_product_matches_convolution(p, q):
    assert (p * q).terms() == naive_product(p, q)
    assert (q * p).terms() == naive_product(p, q)
    geometric = lp(dict.fromkeys(range(4), 1))
    assert (p * q * geometric).terms() == naive_product(p * q, geometric)


@given(small_polys, small_polys)
def test_gcd_divides_both(p, q):
    g = gcd(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
    else:
        assert p.exact_divide(g) is not None
        assert q.exact_divide(g) is not None


@given(small_polys, small_polys, small_polys)
def test_gcd_keeps_a_common_factor(p, q, r):
    # leading coefficients other than +-1 exercise the remainder's rescaling
    g = gcd(p * r, q * r)
    if not g.is_zero:
        assert g.exact_divide(r) is not None
        assert (p * r).exact_divide(g) is not None and (q * r).exact_divide(g) is not None


@given(st.integers(min_value=-6, max_value=6).filter(bool),
       st.integers(min_value=-10, max_value=10), small_polys)
def test_gcd_with_monomial_is_integer_gcd(c, j, q):
    content = math.gcd(*(coeff for _, coeff in q.terms()))
    assert gcd(lp({j: c}), q) == lp({0: math.gcd(c, content)})
    assert gcd(q, lp({j: c})) == lp({0: math.gcd(c, content)})


@given(small_polys, small_polys, small_polys)
def test_gcd_associative_up_to_units(p, q, r):
    left = gcd(gcd(p, q), r)
    right = gcd(p, gcd(q, r))
    assert left == right  # both sides already normalized


@given(small_polys, st.integers(min_value=-4, max_value=4), st.booleans())
def test_normalize_constant_on_associates(p, k, flip):
    assoc = p.shift(k)
    if flip:
        assoc = -assoc
    assert assoc.normalize_up_to_units() == p.normalize_up_to_units()


@given(small_polys)
def test_text_round_trip(p):
    assert parse_laurent(format_laurent(p)) == p


def dense_quotient(p, d):
    """p / d by exact division of the dense coefficient lists, or None."""
    if p.is_zero:
        return p
    quo = laurent._dense_exact_div(laurent._dense(p), laurent._dense(d))
    if quo is None:
        return None
    offset = p.min_exp() - d.min_exp()
    return LaurentPoly({i + offset: c for i, c in enumerate(quo)})


nonzero = st.integers(min_value=-6, max_value=6).filter(bool)


@given(small_polys, nonzero, st.integers(min_value=-6, max_value=6), st.booleans())
def test_monomial_division_matches_dense_division(p, c, k, multiple):
    # c*t^k, -1 and negative c included; half the dividends are multiples
    divisor = lp({k: c})
    if multiple:
        p = p * divisor
    assert p.exact_divide(divisor) == dense_quotient(p, divisor)
    if multiple:
        assert p.exact_divide(divisor) * divisor == p


@given(small_polys, small_polys, st.integers(min_value=-4, max_value=4))
def test_operation_results_are_canonical(p, q, k):
    # results built without the public constructor still hold no zero
    # coefficients, so equality and hashing stay structural
    results = [p + q, p - q, p * q, -p, p.shift(k), p.normalize_up_to_units()]
    quotient = (p * q).exact_divide(q)
    if quotient is not None:
        results.append(quotient)
    for r in results:
        assert all(c != 0 for _, c in r.terms())
        assert r == LaurentPoly(r.terms())
        assert hash(r) == hash(LaurentPoly(r.terms()))
