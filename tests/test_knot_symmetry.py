"""Alexander polynomials of knots against facts that share no code with
the engines: symmetry Delta(t) = +-t^k Delta(t^-1), Delta(1) = +-1, and the
closed forms of the torus knots.  Coefficients are read out as plain
(exponent, coefficient) pairs and checked with integer arithmetic only."""

import pytest

from knotgroups.fox import alexander_polynomial
from knotgroups.presentations import parse, rbg_family


def wirtinger_torus(n):
    """Wirtinger presentation of T(2, n), n odd: arcs x1..xn, and at
    crossing i the arc x(i+1) passes over x(i), which continues as x(i+2)."""
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [
        f"{gens[(i + 1) % n]}*{gens[i]}*{gens[(i + 1) % n]}^-1*{gens[(i + 2) % n]}^-1"
        for i in range(n)
    ]
    return parse(f"< {', '.join(gens)} | {', '.join(rels)} >")


def torus_presentation(p, q):
    """< x, y | x^p * y^-q >, the group of the torus knot T(p, q) for
    coprime p, q; x and y abelianize to t^q and t^p."""
    return parse(f"< x, y | x^{p}*y^-{q} >")


def coefficients(poly):
    """Dense coefficient list from the lowest exponent up."""
    terms = dict(poly.terms())
    lo, hi = min(terms), max(terms)
    return [terms.get(e, 0) for e in range(lo, hi + 1)]


def assert_knot_polynomial(poly):
    coeffs = coefficients(poly)
    # Delta(t^-1) reverses the coefficient list; equal up to +-t^k means
    # the reversal is the list itself or its negation
    assert coeffs[::-1] in (coeffs, [-c for c in coeffs])
    assert sum(coeffs) in (1, -1)


KNOTS = [(f"family m={m}", lambda m=m: rbg_family(m)) for m in range(1, 10)] + [
    (f"T(2,{n})", lambda n=n: wirtinger_torus(n)) for n in (3, 5, 7, 9)
]


@pytest.mark.parametrize("name,build", KNOTS, ids=[k[0] for k in KNOTS])
def test_symmetric_with_unit_value_at_one(name, build):
    assert_knot_polynomial(alexander_polynomial(build()))


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_torus_closed_form(n):
    # Delta_T(2,n) = (t^n + 1) / (t + 1) = 1 - t + t^2 - ... + t^(n-1)
    poly = alexander_polynomial(wirtinger_torus(n))
    assert poly.terms() == tuple((e, (-1) ** e) for e in range(n))


def int_mul(a, b):
    """Product of two coefficient lists, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_div(num, den):
    """Exact quotient of two coefficient lists (den monic, as here)."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        c = quotient[k] = num[k + len(den) - 1] // den[-1]
        for i, d in enumerate(den):
            num[k + i] -= c * d
    assert not any(num)
    return quotient


def t_power_minus_one(k):
    return [-1] + [0] * (k - 1) + [1]


@pytest.mark.parametrize("p,q", ((2, 3), (3, 4), (2, 5), (3, 5), (4, 7), (5, 6)))
def test_torus_knot_without_unit_weight(p, q):
    # no generator abelianizes to t^+-1, so the polynomial comes out of the
    # exact division by (t^p - 1)/(t - 1):
    # Delta_T(p,q) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))
    expected = int_div(int_mul(t_power_minus_one(p * q), t_power_minus_one(1)),
                       int_mul(t_power_minus_one(p), t_power_minus_one(q)))
    poly = alexander_polynomial(torus_presentation(p, q))
    assert poly.terms() == tuple((e, c) for e, c in enumerate(expected) if c)
    assert_knot_polynomial(poly)
