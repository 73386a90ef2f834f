"""Seeded benchmark inputs: presentation texts, group specs and the
expected answers that the benchmark checks every job against.

Everything here is standard library only and shares no code with the
``knotgroups`` engines: presentations are written out as text in the
package's file grammar, and the expected Alexander polynomials come from
closed forms.  Homomorphism counts have no closed form, so they are pinned
in ``pinned.json`` (see ``pin_answers.py`` for how they were obtained).
"""

from __future__ import annotations

import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))

FAMILY_M_MAX = 181

A5_SPEC = "A5"
A5_SIGMA = "(1,5,4,3,2)"
# Exponent of A5 (lcm of its element orders 1, 2, 3, 5): the image of
# (yx)^m, and so every count, depends on m only through m mod 30.
A5_EXPONENT = 30

PSL27_SPEC = "gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]"
PSL27_ORDER = 168
PSL27_SIGMA = "(2,3,5)(4,7,6)"
PSL27_M_MAX = 12

WIRTINGER_N = (3, 5, 7)


def family_text(m: int) -> str:
    """The family presentation for parameter m, relators freely reduced:

        < x, y, a | (yx)^m y (yx)^-m x^-1,  x^-1 a x a^-1 x^-1 y a y^-1 >

    with (yx)^-m spelled out as (x^-1 y^-1)^m, as ``knotgroups family``
    writes it.
    """
    if m < 1:
        raise ValueError(f"family parameter must be positive, got {m}")
    rel1 = "y*x*" * m + "y*" + "x^-1*y^-1*" * m + "x^-1"
    rel2 = "x^-1*a*x*a^-1*x^-1*y*a*y^-1"
    return (f"< x, y, a | {rel1}, {rel2} >\n"
            "meridian meridian_B: x\n"
            "meridian meridian_G: a\n")


def wirtinger_torus_text(n: int) -> str:
    """Wirtinger presentation of the torus knot T(2, n) for odd n >= 3.

    The closed 2-braid sigma_1^n has n arcs x1..xn and n crossings; at
    crossing i the arc x(i+1) passes over, turning x(i) into x(i+2):
    relator x(i+1) * x(i) * x(i+1)^-1 * x(i+2)^-1, indices mod n.  Even n
    gives a two-component link, whose group has abelianization Z^2.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"T(2, n) is a knot only for odd n >= 3, got {n}")
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = []
    for i in range(n):
        a, b, c = gens[i], gens[(i + 1) % n], gens[(i + 2) % n]
        rels.append(f"{b}*{a}*{b}^-1*{c}^-1")
    return (f"< {', '.join(gens)} | {', '.join(rels)} >\n"
            f"meridian meridian_1: {gens[0]}\n")


# -- expected answers ------------------------------------------------------


def alternating_poly(degree: int) -> dict:
    """1 - t + t^2 - ... + t^degree as an exponent -> coefficient map."""
    return {e: (-1) ** e for e in range(degree + 1)}


def family_alexander(m: int) -> dict:
    """Alexander polynomial of the family member m: 1 - t + ... + t^(2m)."""
    return alternating_poly(2 * m)


def torus_alexander(n: int) -> dict:
    """Alexander polynomial of T(2, n): (t^n + 1)/(t + 1) = 1 - t + ... + t^(n-1)."""
    return alternating_poly(n - 1)


_TERM = re.compile(r"^([+-]?)(?:(\d+)\*?)?(t(?:\^(-?\d+))?)?$")


def parse_poly(text: str) -> dict:
    """Parse the package's text form of a Laurent polynomial, e.g.
    ``1 - t + t^2`` or ``-2*t^3 + 7*t^5``, into an exponent -> coefficient
    map.  Raises ValueError on anything else."""
    # "^-" is the only minus sign that does not start a term
    compact = text.replace(" ", "").replace("^-", "^~")
    if not compact:
        raise ValueError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise ValueError(f"bad polynomial {text!r}")
    out: dict = {}
    for term in terms:
        term = term.replace("~", "-")
        match = _TERM.match(term)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise ValueError(f"bad polynomial term {term!r} in {text!r}")
        sign, coeff, tpart, exp = match.groups()
        value = int(coeff) if coeff else 1
        value = -value if sign == "-" else value
        power = 0 if not tpart else (int(exp) if exp else 1)
        out[power] = out.get(power, 0) + value
    return {e: c for e, c in out.items() if c}


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)
