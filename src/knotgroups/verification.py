"""Named verification checks with pinned expected values.

Every number a user of this package should be able to reproduce lives here,
in one versioned table, together with the checks that recompute it from
scratch.  The CLI ``verify`` command and the acceptance test module both
run exactly these checks, so there is a single source of truth for what
"working" means.  The suite is one fixed list: ``run_all()`` runs every
check, in order, on every call.  A check takes no arguments and builds its
own families and groups, which costs well under a millisecond each.

A check's verdict is its values alone; no check reads the clock.
Randomized checks draw from a fixed seed, making every run (and every
``--json`` report) deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from . import homsearch
from .fox import _fox_row, alexander_matrix, alexander_polynomial
from .laurent import LaurentPoly, gcd as laurent_gcd, parse_laurent
from .permgroups import FiniteGroup, are_conjugate, group_from_spec, parse_permutation
from .presentations import Presentation, parse, rbg_family
from .words import Word, reduce_syllables

EXPECTATIONS_VERSION = "1"
RNG_SEED = 20260808

# Pinned expected values, in the same text forms the CLI prints.  The
# family polynomial is the alternating sum 1 - t + t^2 - ... + t^(2m)
# (normal form); the m=1 derivative matrix is frozen both in the
# stored-relator convention (exact) and in the rotated-relator form whose
# first-row entries differ by the unit t (associate).
EXPECTED = {
    "family_polynomial": lambda m: LaurentPoly(
        {k: (-1) ** k for k in range(2 * m + 1)}
    ),
    "matrix_m1_row1_exact": ("-1 + t - t^2", "1 - t + t^2", "0"),
    "matrix_m1_row1_rotated": ("-t^-1 + 1 - t", "t^-1 - 1 + t", "0"),
    "matrix_m1_row2": ("-2*t^-1 + 1", "t^-1 - 1", "t^-1"),
    "meridian_B_count": 6,
    "meridian_G_count": 1,
    "pinned_element": "(1,5,4,3,2)",
    "explicit_hom": {"x": "(1,5,4,3,2)", "y": "(1,2,4,5,3)", "a": "(2,4,5)"},
    "hom_total_A5": 480,
}


class CheckFailure(Exception):
    """Raised inside a check to report a value mismatch."""


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""

    def status_line(self) -> str:
        if self.passed:
            return f"PASS {self.name}"
        return f"FAIL {self.name}: {self.detail}"


@dataclass
class Check:
    name: str
    fn: Callable[[], None]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- individual checks ---------------------------------------------------------


def check_alexander_family_formula() -> None:
    for m in range(1, 6):
        poly = alexander_polynomial(rbg_family(m))
        want = EXPECTED["family_polynomial"](m).normalize_up_to_units()
        _expect(
            poly == want,
            f"family m={m}: got {poly}, expected {want}",
        )
        _expect(
            poly.breadth() == 2 * m,
            f"family m={m}: breadth {poly.breadth()} != {2 * m}",
        )


def check_alexander_matrix_entries() -> None:
    matrix = alexander_matrix(rbg_family(1))
    _expect(matrix.shape == (2, 3), f"matrix shape {matrix.shape} != (2, 3)")
    for j, text in enumerate(EXPECTED["matrix_m1_row2"]):
        got, want = matrix[1, j], parse_laurent(text)
        _expect(got == want, f"row 2 col {j}: got {got}, expected {want}")
    for j in range(3):
        got = matrix[0, j]
        exact = parse_laurent(EXPECTED["matrix_m1_row1_exact"][j])
        rotated = parse_laurent(EXPECTED["matrix_m1_row1_rotated"][j])
        _expect(got == exact, f"row 1 col {j}: got {got}, expected {exact}")
        _expect(
            got.normalize_up_to_units() == rotated.normalize_up_to_units(),
            f"row 1 col {j}: {got} not an associate of {rotated}",
        )


def _counts_for(m: int) -> Tuple[int, int]:
    a5 = group_from_spec("A5")
    sigma = parse_permutation(EXPECTED["pinned_element"], 5)
    fam = rbg_family(m)
    count_b = homsearch.meridian_invariant(fam, "meridian_B", a5, sigma, mode="naive")
    count_g = homsearch.meridian_invariant(fam, "meridian_G", a5, sigma, mode="naive")
    return count_b, count_g


def _check_representation_counts(ms: Tuple[int, ...]) -> None:
    for m in ms:
        count_b, count_g = _counts_for(m)
        _expect(
            count_b == EXPECTED["meridian_B_count"],
            f"m={m}: meridian_B count {count_b} != {EXPECTED['meridian_B_count']}",
        )
        _expect(
            count_g == EXPECTED["meridian_G_count"],
            f"m={m}: meridian_G count {count_g} != {EXPECTED['meridian_G_count']}",
        )


def check_representation_counts() -> None:
    _check_representation_counts((1, 61))


def check_representation_counts_deep() -> None:
    _check_representation_counts((121, 181))


def _random_word(rng: random.Random, gens: Tuple[str, ...],
                 max_syllables: int = 6) -> Word:
    raw = [
        (rng.choice(gens), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(1, max_syllables))
    ]
    return Word(raw)


def check_mode_parity() -> None:
    a5 = group_from_spec("A5")
    sigma = parse_permutation(EXPECTED["pinned_element"], 5)
    f1 = rbg_family(1)
    for gen in ("x", "a"):
        naive = homsearch.count_homs(f1, a5, {gen: sigma}, mode="naive").count
        back = homsearch.count_homs(f1, a5, {gen: sigma}, mode="backtrack").count
        _expect(
            naive == back,
            f"family m=1, pin {gen}: naive {naive} != backtrack {back}",
        )
    s3 = group_from_spec("S3")
    torsion = parse("< x | x^2 >")
    naive = homsearch.count_homs(torsion, s3, mode="naive").count
    back = homsearch.count_homs(torsion, s3, mode="backtrack").count
    _expect(naive == back == 4, f"< x | x^2 > into S3: naive {naive}, backtrack {back}")

    s4 = group_from_spec("S4")
    rng = random.Random(RNG_SEED)
    gens = ("u", "v")
    for trial in range(50):
        relators = [_random_word(rng, gens) for _ in range(2)]
        pres = Presentation(gens, relators)
        pin_gen = rng.choice(gens)
        pin_val = rng.choice(s4.elements)
        naive = homsearch.count_homs(pres, s4, {pin_gen: pin_val}, mode="naive").count
        back = homsearch.count_homs(pres, s4, {pin_gen: pin_val}, mode="backtrack").count
        _expect(
            naive == back,
            f"random trial {trial}: naive {naive} != backtrack {back} "
            f"(relators {[str(r) for r in relators]}, pin {pin_gen}={pin_val})",
        )


def check_explicit_homomorphism() -> None:
    a5 = group_from_spec("A5")
    assignment = {
        g: parse_permutation(text, 5) for g, text in EXPECTED["explicit_hom"].items()
    }
    sigma = parse_permutation(EXPECTED["pinned_element"], 5)
    for m in (1, 61):
        _expect(
            all(rel.evaluate(assignment, a5) == a5.identity for rel in rbg_family(m).relators),
            f"m={m}: assignment is not a homomorphism",
        )
    _expect(
        not are_conjugate(assignment["x"], assignment["a"], a5),
        "images of x and a reported conjugate",
    )
    _expect(
        are_conjugate(sigma, ~sigma, a5),
        "pinned 5-cycle not conjugate to its inverse in A5",
    )


def _pin_buckets(pres: Presentation, group: FiniteGroup) -> Dict:
    """For every generator, the map (index of the pinned value -> hom
    count), computed from one unconstrained listing."""
    leaves = homsearch.count_homs(pres, group, mode="backtrack", materialize=True).leaves
    return {g: Counter(leaf[i] for leaf in leaves) for i, g in enumerate(pres.generators)}


def check_count_periodicity() -> None:
    for label in ("S3", "A4", "A5"):
        group = group_from_spec(label)
        for m in (1, 2, 3):
            base = _pin_buckets(rbg_family(m), group)
            for k in (1, 2):
                shifted = _pin_buckets(rbg_family(m + group.order * k), group)
                _expect(
                    base == shifted,
                    f"{label}: pinned counts differ between m={m} "
                    f"and m={m + group.order * k}",
                )


def check_breadths_distinct() -> None:
    breadths = [alexander_polynomial(rbg_family(m)).breadth() for m in range(1, 6)]
    _expect(
        len(set(breadths)) == len(breadths),
        f"breadths not pairwise distinct: {breadths}",
    )


def check_property_suites() -> None:
    rng = random.Random(RNG_SEED + 1)
    gens = ("x", "y", "a")

    # abelianized product rule on the Alexander matrix's rows, 200 random
    # pairs: row(u*v) = row(u) + t^a(u) * row(v), a the abelianization
    column = {g: i for i, g in enumerate(gens)}
    for _ in range(200):
        u = _random_word(rng, gens)
        v = _random_word(rng, gens)
        weights = {g: rng.randint(-2, 2) for g in gens}
        shift = LaurentPoly({sum(weights[g] * e for g, e in u.exponent_sums().items()): 1})
        lhs, left, right = (_fox_row(w, column, weights) for w in (u * v, u, v))
        rhs = {j: left.get(j, 0) + shift * right.get(j, 0) for j in range(3)}
        rhs = {j: p for j, p in rhs.items() if p}
        _expect(lhs == rhs, f"product rule fails for u={u}, v={v}, weights {weights}")

    # abelianized fundamental identity on the Alexander matrix's rows, 200 words
    for _ in range(200):
        w = _random_word(rng, gens)
        weights = {g: rng.randint(-2, 2) for g in gens}
        total = LaurentPoly.zero()
        for j, poly in _fox_row(w, column, weights).items():
            total = total + poly * (LaurentPoly({weights[gens[j]]: 1}) - 1)
        ab_w = sum(weights[g] * e for g, e in w.exponent_sums().items())
        want = LaurentPoly({ab_w: 1}) - 1
        _expect(total == want, f"fundamental identity fails for w={w}")

    # free reduction is idempotent
    for _ in range(200):
        raw = [
            (rng.choice(gens), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 10))
        ]
        once = reduce_syllables(raw)
        _expect(reduce_syllables(once) == once, f"reduction not idempotent on {raw}")

    # gcd divides both arguments; normal form constant on associate classes
    for _ in range(100):
        p = LaurentPoly(
            {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 4))}
        )
        q = LaurentPoly(
            {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 4))}
        )
        g = laurent_gcd(p, q)
        if not g.is_zero:
            _expect(p.exact_divide(g) is not None and q.exact_divide(g) is not None,
                    f"gcd({p}, {q}) = {g} does not divide both")
        else:
            _expect(p.is_zero and q.is_zero, f"gcd({p}, {q}) is zero for nonzero input")
        unit_shift = p.shift(rng.randint(-3, 3))
        if rng.random() < 0.5:
            unit_shift = -unit_shift
        _expect(
            p.normalize_up_to_units() == unit_shift.normalize_up_to_units(),
            f"normal form differs across associates of {p}",
        )

    # hom-count partition: summing the pinned counts over all images of the
    # meridian recovers the total number of homomorphisms
    a4 = group_from_spec("A4")
    f1 = rbg_family(1)
    total = homsearch.count_homs(f1, a4).count
    parts = sum(
        homsearch.meridian_invariant(f1, "meridian_B", a4, sigma)
        for sigma in a4.elements
    )
    _expect(parts == total, f"partition identity: sum {parts} != total {total}")

    # a pinned listing holds as many homomorphisms as its count says
    a5 = group_from_spec("A5")
    sigma = parse_permutation(EXPECTED["pinned_element"], 5)
    result = homsearch.count_homs(f1, a5, {"x": sigma}, materialize=True)
    _expect(
        result.count == len(result.leaves) == EXPECTED["meridian_B_count"],
        f"pinned count {result.count} with {len(result.leaves)} listed, "
        f"expected {EXPECTED['meridian_B_count']}",
    )
    _expect(
        homsearch.count_homs(f1, a5).count == EXPECTED["hom_total_A5"],
        "total homomorphism count into A5 changed",
    )


CHECKS: List[Check] = [
    Check("alexander-family-formula", check_alexander_family_formula),
    Check("alexander-matrix-entries", check_alexander_matrix_entries),
    Check("representation-counts", check_representation_counts),
    Check("representation-counts-deep", check_representation_counts_deep),
    Check("mode-parity-oracle", check_mode_parity),
    Check("explicit-homomorphism", check_explicit_homomorphism),
    Check("count-periodicity", check_count_periodicity),
    Check("alexander-breadths-distinct", check_breadths_distinct),
    Check("property-suites", check_property_suites),
]


def run_check(check: Check) -> CheckOutcome:
    try:
        check.fn()
    except CheckFailure as exc:
        return CheckOutcome(check.name, False, str(exc))
    except Exception as exc:  # a crash is a failure with a named cause
        return CheckOutcome(check.name, False, f"{type(exc).__name__}: {exc}")
    return CheckOutcome(check.name, True)


def run_all() -> List[CheckOutcome]:
    return [run_check(check) for check in CHECKS]
