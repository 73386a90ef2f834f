"""Acceptance gate: every pinned criterion at its stated tolerance.

Each test runs one named verification check (the same objects the CLI
``verify`` command runs), prints a single PASS/FAIL line for it, and
asserts that its values match.  All tolerances are exact; there is no
floating point anywhere in the package, and no check reads the clock.

Criteria covered:

1. the family Alexander polynomial equals the alternating-sum normal form
   for m = 1..5, with breadth 2m
2. the m=1 derivative matrix entries (second row exact, first row exact in
   the stored-relator convention and associate to the rotated form)
3. meridian-pinned representation counts into A5 are 6 and 1 for
   m in {1, 61}, and (3-deep) m in {121, 181}
4. naive product enumeration and backtracking agree everywhere sampled
5. the explicit generator assignment is a homomorphism whose x and a
   images are non-conjugate, while the pinned 5-cycle is conjugate to its
   own inverse
6. pinned counts are periodic in the family parameter with period equal to
   the target group order
7. the family polynomials have pairwise distinct breadths for m = 1..5
8. property suites: product rule, abelianized derivative identity, free
   reduction idempotence, gcd/normal-form laws, count partition identity,
   and a pinned listing whose length equals its count
"""

import pytest

from knotgroups import verification

CRITERIA = [
    ("1", "alexander-family-formula"),
    ("2", "alexander-matrix-entries"),
    ("3", "representation-counts"),
    ("3-deep", "representation-counts-deep"),
    ("4", "mode-parity-oracle"),
    ("5", "explicit-homomorphism"),
    ("6", "count-periodicity"),
    ("7", "alexander-breadths-distinct"),
    ("8", "property-suites"),
]

CHECK_BY_NAME = {check.name: check for check in verification.CHECKS}


@pytest.mark.parametrize(
    "criterion, name",
    CRITERIA,
    ids=[f"criterion-{num}" for num, _ in CRITERIA],
)
def test_acceptance(criterion, name):
    outcome = verification.run_check(CHECK_BY_NAME[name])
    print(f"ACCEPTANCE criterion {criterion} :: {outcome.status_line()}")
    assert outcome.passed, f"criterion {criterion}: {outcome.detail}"
