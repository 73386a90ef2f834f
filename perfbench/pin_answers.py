"""Recompute the pinned homomorphism counts and write ``pinned.json``.

Run from the repository root:

    python3 perfbench/pin_answers.py            # check pinned.json
    python3 perfbench/pin_answers.py --write    # rewrite it

Counts have no closed form, so each pinned value is accepted only when
independent routes agree (single-threaded library calls, about 20 minutes
on one core):

* meridian counts: ``backtrack`` and ``naive`` give the same number;
* total homomorphism counts into PSL(2,7): ``backtrack`` over the whole
  tree equals the class equation sum over conjugacy classes C of
  |C| * #{homs with x -> rep(C)}, the pinned counts taken by ``naive``
  (conjugating a homomorphism by a group element permutes the homs that
  pin x within one class, so the pinned count is a class function);
* periodicity: every count at m equals the count at m + 168, since
  g^|A| = 1 in a group A of order 168.  The m + 168 values come from
  ``backtrack`` alone and are stored so ``check.py`` can compare them.

The A5 counts depend on m only through m mod 30, the exponent of A5, so
one row is pinned per residue (m = 1..30, both engines) and checked
against m + 30 (backtrack).  The paper's 6 (meridian_B) and 1
(meridian_G) are the row of m = 1, which covers its m = 1, 61, 121, 181.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
from knotgroups import count_homs, group_from_spec, meridian_invariant, parse, parse_permutation  # noqa: E402

PAPER_A5_COUNTS = {"meridian_B": 6, "meridian_G": 1}


def conjugacy_classes(group) -> list:
    """Classes of the group as lists of elements, computed on image tuples."""
    elems = {g.images: g for g in group.elements}

    def mul(p, q):  # apply p first, then q
        return tuple(q[i] for i in p)

    def inv(p):
        out = [0] * len(p)
        for i, img in enumerate(p):
            out[img] = i
        return tuple(out)

    seen, classes = set(), []
    for h in elems:
        if h in seen:
            continue
        cls = {mul(mul(k, h), inv(k)) for k in elems}
        seen |= cls
        classes.append(sorted(cls))
    return [[elems[c] for c in cls] for cls in classes]


def meridian_counts(pres, group, sigma, modes) -> dict:
    out = {}
    for marker in ("meridian_B", "meridian_G"):
        values = {mode: meridian_invariant(pres, marker, group, sigma, mode=mode)
                  for mode in modes}
        if len(set(values.values())) != 1:
            raise SystemExit(f"engines disagree on {marker}: {values}")
        out[marker] = values[modes[0]]
    return out


def class_sum(pres, group, classes, mode) -> int:
    return sum(len(cls) * count_homs(pres, group, {"x": cls[0]}, mode=mode).count
               for cls in classes)


def pin_a5() -> dict:
    group = group_from_spec(inputs.A5_SPEC)
    sigma = parse_permutation(inputs.A5_SIGMA, group.degree)
    table = {}
    for m in range(1, inputs.A5_EXPONENT + 1):
        row = meridian_counts(parse(inputs.family_text(m)), group, sigma,
                              ("backtrack", "naive"))
        later = meridian_counts(parse(inputs.family_text(m + inputs.A5_EXPONENT)),
                                group, sigma, ("backtrack",))
        if row != later:
            raise SystemExit(f"A5 counts at m={m} and m+30 differ: {row}, {later}")
        table[str(m)] = row
        print(f"A5 m={m}: {row}", flush=True)
    if table["1"] != PAPER_A5_COUNTS:
        raise SystemExit(f"A5 counts at m=1 are {table['1']}, the paper has {PAPER_A5_COUNTS}")
    return table


def pin_psl27() -> dict:
    group = group_from_spec(inputs.PSL27_SPEC)
    if group.order != inputs.PSL27_ORDER:
        raise SystemExit(f"PSL(2,7) spec generates order {group.order}")
    sigma = parse_permutation(inputs.PSL27_SIGMA, group.degree)
    classes = conjugacy_classes(group)
    table = {}
    for m in range(1, inputs.PSL27_M_MAX + 1):
        for mm in (m, m + inputs.PSL27_ORDER):
            pres = parse(inputs.family_text(mm))
            if mm == m:
                row = meridian_counts(pres, group, sigma, ("backtrack", "naive"))
                total = count_homs(pres, group).count
                by_classes = class_sum(pres, group, classes, "naive")
            else:
                row = meridian_counts(pres, group, sigma, ("backtrack",))
                total = by_classes = class_sum(pres, group, classes, "backtrack")
            if total != by_classes:
                raise SystemExit(f"m={mm}: total {total} != class sum {by_classes}")
            row["homs"] = total
            table[str(mm)] = row
            print(f"PSL(2,7) m={mm}: {row}", flush=True)
        if table[str(m)] != table[str(m + inputs.PSL27_ORDER)]:
            raise SystemExit(f"m={m}: counts are not periodic mod {inputs.PSL27_ORDER}")
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite pinned.json")
    args = ap.parse_args()
    pinned = {"a5": pin_a5(), "psl27": pin_psl27()}
    path = os.path.join(HERE, "pinned.json")
    if args.write:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
        return 0
    if pinned != inputs.load_pinned():
        print("pinned.json differs from the recomputed counts", file=sys.stderr)
        return 1
    print("pinned.json agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
