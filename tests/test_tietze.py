"""Tietze moves against the invariants: random chains of moves must keep the
Alexander polynomial and every pinned and marker count.

The moves only rewrite presentations, so these checks share no code with
the search: the counts of a moved presentation, found by backtracking,
must equal the counts of the original one, found by the naive engine.
Reference: Crowell-Fox, *Introduction to Knot Theory*, ch. II.
"""

import random

import pytest

from knotgroups import homsearch
from knotgroups.fox import alexander_polynomial
from knotgroups.homsearch import count_homs, meridian_invariant, meridian_search
from knotgroups.permgroups import (
    alternating_group,
    group_from_spec,
    parse_permutation,
    symmetric_group,
)
from knotgroups.presentations import Presentation, parse, parse_word, rbg_family
from knotgroups.words import Word


class Moved:
    """A presentation after some moves, with the map from the original
    generator names to their current names."""

    def __init__(self, presentation, names):
        self.presentation = presentation
        self.names = names

    def rebuild(self, generators=None, relators=None, rename=None):
        p = self.presentation
        rename = rename or {}

        def apply(word):
            return Word([(rename.get(g, g), e) for g, e in word.syllables])

        return Moved(
            Presentation(
                [rename.get(g, g) for g in (generators or p.generators)],
                [apply(r) for r in (p.relators if relators is None else relators)],
                {name: apply(w) for name, w in p.markers.items()},
            ),
            {old: rename.get(new, new) for old, new in self.names.items()},
        )


def random_word(rng, generators, length):
    return Word([(rng.choice(generators), rng.choice((-1, 1))) for _ in range(length)])


def cyclically_permute(rng, moved):
    rels = list(moved.presentation.relators)
    i = rng.randrange(len(rels))
    syllables = rels[i].syllables
    cut = rng.randrange(len(syllables))
    rels[i] = Word(syllables[cut:] + syllables[:cut])
    return moved.rebuild(relators=rels)


def invert(rng, moved):
    rels = list(moved.presentation.relators)
    i = rng.randrange(len(rels))
    rels[i] = ~rels[i]
    return moved.rebuild(relators=rels)


def conjugate(rng, moved):
    rels = list(moved.presentation.relators)
    i = rng.randrange(len(rels))
    w = random_word(rng, moved.presentation.generators, rng.randint(1, 2))
    rels[i] = w * rels[i] * ~w
    return moved.rebuild(relators=rels)


def add_consequence(rng, moved):
    # a product of conjugates of relators (and their inverses) lies in
    # their normal closure
    rels = moved.presentation.relators
    gens = moved.presentation.generators
    product = Word.identity()
    for rel in rng.sample(rels, min(2, len(rels))):
        w = random_word(rng, gens, rng.randint(0, 1))
        product = product * w * rel ** rng.choice((-1, 1)) * ~w
    return moved.rebuild(relators=rels + (product,))


def add_generator(rng, moved):
    # a new generator z with its defining relator z^-1 * w, w in the others
    gens = moved.presentation.generators
    z = f"z{len(gens)}"
    definition = random_word(rng, gens, rng.randint(1, 3))
    relator = Word.generator(z, -1) * definition
    return moved.rebuild(generators=gens + (z,),
                         relators=moved.presentation.relators + (relator,))


def rename_generators(rng, moved):
    gens = moved.presentation.generators
    fresh = [f"r{i}" for i in range(len(gens))]
    rng.shuffle(fresh)
    return moved.rebuild(rename=dict(zip(gens, fresh)))


def permute_generators(rng, moved):
    gens = list(moved.presentation.generators)
    rng.shuffle(gens)
    return moved.rebuild(generators=gens)


MOVES = (cyclically_permute, invert, conjugate, add_consequence, add_generator,
         rename_generators, permute_generators)


def random_moves(rng, presentation, steps, moves=MOVES):
    moved = Moved(presentation, {g: g for g in presentation.generators})
    for _ in range(steps):
        moved = rng.choice(moves)(rng, moved)
    return moved


TREFOIL = parse("< x, y | x*y*x*y^-1*x^-1*y^-1 >\nmeridian mu: x\nmeridian nu: x*y\n")


def marked_family(m):
    fam = rbg_family(m)
    markers = dict(fam.markers)
    markers["conjugate"] = parse_word("x^-1*a*x", fam.generators)
    return Presentation(fam.generators, fam.relators, markers)


BASES = [("trefoil", TREFOIL), ("family m=1", marked_family(1)),
         ("family m=2", marked_family(2))]
# A5 runs the same chains as the smaller groups: each walked level takes
# one value per orbit of the stabilizer of the values before it, so a chain
# that moves a relator's generators apart walks well under |A|^3 nodes
# (at most 436,876 over 120 chains of 4-10 moves on family m = 2).
GROUPS = [symmetric_group(3), alternating_group(4), symmetric_group(4),
          alternating_group(5)]
PSL27 = group_from_spec("gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]")


def invariants(presentation, names, group, sigma, mode):
    """Alexander polynomial, total count, one pinned count per original
    generator and one count per marker, all at ``sigma``."""
    pinned = [count_homs(presentation, group, {names[g]: sigma}, mode=mode).count
              for g in sorted(names)]
    markers = [meridian_invariant(presentation, name, group, sigma, mode=mode)
               for name in sorted(presentation.markers)]
    return str(alexander_polynomial(presentation)), pinned, markers


@pytest.mark.parametrize("name,base", BASES, ids=[b[0] for b in BASES])
@pytest.mark.parametrize("group", GROUPS, ids=[g.label for g in GROUPS])
def test_random_moves_keep_invariants(name, base, group):
    rng = random.Random(f"{name} {group.label}")
    sigma = parse_permutation("(1,2,3)", group.degree)
    identity = {g: g for g in base.generators}
    expected = invariants(base, identity, group, sigma, "naive")
    total = count_homs(base, group, mode="naive").count
    for _ in range(8):
        moved = random_moves(rng, base, rng.randint(1, 5))
        got = invariants(moved.presentation, moved.names, group, sigma, "backtrack")
        assert got == expected, moved.presentation.render()
        assert count_homs(moved.presentation, group).count == total


@pytest.mark.parametrize("move", MOVES, ids=[m.__name__ for m in MOVES])
def test_each_move_alone(move):
    # every move, applied once to the family, against the paper's counts
    rng = random.Random(move.__name__)
    a5 = alternating_group(5)
    sigma = parse_permutation("(1,5,4,3,2)", 5)
    for _ in range(3):
        moved = move(rng, Moved(marked_family(1), {g: g for g in "xya"}))
        pres = moved.presentation
        assert str(alexander_polynomial(pres)) == "1 - t + t^2"
        assert meridian_invariant(pres, "meridian_B", a5, sigma) == 6
        assert meridian_invariant(pres, "meridian_G", a5, sigma) == 1
        assert count_homs(pres, a5, {moved.names["x"]: sigma}).count == 6


# the moves that keep the generators, so that naive stays small
MOVES_KEEPING_GENERATORS = tuple(m for m in MOVES if m is not add_generator)


def named_leaves(result, names):
    """A listing's leaves as sorted tuples of (original name, image index)."""
    back = {new: old for old, new in names.items()}
    return sorted(tuple(sorted(zip(map(back.get, result.generators), leaf)))
                  for leaf in result.leaves)


@pytest.mark.parametrize("group", [symmetric_group(4), alternating_group(5), PSL27],
                         ids=["S4", "A5", "PSL27"])
def test_second_level_walk_against_naive(group, monkeypatch):
    # backtrack walks each level after the first unpinned one over the
    # orbits of H_k, the stabilizer of the values before it; counts and
    # listings of moved presentations, with no pin, a pin on each generator
    # and each marker, must equal naive's.  The spy records, as (depth,
    # case), how each such level takes its values: depth 2 right after the
    # first unpinned level, 3 for any deeper; "solved" (its table's values,
    # which end the chain), "trivial" (all of A, H_k = 1), "reused" (the
    # orbits of the level before, H_k = H_(k-1)), "proper" (a nontrivial
    # proper H_k) or "ended" (all of A, the chain having ended before).
    # Every group meets the first four at depth 2 and the trivial, reused
    # and proper ones at depth 3, through the family's three unpinned
    # generators in the orders that the moves give them
    seen = set()
    walk = homsearch._walk

    def spy(values, counted, charges, levels, solved, slots, columns, stats, narrowed=None):
        first = counted.index(True) if True in counted else len(values)
        depth = lambda level: min(level - first + 1, 3)
        solved_at = [k for k in range(first + 1, len(values)) if solved[k]]
        if solved_at:
            seen.add((depth(solved_at[0]), "solved"))
        if narrowed:
            narrowing, narrow = narrowed
            # a solved level takes its table's values
            assert not any(solved[k] for k in narrowing)
            taken = {first: values[first]}

            def classify(level, r):
                got = taken[level] = narrow(level, r)
                ended = level - 1 > first and taken[level - 1] is values[level - 1]
                seen.add((depth(level), "ended" if ended
                          else "trivial" if got is values[level]
                          else "reused" if got is taken[level - 1] else "proper"))
                return got

            narrowed = narrowing, classify
        return walk(values, counted, charges, levels, solved, slots, columns, stats, narrowed)

    monkeypatch.setattr(homsearch, "_walk", spy)
    rng = random.Random(f"second level {group.label}")
    for _, base in BASES[:2]:
        searches = [(None, {})] + [(None, {g: None}) for g in base.generators]
        searches += [(name, {}) for name in sorted(base.markers)]
        for marker, pins in searches:
            # naive walks |A|^(unpinned) assignments: at most 60^3
            unpinned = len(base.generators) - len(pins)
            if marker and len(base.markers[marker].syllables) == 1:
                unpinned -= 1  # a bare generator marker is a pin
            if group.order ** unpinned > 60 ** 3:
                continue
            for _ in range(2):
                moved = random_moves(rng, base, rng.randint(1, 5), MOVES_KEEPING_GENERATORS)
                pres = moved.presentation
                sigma = rng.choice(group.elements)
                if marker:
                    search = lambda mode, listing: meridian_search(
                        pres, marker, group, sigma, mode=mode, materialize=listing)
                else:
                    fixed = {moved.names[g]: sigma for g in pins}
                    search = lambda mode, listing: count_homs(
                        pres, group, fixed, mode=mode, materialize=listing)
                naive = search("naive", True)
                listed = search("backtrack", True)
                assert search("backtrack", False).count == listed.count == naive.count
                assert listed.leaves == naive.leaves, pres.render()
    # three unpinned levels, also into PSL(2,7), where naive on a moved
    # presentation would walk 168^3 assignments: the listing of each chain
    # of moves must be naive's on the family, generator by generator
    base = BASES[1][1]
    sigma = group.elements[-1]
    for marker in (None, "conjugate"):
        search = lambda pres, mode, listing: (
            meridian_search(pres, marker, group, sigma, mode=mode, materialize=listing)
            if marker else count_homs(pres, group, mode=mode, materialize=listing))
        naive = search(base, "naive", True)
        expected = named_leaves(naive, {g: g for g in base.generators})
        for _ in range(6):
            moved = random_moves(rng, base, rng.randint(1, 5), MOVES_KEEPING_GENERATORS)
            listed = search(moved.presentation, "backtrack", True)
            assert search(moved.presentation, "backtrack", False).count == naive.count
            assert named_leaves(listed, moved.names) == expected, moved.presentation.render()
    assert {(2, "solved"), (2, "reused"), (2, "trivial"), (2, "proper"),
            (3, "reused"), (3, "trivial"), (3, "proper")} <= seen, seen
