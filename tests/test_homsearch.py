"""Homomorphism counting: engines, pins, markers, invariance, the compiled
evaluator, its straight-line programs, levels solved by deduction and
concurrent searches."""

import random
import threading
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from knotgroups import homsearch, permgroups
from knotgroups.errors import (
    BudgetExceededError,
    GroupTooLargeError,
    NotAMemberError,
    UnknownGeneratorError,
    UnknownMarkerError,
)
from knotgroups.homsearch import (
    _centralizer_generators,
    _compile,
    _deduction,
    _schedule,
    count_homs,
    evaluate,
    meridian_invariant,
    meridian_search,
)
from knotgroups.permgroups import (
    TABLE_MAX_ORDER,
    alternating_group,
    are_conjugate,
    group_from_spec,
    parse_permutation,
    symmetric_group,
)
from knotgroups.presentations import Presentation, _Parser, parse, parse_word, rbg_family
from knotgroups.words import Word
from test_presentations import assert_runs

S3 = symmetric_group(3)
S4 = symmetric_group(4)
A4 = alternating_group(4)
A5 = alternating_group(5)
A6 = alternating_group(6)
S7 = symmetric_group(7)
# the dihedral group of order 8, whose center is {(), (1,3)(2,4)}
D4 = group_from_spec("gen:4:[(1,2,3,4),(1,3)]")
PSL27 = group_from_spec("gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]")

SIGMA = parse_permutation("(1,5,4,3,2)", 5)
F1 = rbg_family(1)

def is_homomorphism(presentation, group, assignment):
    """Whether the assignment takes every relator to the identity."""
    identity = group.identity
    return all(rel.evaluate(assignment, group) == identity for rel in presentation.relators)


EXPLICIT_HOM = {
    "x": parse_permutation("(1,5,4,3,2)", 5),
    "y": parse_permutation("(1,2,4,5,3)", 5),
    "a": parse_permutation("(2,4,5)", 5),
}


class TestIsHomomorphism:
    def test_explicit_assignment(self):
        for m in (1, 61):
            assert is_homomorphism(rbg_family(m), A5, EXPLICIT_HOM)

    def test_trivial_assignment(self):
        ident = A5.identity
        assert is_homomorphism(F1, A5, {"x": ident, "y": ident, "a": ident})

    def test_order_obstruction(self):
        # x -> 3-cycle cannot satisfy x^2 = 1
        pres = parse("< x | x^2 >")
        assert not is_homomorphism(pres, A4, {"x": parse_permutation("(1,2,3)", 4)})

    def test_inverse_images_fail_under_this_convention(self):
        # the convention matters for individual assignments: replacing all
        # images by their inverses evaluates words in the opposite order,
        # and this particular assignment stops being a homomorphism
        flipped = {g: ~p for g, p in EXPLICIT_HOM.items()}
        assert not is_homomorphism(F1, A5, flipped)


class TestCountHoms:
    def test_pinned_counts_into_a5(self):
        assert count_homs(F1, A5, {"x": SIGMA}).count == 6
        assert count_homs(F1, A5, {"a": SIGMA}).count == 1

    def test_free_rank_one_pin_determines(self):
        pres = parse("< x | >")
        assert count_homs(pres, A5, {"x": SIGMA}).count == 1

    def test_involution_images_in_s3(self):
        # brute-force oracle: number of p in S3 with p*p = identity
        oracle = sum(1 for p in S3.elements if p * p == S3.identity)
        assert oracle == 4
        pres = parse("< x | x^2 >")
        assert count_homs(pres, S3).count == oracle
        assert count_homs(pres, S3, mode="naive").count == oracle

    def test_free_group_counts_whole_group(self):
        pres = parse("< x | >")
        assert count_homs(pres, S3).count == 6
        assert count_homs(parse("< x,y | >"), S3).count == 36

    def test_unknown_pin_generator(self):
        with pytest.raises(UnknownGeneratorError):
            count_homs(F1, A5, {"q": SIGMA})

    def test_pin_must_be_member(self):
        with pytest.raises(NotAMemberError):
            count_homs(F1, A5, {"x": parse_permutation("(1,2)", 5)})

    def test_naive_cap(self, monkeypatch):
        # the naive walk charges one node per assignment, so the node budget
        # refuses it up front, as a GroupTooLargeError, before any node
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 1000)
        with pytest.raises(GroupTooLargeError, match="60\\^3 exceeds cap 1000$"):
            count_homs(F1, A5, mode="naive")
        # two unpinned generators: 60^2 = 3600 assignments, cap inclusive
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 3599)
        with pytest.raises(GroupTooLargeError, match="60\\^2 exceeds cap 3599$"):
            count_homs(F1, A5, {"x": SIGMA}, mode="naive")
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 3600)
        result = count_homs(F1, A5, {"x": SIGMA}, mode="naive")
        assert (result.count, result.stats.nodes) == (6, 3600)

    def test_naive_cap_at_the_default_budget(self):
        # 60^3 = 216,000 assignments are walked, 60^4 = 1.3 * 10^7 refused
        result = count_homs(parse("< x, y, z | >"), A5, mode="naive")
        assert (result.count, result.stats.nodes) == (60 ** 3, 60 ** 3)
        with pytest.raises(GroupTooLargeError):
            count_homs(parse("< x, y, z, w | >"), A5, mode="naive")

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 50)
        with pytest.raises(BudgetExceededError):
            count_homs(F1, A5)

    @pytest.mark.parametrize("mode", ["naive", "backtrack"])
    def test_listing_limit_is_exact(self, monkeypatch, mode):
        # 6 homomorphisms, which backtrack finds as orbits of the
        # centralizer of SIGMA and expands before it counts them
        monkeypatch.setattr(homsearch, "MAX_LISTED_HOMS", 6)
        result = count_homs(F1, A5, {"x": SIGMA}, mode=mode, materialize=True)
        assert len(result.assignments) == 6
        monkeypatch.setattr(homsearch, "MAX_LISTED_HOMS", 5)
        with pytest.raises(BudgetExceededError,
                           match="listing exceeded the limit of 5 homomorphisms"):
            count_homs(F1, A5, {"x": SIGMA}, mode=mode, materialize=True)
        # a count holds no listing
        assert count_homs(F1, A5, {"x": SIGMA}, mode=mode).count == 6

    def test_all_pinned_gives_one(self):
        assert count_homs(F1, A5, dict(EXPLICIT_HOM)).count == 1

    @pytest.mark.parametrize("mode", ["naive", "backtrack"])
    def test_walks_with_no_unpinned_level(self, mode):
        # (count, nodes, relator checks): naive spends one node per complete
        # assignment, backtrack one per value of an unpinned level
        naive = mode == "naive"
        # a counting backtrack walks no level of < x, y | >: both are free
        free = count_homs(parse("< x, y | >"), A5, mode=mode)
        assert (free.count, free.stats.nodes, free.stats.relator_checks) == (
            3600, 3600 if naive else 0, 0)
        # every generator pinned: one assignment, both relators checked
        pinned = count_homs(F1, A5, dict(EXPLICIT_HOM), mode=mode, materialize=True)
        assert pinned.assignments == [EXPLICIT_HOM]
        assert (pinned.count, pinned.stats.nodes, pinned.stats.relator_checks) == (
            1, 1 if naive else 0, 2)
        failing = count_homs(F1, A5, dict(EXPLICIT_HOM, a=SIGMA), mode=mode)
        assert (failing.count, failing.stats.nodes, failing.stats.relator_checks) == (
            0, 1 if naive else 0, 2)
        # no generator at all: the empty assignment is the one homomorphism
        empty = count_homs(Presentation(()), A5, mode=mode, materialize=True)
        assert (empty.count, empty.assignments, empty.stats.nodes) == (
            1, [{}], 1 if naive else 0)

    def test_materialized_assignments_satisfy_everything(self):
        result = count_homs(F1, A5, {"x": SIGMA}, materialize=True)
        assert result.count == 6 == len(result.assignments)
        for assignment in result.assignments:
            assert assignment["x"] == SIGMA
            assert is_homomorphism(F1, A5, assignment)

    def test_listing_is_index_tuples(self):
        # the leaves are the listing; assignments are built from them when read
        result = count_homs(F1, A5, materialize=True)
        assert (result.group, result.generators) == (A5, F1.generators)
        assert result.count == len(result.leaves) == len(set(result.leaves))
        assert result.leaves == sorted(result.leaves)
        assert "assignments" not in vars(result)
        assert result.assignments == [
            {g: A5.elements[i] for g, i in zip(F1.generators, leaf)}
            for leaf in result.leaves
        ]
        assert result.assignments is result.assignments
        # one Permutation per element the listing uses, shared by its rows
        images = [p for assignment in result.assignments for p in assignment.values()]
        assert len(set(map(id, images))) == len(set(images)) < len(images)
        counted = count_homs(F1, A5)
        assert (counted.leaves, counted.assignments) == (None, None)

    def test_stats_populated(self):
        result = count_homs(F1, A5, {"x": SIGMA})
        assert result.stats.nodes > 0
        assert result.stats.relator_checks > 0

    def test_naive_matches_backtrack_on_family(self):
        for pins in ({}, {"x": SIGMA}, {"a": SIGMA}, {"x": SIGMA, "a": SIGMA}):
            naive = count_homs(F1, A5, pins, mode="naive").count
            back = count_homs(F1, A5, pins, mode="backtrack").count
            assert naive == back


class TestModeParityRandomized:
    def test_fifty_random_presentations_into_s4(self):
        rng = random.Random(424242)
        gens = ("u", "v")
        for _ in range(50):
            relators = [
                Word(
                    [
                        (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                        for _ in range(rng.randint(1, 5))
                    ]
                )
                for _ in range(2)
            ]
            pres = Presentation(gens, relators)
            pin = {rng.choice(gens): rng.choice(S4.elements)}
            naive = count_homs(pres, S4, pin, mode="naive").count
            back = count_homs(pres, S4, pin, mode="backtrack").count
            assert naive == back


class TestMeridianInvariant:
    def test_family_counts(self):
        assert meridian_invariant(F1, "meridian_B", A5, SIGMA) == 6
        assert meridian_invariant(F1, "meridian_G", A5, SIGMA) == 1

    def test_free_group_marker(self):
        pres = parse("< x | >\nmeridian mu: x\n")
        assert meridian_invariant(pres, "mu", A5, A5.identity) == 1
        assert meridian_invariant(pres, "mu", A5, SIGMA) == 1

    def test_unknown_marker(self):
        with pytest.raises(UnknownMarkerError):
            meridian_invariant(F1, "nope", A5, SIGMA)

    def test_sigma_membership(self):
        with pytest.raises(NotAMemberError):
            meridian_invariant(F1, "meridian_B", A5, parse_permutation("(1,2)", 5))

    def test_inverse_generator_marker_pins(self):
        pres = parse("< x | >\nmeridian mu: x^-1\n")
        result = meridian_search(pres, "mu", A5, SIGMA, materialize=True)
        assert result.count == 1
        assert result.assignments[0]["x"] == ~SIGMA

    def test_word_marker_post_filter(self):
        # marker x^-1*a*x pins no generator of the presentation; it becomes
        # a relator x^-1*a*x*c^-1 on a new generator c pinned to the target.
        # Counts agree with the conjugation-invariance identity below by
        # construction.
        pres = parse(
            "< x,a | >\nmeridian mu: x^-1*a*x\n"
        )
        direct = meridian_invariant(pres, "mu", A4, parse_permutation("(1,2,3)", 4))
        # oracle: brute force over all |A4|^2 assignments
        target = parse_permutation("(1,2,3)", 4)
        word = parse_word("x^-1*a*x", ("x", "a"))
        oracle = sum(
            1
            for px, pa in product(A4.elements, repeat=2)
            if word.evaluate({"x": px, "a": pa}, A4) == target
        )
        assert direct == oracle == 12

    def test_conjugation_invariance(self):
        # counting against marker g h g^-1 and target tau sigma tau^-1
        # equals counting against (h, sigma)
        rng = random.Random(77)
        base = meridian_invariant(F1, "meridian_B", A5, SIGMA)
        for _ in range(4):
            conj = Word(
                [
                    (rng.choice(("x", "y", "a")), rng.choice((-1, 1)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            tau = rng.choice(A5.elements)
            twisted = Presentation(
                F1.generators,
                F1.relators,
                {"mu": conj * Word.generator("x") * ~conj},
            )
            count = meridian_invariant(twisted, "mu", A5, tau * SIGMA * ~tau)
            assert count == base

    def test_conjugation_invariance_random_two_generator(self):
        rng = random.Random(78)
        gens = ("u", "v")
        for _ in range(6):
            relators = [
                Word(
                    [
                        (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                        for _ in range(rng.randint(1, 4))
                    ]
                )
                for _ in range(2)
            ]
            sigma = rng.choice(S4.elements)
            tau = rng.choice(S4.elements)
            conj = Word(
                [(rng.choice(gens), rng.choice((-1, 1))) for _ in range(2)]
            )
            plain = Presentation(gens, relators, {"mu": Word.generator("u")})
            twisted = Presentation(
                gens, relators, {"mu": conj * Word.generator("u") * ~conj}
            )
            lhs = meridian_invariant(plain, "mu", S4, sigma)
            rhs = meridian_invariant(twisted, "mu", S4, tau * sigma * ~tau)
            assert lhs == rhs

    def test_partition_identity(self):
        total = count_homs(F1, A4).count
        assert total == sum(
            meridian_invariant(F1, "meridian_B", A4, sigma) for sigma in A4.elements
        )
        assert total == sum(
            meridian_invariant(F1, "meridian_G", A4, sigma) for sigma in A4.elements
        )


def images_conjugate(assignment, word1, word2):
    """Whether the assignment maps two words to conjugate elements of A5."""
    return are_conjugate(word1.evaluate(assignment, A5), word2.evaluate(assignment, A5), A5)


class TestImagesConjugate:
    def test_explicit_hom_images_not_conjugate(self):
        assert is_homomorphism(F1, A5, EXPLICIT_HOM)
        assert not images_conjugate(EXPLICIT_HOM, Word.generator("x"), Word.generator("a"))

    def test_same_word(self):
        assert images_conjugate(EXPLICIT_HOM, Word.generator("x"), Word.generator("x"))

    def test_trivial_assignment(self):
        ident = A5.identity
        trivial = {"x": ident, "y": ident, "a": ident}
        assert images_conjugate(trivial, Word.generator("x"), Word.generator("a"))


class TestParallelism:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_node_budget_is_global(self, threads, monkeypatch):
        # the all-homs search of F1 into A5 visits 459 nodes: x walks the 5
        # conjugacy classes of A5, y one value per orbit of C(x) (the 5
        # classes for x = 1, then 22, 18, 16 and 16 orbits), 77 values, and
        # of the 10 (x, y) that pass the first relator, the 5 with y = x
        # give a the orbits of C(x) again, 77 values, and the other 5 a
        # trivial stabilizer, all 60 values each; searches run side by side
        # on several threads share no count, so each is accepted at a limit
        # of 459 and refused at half of it
        def side_by_side():
            barrier = threading.Barrier(threads)
            outcomes = [None] * threads

            def search(slot):
                barrier.wait()
                try:
                    outcomes[slot] = count_homs(F1, A5).stats.nodes
                except BudgetExceededError:
                    outcomes[slot] = "refused"

            workers = [threading.Thread(target=search, args=(slot,))
                       for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            return outcomes

        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 459)
        assert side_by_side() == [459] * threads
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 459 // 2)
        assert side_by_side() == ["refused"] * threads


class TestDeepSearch:
    def test_long_generator_chain(self):
        # <x0..x1199 | x_i x_{i+1}^-1>: all generators equal, so one
        # homomorphism per element; 1200 levels exceed the interpreter's
        # default recursion limit of 1000
        gens = [f"x{i}" for i in range(1200)]
        relators = [Word(((gens[i], 1), (gens[i + 1], -1)))
                    for i in range(len(gens) - 1)]
        assert count_homs(Presentation(gens, relators), A5).count == 60


def _random_word(rng, gens, length, max_exp=3):
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    return Word([(rng.choice(gens), rng.choice(exps)) for _ in range(length)])


# The longest block of the run rule (``words.find_runs``)
LONGEST_BLOCK = 8


def _planted_word(rng, gens, pieces, repeats=200):
    """A word of random syllables and planted runs: blocks of 1 to
    LONGEST_BLOCK + 1 syllables repeated 2 to ``repeats`` times, abutting, some
    of them the inverse of the block before (after one syllable, so that
    they do not cancel), some breaking off inside a copy so that the next
    run starts within the last one."""
    raw = []
    block = [(gens[0], 1)]
    for _ in range(pieces):
        kind = rng.randrange(4)
        if kind == 0:
            raw += _random_word(rng, gens, rng.randint(0, 5)).syllables
            continue
        if kind == 1:
            raw.append((rng.choice(gens), 5))
            block = [(g, -e) for g, e in reversed(block)]
        else:
            block = [(rng.choice(gens), rng.choice((-70, -3, -2, -1, 1, 2, 3, 61)))
                     for _ in range(rng.randint(1, LONGEST_BLOCK + 1))]
        raw += block * rng.randint(2, repeats)
        if kind == 3:
            raw += block[:rng.randrange(len(block))]
    return Word(raw)


def compile_word(word, presentation, group):
    """The flat program of ``word``, one step per syllable, the oracle of
    the straight-line one; slots are generator positions in
    ``presentation``."""
    return tuple((presentation.generators.index(g), group.powers(e))
                 for g, e in word.syllables)


def _spaced(word, rng):
    """The text of ``word`` with random spaces around its pieces and
    around the whole word."""
    pieces = str(word).split("*")
    return rng.choice(("", " ", "   ")) + "*".join(
        rng.choice(("", " ")) + piece + rng.choice(("", " ")) for piece in pieces
    ) + rng.choice(("", " ", "\n "))


def _words_of_every_producer(rng, gens, planted):
    """Words from every producer: ``Word(...)``, ``*``, ``**``, ``~``,
    both readers on the text of each with random spacing, ``rbg_family``,
    the halves of ``_deduction`` and the marker relator w*c^-1."""
    words = list(planted)
    for u, v in zip(planted, planted[1:] + planted[:1]):
        words += [u * v, u ** rng.choice((-3, -2, 2, 3)), ~u]
    for word in list(words):
        if word:
            text = f"< {', '.join(gens)} | {_spaced(word, rng)} >"
            words += [parse(text).relators[0], _Parser(text).parse_presentation().relators[0]]
    for m in (1, 2, 5):
        family = rbg_family(m)
        words += list(family.relators) + list(family.markers.values())
    for word in list(words):
        for g in word.generators():
            words += _deduction(word, g, frozenset(gens) - {g}) or ()
        words.append(word * ~Word.generator("c"))
    return words


def _scheduled_value(levels, at, values, columns):
    """The value of the first check of a ``_schedule``, at level ``at``,
    the lines before it run level by level in the walk's order."""
    for programs in levels[:at + 1]:
        for target, steps in programs:
            value = evaluate(steps, values, columns)
            if not target:
                return value
            values[target] = value


class TestCompiledEvaluator:
    """The compiled programs against ``Word.evaluate``, the oracle, and the
    straight-line programs that the search runs against the flat ones
    (``evaluate``)."""

    GENS = ("u", "v", "w")

    @pytest.mark.parametrize("group", [S4, A5, S7], ids=["S4", "A5", "S7"])
    def test_random_words_and_assignments(self, group):
        rng = random.Random(2024 + group.order)
        pres = Presentation(self.GENS)
        for _ in range(40):
            word = _random_word(rng, self.GENS, rng.randint(0, 12),
                                max_exp=rng.choice((3, 70)))
            program = compile_word(word, pres, group)
            values = [rng.randrange(group.order) for _ in self.GENS]
            images = {g: group.elements[i] for g, i in zip(self.GENS, values)}
            got = evaluate(program, values, group.columns)
            assert group.elements[got] == word.evaluate(images, group)

    # S4 and A5 store byte columns, A6 two-byte columns; S7 has no table
    @pytest.mark.parametrize("group", [S4, A5, A6, S7], ids=["S4", "A5", "A6", "S7"])
    def test_planted_runs_against_both_oracles(self, group):
        # planted runs, and the words that every producer makes of shorter
        # ones, carry runs that expand to their syllables, and their
        # programs evaluate as one step per syllable does
        rng = random.Random(16 + group.order)
        planted = [_planted_word(rng, self.GENS, rng.randint(1, 6))
                   for _ in range(12 if group is S7 else 30)]
        short = [_planted_word(rng, self.GENS, rng.randint(1, 3), repeats=12)
                 for _ in range(4)]
        gens = self.GENS + ("x", "y", "a", "c")
        pres = Presentation(gens)
        slots = {g: i for i, g in enumerate(gens)}
        temporaries = 0
        for word in planted + _words_of_every_producer(rng, gens[:-1], short):
            assert_runs(word)
            lines, steps = program = _compile(word, slots, group, len(gens))
            temporaries += len(lines)
            flat = compile_word(word, pres, group)
            assert len(steps) + sum(len(line) for _, line in lines) <= len(flat)
            # checked at the level of its last generator, as the walk does
            at = max(map(slots.__getitem__, word.generators()), default=0)
            checks = [[program] if level == at else [] for level in range(len(gens))]
            levels, _, size = _schedule(checks, [None] * len(gens), group.powers(1))
            for _ in range(3):
                values = [rng.randrange(group.order) for _ in gens]
                images = {g: group.elements[i] for g, i in zip(gens, values)}
                values += [0] * (size - len(gens))
                got = _scheduled_value(levels, at, values, group.columns)
                assert got == evaluate(flat, values, group.columns)
                assert group.elements[got] == word.evaluate(images, group)
        assert temporaries > 0

    def test_family_relator_is_six_lookups(self):
        # (yx)^m y (yx)^-m x^-1: u = y*x, then u^m, y, u^-m, x^-1; from
        # m = 2 on, where its runs first repeat, it is not flat.  So it is
        # parsed, with or without whitespace around its words, and built.
        slots = {"x": 0, "y": 1, "a": 2}
        for m in (2, 3, 28, 29, 181):
            family = rbg_family(m)
            long, short = map(str, family.relators)
            texts = [f"<x,y,a|{long},{short}>", f"< x, y, a |   {long} ,  {short}   >",
                     family.render()]
            relators = [family.relators[0]] + [parse(text).relators[0] for text in texts]
            programs = [_compile(relator, slots, A5, 3) for relator in relators]
            assert all(relator.runs == family.relators[0].runs for relator in relators)
            lines, steps = programs[0]
            assert programs == [programs[0]] * len(programs)
            assert lines == ((3, ((1, A5.powers(1)), (0, A5.powers(1)))),)
            assert steps == ((3, A5.powers(m)), (1, A5.powers(1)),
                             (3, A5.powers(-m)), (0, A5.powers(-1)))
            assert len(compile_word(family.relators[0], family, A5)) == 4 * m + 2

    def test_each_temporary_is_charged(self):
        # three runs of distinct two-syllable blocks: each is a temporary of
        # two lookups read in one, so k copies cost 3 lookups, not 2k
        slots = {g: i for i, g in enumerate(self.GENS)}
        pres = Presentation(self.GENS)
        for k in (2, 3, 4):
            word = parse_word(f"(u*v)^{k}*(w*u)^{k}*(v*w)^{k}", self.GENS)
            lines, steps = _compile(word, slots, A5, 3)
            assert [slot for slot, _ in lines] == [3, 4, 5]
            assert steps == tuple((slot, A5.powers(k)) for slot in (3, 4, 5))
            assert len(compile_word(word, pres, A5)) == 6 * k

    def test_run_free_relator_is_its_flat_program(self):
        # the second family relator holds no run
        relator = F1.relators[1]
        program = _compile(relator, {"x": 0, "y": 1, "a": 2}, A5, 3)
        assert program == ((), compile_word(relator, F1, A5))

    @pytest.mark.parametrize("mode", ["naive", "backtrack"])
    def test_pinned_search_above_table_limit(self, mode):
        # S7 has no product table: a small pinned search multiplies on the
        # fly, and must match a brute-force count with Word.evaluate
        assert A5.order <= TABLE_MAX_ORDER < S7.order
        # (2,3,7) triangle relations, which PSL(2,7) < S7 satisfies
        pres = parse("< x,y | x^2, y^3, (x*y)^7 >")
        x = parse_permutation("(1,2)(3,4)", 7)
        oracle = sum(
            1 for py in S7.elements
            if is_homomorphism(pres, S7, {"x": x, "y": py})
        )
        assert oracle > 0
        assert count_homs(pres, S7, {"x": x}, mode=mode).count == oracle

    def test_orbits_above_table_limit_read_no_column(self, monkeypatch):
        # above TABLE_MAX_ORDER the conjugation tables are composed from
        # keys, so the orbit pass of < x | x^2 > into S8 makes no column
        S8 = symmetric_group(8)
        assert S8.order > TABLE_MAX_ORDER
        made, passes = [], []
        column = permgroups._Products.__getitem__
        monkeypatch.setattr(permgroups._Products, "__getitem__",
                            lambda self, b: made.append(b) or column(self, b))
        orbits = homsearch._conjugation_orbits

        def orbit_pass(*args):
            before = len(made)
            result = orbits(*args)
            passes.append(len(made) - before)
            return result

        monkeypatch.setattr(homsearch, "_conjugation_orbits", orbit_pass)
        pres = parse("< x | x^2 >")
        assert count_homs(pres, S8).count == 764
        assert passes == [0]
        # the listing expands each orbit through the same tables, on tuple
        # keys of one point each, since S8 has more than 256 elements
        listed = count_homs(pres, S8, materialize=True)
        assert listed.leaves == [(i,) for i, p in enumerate(S8.elements)
                                 if (p * p).is_identity]
        assert len(listed.leaves) == 764

    @pytest.mark.parametrize("degree,count", [(5, 960), (6, 13680)])
    def test_each_conjugation_table_made_once(self, monkeypatch, degree, count):
        # family m = 1 into S5 and S6: within one search no element's
        # conjugation table is made twice, and a centralizer inside H
        # conjugates H's members alone
        group = symmetric_group(degree)
        passes = []
        conjugate = permgroups.FiniteGroup._conjugate
        monkeypatch.setattr(permgroups.FiniteGroup, "_conjugate",
                            lambda self, s, xs: passes.append((s, len(xs)))
                            or conjugate(self, s, xs))
        assert count_homs(rbg_family(1), group).count == count
        tables = [s for s, size in passes if size == group.order]
        assert len(tables) == len(set(tables)) > 0
        assert any(size < group.order for _, size in passes)

    def test_word_marker_above_table_limit(self):
        # the marker x*y as meridian_search builds it: a relator x*y*c^-1
        # on a new generator c pinned to sigma
        pres = parse("< x,y,c | x^2, x*y*c^-1 >")
        x = parse_permutation("(1,2)", 7)
        sigma = parse_permutation("(1,2,3,4,5,6,7)", 7)
        result = count_homs(pres, S7, {"x": x, "c": sigma}, materialize=True)
        assert result.count == 1
        assert result.assignments[0]["y"] == x * sigma

    def test_word_marker_matches_oracle_in_table_groups(self):
        rng = random.Random(31)
        for group in (S4, A5):
            for _ in range(3):
                marker = _random_word(rng, ("x", "y", "a"), 4)
                if len(marker.syllables) < 2:
                    continue
                pres = Presentation(F1.generators, F1.relators, {"mu": marker})
                sigma = rng.choice(group.elements)
                homs = count_homs(pres, group, materialize=True).assignments
                oracle = sum(1 for h in homs if marker.evaluate(h, group) == sigma)
                for mode in ("naive", "backtrack"):
                    assert meridian_invariant(pres, "mu", group, sigma,
                                              mode=mode) == oracle


class TestLongRelators:
    """Family members m = 121 and 181, whose first relator is two runs of
    hundreds of syllables, through both engines."""

    @pytest.mark.parametrize("m", [121, 181])
    def test_counts_and_listings_agree(self, m):
        family = rbg_family(m)
        for marker, count in (("meridian_B", 6), ("meridian_G", 1)):
            naive, back = (meridian_search(family, marker, A5, SIGMA, mode=mode,
                                           materialize=True)
                           for mode in ("naive", "backtrack"))
            assert naive.count == back.count == count
            assert naive.assignments == back.assignments
            word = family.markers[marker]
            for hom in back.assignments:
                assert is_homomorphism(family, A5, hom)
                assert word.evaluate(hom, A5) == SIGMA

    def test_counters_at_m_181(self):
        # meridian_B pins x to SIGMA: y walks the 16 orbits of <SIGMA> and 2
        # pass the first relator; a walks all 60 values for the one whose
        # orbit has 5 points, and the 16 orbits again for y = SIGMA, whose
        # stabilizer is all of <SIGMA>: 16 + 60 + 16 nodes, one relator
        # check on each.  meridian_G pins a to SIGMA, whose centralizer <SIGMA> splits A5
        # into (60 + 4 * 5) / 5 = 16 orbits for x.  y is solved from
        # x^-1 a x a^-1 x^-1 * y a y^-1: a table of the 60 values of y a y^-1
        # (60 nodes), then for each of the 16 x one check reading its y
        # values, 5 (|C(a)|) for each of the 2 x whose x^-1 a x a^-1 x^-1
        # is conjugate to a^-1, and one check of the first relator on each:
        # 60 + 16 + 10 nodes and 16 + 10 relator checks
        family = rbg_family(181)
        expected = {
            ("meridian_B", "backtrack"): (6, 92, 92),
            ("meridian_G", "backtrack"): (1, 86, 26),
            ("meridian_B", "naive"): (6, 3600, 3960),
            ("meridian_G", "naive"): (1, 3600, 3960),
        }
        for (marker, mode), want in expected.items():
            result = meridian_search(family, marker, A5, SIGMA, mode=mode)
            got = (result.count, result.stats.nodes, result.stats.relator_checks)
            assert got == want, (marker, mode)


class TestPinnedFirst:
    """Pinned generators are walked first; markers that are words become a
    relator on a new pinned generator."""

    @pytest.mark.parametrize("mode", ["naive", "backtrack"])
    def test_failing_pinned_relator_walks_nothing(self, mode):
        # x^2 on the pinned x alone fails at the pinned level
        pres = parse("< y, x | x^2, y*x*y^-1*x^-1 >")
        result = count_homs(pres, A5, {"x": SIGMA}, mode=mode, materialize=True)
        assert (result.count, result.assignments) == (0, [])
        if mode == "backtrack":
            assert result.stats.nodes == 0

    @pytest.mark.parametrize("mode", ["naive", "backtrack"])
    def test_word_marker_beside_generators_named_c(self, mode):
        # the marker's new generator must not take the name c or c'
        pres = parse("< c, c', x | c*x*c^-1*x^-1, c'^2 >\nmeridian w: c*c'\n")
        sigma = parse_permutation("(1,2,3)", 4)
        # every assignment, in the listing order (index tuples in
        # declaration order), checked with Word.evaluate
        oracle = [h for h in (dict(zip(pres.generators, values))
                              for values in product(S4.elements, repeat=3))
                  if is_homomorphism(pres, S4, h)
                  and pres.markers["w"].evaluate(h, S4) == sigma]
        listed = meridian_search(pres, "w", S4, sigma, mode=mode, materialize=True)
        counted = meridian_search(pres, "w", S4, sigma, mode=mode)
        assert counted.count == listed.count == len(oracle) > 0
        assert listed.assignments == oracle
        assert {tuple(h) for h in listed.assignments} == {pres.generators}
        # the marker's generator is dropped from the leaves too
        assert listed.generators == pres.generators
        assert {len(leaf) for leaf in listed.leaves} == {len(pres.generators)}


class TestAssignmentOrder:
    def test_counts_independent_of_generator_order(self):
        # the same group presented with generators declared in a different
        # order has the same homomorphism counts
        reordered = Presentation(("a", "y", "x"), F1.relators, F1.markers)
        assert count_homs(reordered, A4).count == count_homs(F1, A4).count
        sigma = parse_permutation("(1,2,3)", 4)
        for mode in ("naive", "backtrack"):
            assert (
                count_homs(reordered, A4, {"x": sigma}, mode=mode).count
                == count_homs(F1, A4, {"x": sigma}, mode=mode).count
            )


class TestPeriodicity:
    def test_small_period_s3(self):
        # counts repeat when the family parameter shifts by the group order
        sigma = parse_permutation("(1,2,3)", 3)
        for gen in ("x", "y", "a"):
            base = count_homs(rbg_family(1), S3, {gen: sigma}).count
            shifted = count_homs(rbg_family(7), S3, {gen: sigma}).count
            assert base == shifted


class TestOrbitWeightedSearch:
    """Backtrack walks one value per conjugation orbit for the first unpinned
    generator and leaves free generators out; ``naive`` walks everything.
    Counts and listings, in order, must agree."""

    GROUPS = [(S3, 3), (S4, 3), (A4, 3), (A5, 2), (D4, 3)]
    IDS = ["S3", "S4", "A4", "A5", "D4"]

    @staticmethod
    def assert_matches_naive(search):
        """``search(mode, materialize)`` runs one engine; returns the count."""
        naive = search("naive", True)
        listed = search("backtrack", True)
        counted = search("backtrack", False)
        assert counted.count == listed.count == naive.count == len(naive.assignments)
        assert listed.assignments == naive.assignments
        return naive.count

    @staticmethod
    def random_presentation(rng, rank, free=0, markers=None):
        """``rank`` generators in shuffled relators, then ``free`` more in
        none, declared in a random order."""
        bound = [f"g{i}" for i in range(rank)]
        names = bound + [f"f{i}" for i in range(free)]
        rng.shuffle(names)
        relators = [_random_word(rng, bound, rng.randint(1, 5), max_exp=2)
                    for _ in range(rng.randint(1, 2))]
        return Presentation(names, relators, markers)

    def check(self, pres, group, pins):
        return self.assert_matches_naive(
            lambda mode, listing: count_homs(pres, group, pins, mode=mode,
                                             materialize=listing))

    @pytest.mark.parametrize("pinned", [0, 1, 2])
    @pytest.mark.parametrize("group,rank", GROUPS, ids=IDS)
    def test_random_pins(self, group, rank, pinned):
        rng = random.Random(100 * pinned + group.order)
        for _ in range(10):
            pres = self.random_presentation(rng, rank + pinned // 2)
            pins = {g: rng.choice(group.elements)
                    for g in rng.sample(pres.generators, pinned)}
            self.check(pres, group, pins)

    @pytest.mark.parametrize("group,literals", [
        (S3, ("(1,2)", "(1,2,3)")),
        (S4, ("(1,2)", "(1,2,3,4)")),
        (A4, ("(1,2)(3,4)", "(1,2,3)")),
        (A5, ("(1,2,3)", "(1,2,3,4,5)")),
    ], ids=IDS[:4])
    def test_pins_with_trivial_centralizer(self, group, literals):
        values = [parse_permutation(text, group.degree) for text in literals]
        # no generator, and the identity alone as member
        assert _centralizer_generators(group, [group.index_of(v) for v in values]) == ([], [0])
        rng = random.Random(400 + group.order)
        for _ in range(10):
            pres = self.random_presentation(rng, 3)
            pinned = rng.sample(pres.generators, 2)
            self.check(pres, group, dict(zip(pinned, values)))

    @pytest.mark.parametrize("group,central", [
        (S4, "()"), (A5, "()"), (D4, "()"), (D4, "(1,3)(2,4)"),
    ])
    def test_identity_and_central_pins(self, group, central):
        # the centralizer of a central pin is the whole group, which then
        # acts through its own generators
        value = parse_permutation(central, group.degree)
        assert (_centralizer_generators(group, [group.index_of(value)])
                == ([group.index_of(s) for s in group.generators], list(range(group.order))))
        rng = random.Random(500 + group.order)
        for _ in range(10):
            pres = self.random_presentation(rng, 3 if group.order < 60 else 2)
            self.check(pres, group, {rng.choice(pres.generators): value})

    @pytest.mark.parametrize("group,rank", GROUPS, ids=IDS)
    def test_word_markers(self, group, rank):
        rng = random.Random(600 + group.order)
        for _ in range(10):
            bound = [f"g{i}" for i in range(rank)]
            marker = _random_word(rng, bound, rng.randint(2, 4), max_exp=2)
            if len(marker.syllables) < 2:
                continue
            pres = self.random_presentation(rng, rank, markers={"mu": marker})
            sigma = rng.choice(group.elements)
            self.assert_matches_naive(
                lambda mode, listing: meridian_search(pres, "mu", group, sigma, mode=mode,
                                                      materialize=listing))

    @pytest.mark.parametrize("group", [S3, A4, D4], ids=["S3", "A4", "D4"])
    def test_free_generators(self, group):
        rng = random.Random(700 + group.order)
        for _ in range(10):
            pres = self.random_presentation(rng, 2, free=2)
            pins = {g: rng.choice(group.elements)
                    for g in rng.sample(pres.generators, rng.randint(0, 2))}
            self.check(pres, group, pins)

    def test_free_generator_factors(self):
        pres = parse("< f0, g0, f1, g1, f2 | g0*g1 >")
        assert count_homs(pres, A5).count == 60 ** 4
        assert count_homs(pres, A5, {"f1": SIGMA}).count == 60 ** 3
        assert count_homs(pres, A5, {"f1": SIGMA, "g1": SIGMA}).count == 60 ** 2
        # the free generators are not walked: g0 in one of A5's 5 classes,
        # then g1 solved from g0*g1, one value for each g0 after a table of
        # its 60 values
        assert count_homs(pres, A5).stats.nodes == 5 + 5 + 60

    def test_psl27_meridian_listing(self):
        # the benchmark's group: x pinned to an element of order 3 whose
        # centralizer has order 3, so y walks 58 orbits instead of 168 values
        sigma = parse_permutation("(2,3,5)(4,7,6)", 7)
        count = self.assert_matches_naive(
            lambda mode, listing: meridian_search(F1, "meridian_B", PSL27, sigma,
                                                  mode=mode, materialize=listing))
        assert count > 0

    def test_psl27_listing(self):
        # the benchmark's listing: x walks the 6 classes of PSL(2,7), y the
        # orbits of C(x), 197 over the 6, and of the 13 (x, y) that pass the
        # first relator, the 6 with y = x give a the orbits of C(x) again,
        # 197 values, and the other 7 a trivial stabilizer, 168 values each
        naive = count_homs(F1, PSL27, mode="naive", materialize=True)
        listed = count_homs(F1, PSL27, materialize=True)
        assert listed.count == naive.count == len(naive.leaves) == 2688
        assert listed.leaves == naive.leaves == sorted(naive.leaves)
        assert listed.stats.nodes == 6 + 197 + 197 + 7 * 168 == 1576


def _wirtinger(n):
    """The Wirtinger presentation of the torus knot T(2, n): relator i is
    x_{i+1} x_i x_{i+1}^-1 x_{i+2}^-1, indices mod n."""
    gens = [f"x{i}" for i in range(1, n + 1)]
    return Presentation(gens, [
        Word(((gens[(i + 1) % n], 1), (gens[i], 1), (gens[(i + 1) % n], -1),
              (gens[(i + 2) % n], -1)))
        for i in range(n)
    ])


def _wirtinger_homs(pres, group):
    """Every homomorphism of ``pres`` = ``_wirtinger(n)`` into ``group``, in
    listing order, without the engines: x1 and x2 take every pair of
    values, the relators x_{i+2} = x_{i+1} x_i x_{i+1}^-1 fix the rest, and
    Word.evaluate checks every relator."""
    homs = []
    for images in map(list, product(group.elements, repeat=2)):
        while len(images) < len(pres.generators):
            images.append(images[-1] * images[-2] * ~images[-1])
        hom = dict(zip(pres.generators, images))
        if is_homomorphism(pres, group, hom):
            homs.append(hom)
    return sorted(homs, key=lambda h: [group.index_of(h[g]) for g in pres.generators])


class TestDeduction:
    """A level after the first unpinned one is solved from a relator whose
    syllables on earlier unpinned generators lie in one cyclic gap between
    occurrences of the level's generator: its values come from a table, not
    a walk.  Counts and listings must still agree with ``naive``."""

    @staticmethod
    def assert_agrees(search, oracle=None, naive=True):
        """``search(mode, materialize)`` runs one engine; the backtrack count
        and listing must equal naive's (when ``naive``) and ``oracle``, a
        list of assignments in listing order (when given)."""
        listed = search("backtrack", True)
        assert search("backtrack", False).count == listed.count == len(listed.assignments)
        if naive:
            assert search("naive", True).assignments == listed.assignments
        if oracle is not None:
            assert listed.assignments == oracle
        return listed.count

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("group", [A5, S4], ids=["A5", "S4"])
    def test_wirtinger_torus_knots(self, group, n):
        pres = _wirtinger(n)
        homs = _wirtinger_homs(pres, group)
        gens = pres.generators
        # every homomorphism: naive would walk |A|^n assignments
        self.assert_agrees(
            lambda mode, listing: count_homs(pres, group, mode=mode, materialize=listing),
            homs, naive=group.order ** n <= 20_000)
        # all but two generators pinned, so that naive walks |A|^2: to the
        # images of a nonabelian homomorphism where there is one (not for
        # T(2,7) into A5, nor T(2,5) and T(2,7) into S4), then to random
        # elements
        rng = random.Random(n * group.order)
        hom = next((h for h in reversed(homs) if h["x1"] * h["x2"] != h["x2"] * h["x1"]),
                   homs[-1])
        loose = {gens[n // 2], gens[(n // 2 + 2) % n]}
        for values in (hom, {g: rng.choice(group.elements) for g in gens}):
            pins = {g: values[g] for g in gens if g not in loose}
            oracle = [h for h in homs if all(h[g] == v for g, v in pins.items())]
            self.assert_agrees(
                lambda mode, listing: count_homs(pres, group, pins, mode=mode,
                                                 materialize=listing),
                oracle, naive=True)
        # a word marker x1 * x3^-1: its relator w * c^-1 on the pinned c is
        # solved too, with and without the other pins
        marker = Word((("x1", 1), ("x3", -1)))
        marked = Presentation(gens, pres.relators, {"w": marker})
        sigma = marker.evaluate(hom, group)
        oracle = [h for h in homs if marker.evaluate(h, group) == sigma]
        self.assert_agrees(
            lambda mode, listing: meridian_search(marked, "w", group, sigma, mode=mode,
                                                  materialize=listing),
            oracle, naive=False)
        # the same relator as meridian_search builds it, beside pins on
        # every generator but x1 and x3
        pins = {g: hom[g] for g in gens if g not in ("x1", "x3")}
        augmented = Presentation(gens + ("c",),
                                 pres.relators + (marker * ~Word.generator("c"),))
        self.assert_agrees(
            lambda mode, listing: count_homs(augmented, group, dict(pins, c=sigma),
                                             mode=mode, materialize=listing))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_wirtinger_nodes(self, n):
        # x1 walks A5's 5 classes and x2 one value per orbit of C(x1), 77
        # in all (5 + 22 + 18 + 16 + 16); each later x_{i+2} is solved from
        # x_{i+1} x_i x_{i+1}^-1 x_{i+2}^-1 after a table of its 60 values
        # (60 nodes), one value for each of the 77 (x1, x2)
        result = count_homs(_wirtinger(n), A5)
        assert result.stats.nodes == 5 + 77 * (n - 1) + 60 * (n - 2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_solved_relators_match_naive(self, data):
        # a relator built as a cyclic conjugate of Q*W: Q on the unpinned a,
        # b and the pinned p, q; W runs through g at exponents +-1 and +-2,
        # with pinned syllables between its occurrences of g, or, when
        # ``spread``, unpinned ones too, which may leave nothing to solve
        draw = data.draw
        group = draw(st.sampled_from([S3, D4, A4]))
        exponent = st.sampled_from([-2, -1, 1, 2])
        syllables = lambda names, lo, hi: st.lists(
            st.tuples(st.sampled_from(names), exponent), min_size=lo, max_size=hi)
        spread = draw(st.booleans())
        q = draw(syllables("abpq", 1, 4))
        w = [("g", draw(exponent))]
        for _ in range(draw(st.integers(0, 2))):
            w += draw(syllables("abpq" if spread else "pq", 0, 2))
            w.append(("g", draw(exponent)))
        cut = draw(st.integers(0, len(q) + len(w) - 1))
        raw = q + w
        relator = Word(raw[cut:] + raw[:cut])
        relators = [relator]
        if draw(st.booleans()):
            relators.append(Word(draw(syllables("ab", 1, 3))))
        pres = Presentation(("a", "b", "g", "p", "q"), relators)
        pins = {"p": draw(st.sampled_from(group.elements)),
                "q": draw(st.sampled_from(group.elements))}
        if "g" in relator.generators() and not spread:
            assert _deduction(relator, "g", frozenset("ab")) is not None
        self.assert_agrees(
            lambda mode, listing: count_homs(pres, group, pins, mode=mode,
                                             materialize=listing))

    def test_tables_are_charged_as_nodes(self, monkeypatch):
        # < x0..x10 | x_i x_{i+1}^-1 >: x0 walks A5's 5 classes and each
        # later level is solved, one value for each x0 after a table of its
        # 60 values: 55 values tried and 600 table entries
        gens = [f"x{i}" for i in range(11)]
        pres = Presentation(gens, [Word(((gens[i], 1), (gens[i + 1], -1)))
                                   for i in range(10)])
        assert count_homs(pres, A5).stats.nodes == 55 + 600
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 655)
        assert count_homs(pres, A5).count == 60
        # refused at one node fewer, and where the 55 values alone pass
        for budget in (654, 100):
            monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", budget)
            with pytest.raises(BudgetExceededError, match=f"node budget {budget}$"):
                count_homs(pres, A5)

    def test_five_generator_product(self):
        # refused at the node budget before levels were solved; now a walks
        # A5's 5 classes, b the 77 orbits of C(a) over the 5, c the 3,675
        # orbits of C(a, b) over the 77 (a, b), d the 216,341 orbits of
        # C(a, b, c), and e is solved from a*b*c*d*e after a table of 60:
        # one value for each (a, b, c, d)
        result = count_homs(parse("< a, b, c, d, e | a*b*c*d*e >"), A5)
        assert result.count == 60 ** 4 == 12_960_000
        assert result.stats.nodes == 5 + 77 + 3_675 + 2 * 216_341 + 60

    @pytest.mark.parametrize("listing", [False, True])
    @pytest.mark.parametrize("case", ["empty", "pinned"])
    def test_inverse_reads_no_unpinned_generator(self, monkeypatch, case, listing):
        # "empty": y is solved from y^3 with Q = 1, a line of no steps; x
        # walks A5's 5 classes, 2 pass x^2 and each reads the 21 cube roots
        # of 1 from a table of 60.  "pinned": g is solved from p*g*p^-1*g
        # with Q^-1 = p^-1; x walks 22 orbits of C(p), 6 pass x^2 and each
        # reads one g.  Either Q^-1 is a line of level 0.
        text, pins, g, inverse, steps, count, nodes, checks = {
            "empty": ("< x, y | x^2, y^3 >", {}, "y", "1", (), 336, 5 + 60 + 2 * 21, 5 + 2),
            "pinned": ("< p, x, g | x^2, p*g*p^-1*g >",
                       {"p": parse_permutation("(1,2,3)", 5)}, "g", "p^-1",
                       ((0, A5.powers(-1)),), 16, 22 + 60 + 6, 22 + 6),
        }[case]
        pres = parse(text)
        assert str(_deduction(pres.relators[-1], g, frozenset("x"))[0]) == inverse
        placed = []

        def schedule(checks, inverses, one):
            levels, slots, size = _schedule(checks, inverses, one)
            placed.extend((level, line) for level, programs in enumerate(levels)
                          for target, line in programs if target in slots)
            return levels, slots, size

        monkeypatch.setattr(homsearch, "_schedule", schedule)
        naive, back = (count_homs(pres, A5, pins, mode=mode, materialize=listing)
                       for mode in ("naive", "backtrack"))
        assert placed == [(0, steps)]
        assert naive.count == back.count == count
        assert naive.leaves == back.leaves
        if listing:
            assert len(back.leaves) == count
        # naive checks x^2 at all 3600 assignments, the second relator at
        # the 960 that pass
        assert (naive.stats.nodes, naive.stats.relator_checks) == (3600, 4560)
        assert (back.stats.nodes, back.stats.relator_checks) == (nodes, checks)

    def test_split_of_the_family_relator(self):
        # the meridian_G pin on a: y is solved from y a y^-1 = (x^-1 a x a^-1 x^-1)^-1
        relator = F1.relators[1]
        inverse_q, w = _deduction(relator, "y", frozenset("x"))
        assert (str(inverse_q), str(w)) == ("x*a*x^-1*a^-1*x", "y*a*y^-1")
        # with x and a both unpinned, the syllables on x and a lie in gaps
        # on both sides of y's occurrences
        assert _deduction(relator, "y", frozenset("xa")) is None
        # meridian_B pins x: a's gaps hold y and y^-1 apart
        assert _deduction(relator, "a", frozenset("y")) is None


class TestScheduledEvaluation:
    """Searches whose checks read temporaries and runs of steps on earlier
    levels, which the walk computes once per value of their last level,
    against an enumeration with ``Word.evaluate``; and the node charge on
    entering a level."""

    @staticmethod
    def _enumeration(relators, gens, group, fixed):
        """(sorted leaves, relator checks) over every assignment of
        ``gens`` extending ``fixed``: a check is one relator evaluated, in
        order, up to the first that is not the identity."""
        ident, leaves, checks = group.identity, [], 0
        free = [g for g in gens if g not in fixed]
        for images in product(group.elements, repeat=len(free)):
            hom = {**fixed, **dict(zip(free, images))}
            for rel in relators:
                checks += 1
                if rel.evaluate(hom, group) != ident:
                    break
            else:
                leaves.append(tuple(group.index_of(hom[g]) for g in gens))
        return sorted(leaves), checks

    @pytest.mark.parametrize("group", [S4, A5], ids=["S4", "A5"])
    def test_planted_presentations(self, group, monkeypatch):
        rng = random.Random(21 + group.order)
        lines = {"own level": 0, "deeper": 0}

        def schedule(checks, inverses, one):
            levels, slots, size = _schedule(checks, inverses, one)
            for programs in levels:
                # a line before a check of its level, or after them all
                targets = [target for target, _ in programs]
                checked = len(targets) - targets[::-1].index(0) if 0 in targets else 0
                lines["own level"] += checked - targets.count(0)
                lines["deeper"] += len(targets) - checked
            return levels, slots, size

        monkeypatch.setattr(homsearch, "_schedule", schedule)
        found = 0
        # the enumeration multiplies permutations: fewer cases into A5
        for _ in range(12 if group is S4 else 4):
            gens = [f"g{i}" for i in range(rng.randint(2, 4))]
            relators = [_planted_word(rng, gens, rng.randint(1, 2), repeats=4)
                        for _ in range(rng.randint(1, 3))]
            pres = Presentation(gens, relators)
            relators = list(pres.relators)  # without the trivial ones
            # at most two unpinned generators, so that the enumeration is small
            pinned = rng.sample(gens, rng.randint(len(gens) - 2, len(gens)))
            pins = {g: rng.choice(group.elements) if rng.random() < 0.5
                    else group.identity for g in pinned}
            searches = [(lambda mode: count_homs(pres, group, pins, mode=mode,
                                                 materialize=True),
                         self._enumeration(relators, gens, group, pins),
                         len(gens) - len(pins))]
            marker = _planted_word(rng, gens, 2, repeats=4)
            if len(gens) == 2 and len(marker.syllables) > 1:
                # a word marker: one more relator on a pinned c, checked last
                sigma = rng.choice((group.identity, rng.choice(group.elements)))
                marked = Presentation(gens, relators, {"w": marker})
                leaves, checks = self._enumeration(
                    relators + [marker * ~Word.generator("c")], gens + ["c"], group,
                    {"c": sigma})
                searches.append((lambda mode: meridian_search(
                    marked, "w", group, sigma, mode=mode, materialize=True),
                    ([leaf[:-1] for leaf in leaves], checks), len(gens)))
            for search, (leaves, checks), unpinned in searches:
                naive, back = search("naive"), search("backtrack")
                assert naive.count == back.count == len(leaves)
                assert naive.leaves == back.leaves == leaves
                assert naive.stats.nodes == group.order ** unpinned
                assert naive.stats.relator_checks == checks
                found += len(leaves)
        assert found > 0
        assert lines["own level"] > 0 and lines["deeper"] > 0

    @pytest.mark.parametrize("mode", ["naive", "backtrack"])
    @pytest.mark.parametrize("case", ["pinned x", "solved y", "all pinned"])
    def test_node_budget_at_exact_count(self, monkeypatch, mode, case):
        # each level's values are charged on entry, so a search answers at a
        # budget of exactly the nodes it counts and is refused one below
        pins = {"pinned x": {"x": SIGMA}, "solved y": {"a": SIGMA},
                "all pinned": dict(EXPLICIT_HOM)}[case]
        result = count_homs(F1, A5, pins, mode=mode)
        nodes = result.stats.nodes
        # naive charges each complete assignment, backtrack each value of an
        # unpinned level; meridian_G's pin on a lets backtrack solve y
        assert nodes == {("pinned x", "naive"): 3600, ("solved y", "naive"): 3600,
                         ("all pinned", "naive"): 1, ("pinned x", "backtrack"): 92,
                         ("solved y", "backtrack"): 86, ("all pinned", "backtrack"): 0,
                         }[case, mode]
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", nodes)
        assert count_homs(F1, A5, pins, mode=mode).count == result.count
        if nodes:
            monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", nodes - 1)
            # naive knows its node count, |A|^unpinned, and refuses up front
            error, limit = ((GroupTooLargeError, "exceeds cap") if mode == "naive"
                            else (BudgetExceededError, "node budget"))
            with pytest.raises(error, match=f"{limit} {nodes - 1}$"):
                count_homs(F1, A5, pins, mode=mode)
