"""Homomorphism counting: engines, pins, markers, invariance, the compiled
evaluator, its straight-line programs and concurrent searches."""

import random
import threading
from itertools import product

import pytest

from knotgroups import homsearch
from knotgroups.errors import (
    BudgetExceededError,
    GroupTooLargeError,
    NotAMemberError,
    UnknownGeneratorError,
    UnknownMarkerError,
)
from knotgroups.homsearch import (
    _MAX_PERIOD,
    _Bound,
    _centralizer_generators,
    _compile,
    compile_word,
    count_homs,
    evaluate,
    images_conjugate,
    is_homomorphism,
    meridian_invariant,
    meridian_search,
)
from knotgroups.permgroups import (
    TABLE_MAX_ORDER,
    alternating_group,
    group_from_spec,
    parse_permutation,
    symmetric_group,
)
from knotgroups.presentations import Presentation, parse, parse_word, rbg_family
from knotgroups.words import Word

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
        monkeypatch.setattr(homsearch, "MAX_NAIVE_ASSIGNMENTS", 1000)
        with pytest.raises(GroupTooLargeError):
            count_homs(F1, A5, mode="naive")
        # two unpinned generators: 60^2 = 3600 assignments, cap inclusive
        monkeypatch.setattr(homsearch, "MAX_NAIVE_ASSIGNMENTS", 3599)
        with pytest.raises(GroupTooLargeError, match="60\\^2 exceeds cap 3599"):
            count_homs(F1, A5, {"x": SIGMA}, mode="naive")
        monkeypatch.setattr(homsearch, "MAX_NAIVE_ASSIGNMENTS", 3600)
        assert count_homs(F1, A5, {"x": SIGMA}, mode="naive").count == 6

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


class TestImagesConjugate:
    def test_explicit_hom_images_not_conjugate(self):
        assert not images_conjugate(
            F1, A5, EXPLICIT_HOM, Word.generator("x"), Word.generator("a")
        )

    def test_same_word(self):
        assert images_conjugate(
            F1, A5, EXPLICIT_HOM, Word.generator("x"), Word.generator("x")
        )

    def test_trivial_assignment(self):
        ident = A5.identity
        trivial = {"x": ident, "y": ident, "a": ident}
        assert images_conjugate(
            F1, A5, trivial, Word.generator("x"), Word.generator("a")
        )


class TestParallelism:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_node_budget_is_global(self, threads, monkeypatch):
        # the all-homs search of F1 into A5 visits 1,805 nodes (x walks the
        # 5 conjugacy classes of A5); searches run side by side on several
        # threads share no count, so each is accepted at a limit of 1,805
        # and refused at half of it
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

        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 1805)
        assert side_by_side() == [1805] * threads
        monkeypatch.setattr(homsearch, "MAX_SEARCH_NODES", 1805 // 2)
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


def _planted_word(rng, gens, pieces):
    """A word of random syllables and planted runs: blocks of 1 to
    _MAX_PERIOD + 1 syllables repeated 2 to 200 times, abutting, some of them
    the inverse of the block before (after one syllable, so that they do not
    cancel), some breaking off inside a copy so that the next run starts
    within the last one."""
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
                     for _ in range(rng.randint(1, _MAX_PERIOD + 1))]
        raw += block * rng.randint(2, 200)
        if kind == 3:
            raw += block[:rng.randrange(len(block))]
    return Word(raw)


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

    # A5 stores byte columns, A6 two-byte columns; S7 has no table
    @pytest.mark.parametrize("group", [A5, A6, S7], ids=["A5", "A6", "S7"])
    def test_planted_runs_against_both_oracles(self, group):
        rng = random.Random(16 + group.order)
        pres = Presentation(self.GENS)
        slots = {g: i for i, g in enumerate(self.GENS)}
        temporaries = 0
        for _ in range(12 if group is S7 else 30):
            word = _planted_word(rng, self.GENS, rng.randint(1, 6))
            lines, steps = program = _compile(word, slots, group, len(self.GENS))
            temporaries += len(lines)
            flat = compile_word(word, pres, group)
            assert len(steps) + sum(len(line) for _, line in lines) <= len(flat)
            for _ in range(3):
                values = [rng.randrange(group.order) for _ in self.GENS]
                images = {g: group.elements[i] for g, i in zip(self.GENS, values)}
                values += [0] * len(lines)
                got = evaluate(_Bound(program, values, group.columns), values,
                               group.columns)
                assert got == evaluate(flat, values, group.columns)
                assert group.elements[got] == word.evaluate(images, group)
        assert temporaries > 0

    def test_family_relator_is_six_lookups(self):
        # (yx)^m y (yx)^-m x^-1: u = y*x, then u^m, y, u^-m, x^-1
        slots = {"x": 0, "y": 1, "a": 2}
        for m in (3, 181):
            lines, steps = _compile(rbg_family(m).relators[0], slots, A5, 3)
            assert lines == ((3, ((1, A5.powers(1)), (0, A5.powers(1)))),)
            assert steps == ((3, A5.powers(m)), (1, A5.powers(1)),
                             (3, A5.powers(-m)), (0, A5.powers(-1)))
        # at m = 2 the runs save 4 of 10 lookups, less than the temporary
        # costs, so the relator stays flat
        family = rbg_family(2)
        program = _compile(family.relators[0], slots, A5, 3)
        assert program == ((), compile_word(family.relators[0], family, A5))

    def test_each_temporary_is_charged(self):
        # three runs of distinct two-syllable blocks: k copies save 2k - 3
        # lookups each, against a cost of 4 plus 2 per temporary
        slots = {g: i for i, g in enumerate(self.GENS)}
        pres = Presentation(self.GENS)
        for k, temporaries in ((3, 0), (4, 3)):
            word = parse_word(f"(u*v)^{k}*(w*u)^{k}*(v*w)^{k}", self.GENS)
            lines, steps = _compile(word, slots, A5, 3)
            assert len(lines) == temporaries
            if not lines:
                assert steps == compile_word(word, pres, A5)

    def test_run_free_relator_is_its_flat_program(self):
        # the second family relator holds no run
        relator = F1.relators[1]
        program = _compile(relator, {"x": 0, "y": 1, "a": 2}, A5, 3)
        assert program == ((), compile_word(relator, F1, A5))

    def test_word_past_the_characters_is_flat(self, monkeypatch):
        # the first relator of m = 181 has four distinct syllables
        family = rbg_family(181)
        monkeypatch.setattr(homsearch, "_CHARACTERS", 3)
        program = _compile(family.relators[0], {"x": 0, "y": 1, "a": 2}, A5, 3)
        assert program == ((), compile_word(family.relators[0], family, A5))
        assert meridian_invariant(family, "meridian_B", A5, SIGMA) == 6

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
        family = rbg_family(181)
        expected = {
            ("meridian_B", "backtrack"): (6, 136, 136),
            ("meridian_G", "backtrack"): (1, 976, 1052),
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
        assert _centralizer_generators(group, [group.index_of(v) for v in values]) == []
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
                == [group.index_of(s) for s in group.generators])
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
        # the free generators are not walked: x in one of A5's 5 classes,
        # then 60 values of g1
        assert count_homs(pres, A5).stats.nodes == 5 + 5 * 60

    def test_psl27_meridian_listing(self):
        # the benchmark's group: x pinned to an element of order 3 whose
        # centralizer has order 3, so y walks 58 orbits instead of 168 values
        sigma = parse_permutation("(2,3,5)(4,7,6)", 7)
        count = self.assert_matches_naive(
            lambda mode, listing: meridian_search(F1, "meridian_B", PSL27, sigma,
                                                  mode=mode, materialize=listing))
        assert count > 0
