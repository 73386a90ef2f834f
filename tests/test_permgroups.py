"""Permutations, group construction by enumeration, conjugacy search."""

import random
import sys
import time
import tracemalloc
from array import array
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from knotgroups import permgroups
from knotgroups.errors import (
    DegreeMismatchError,
    GroupTooLargeError,
    InvalidParameterError,
    NotAMemberError,
)
from knotgroups.permgroups import (
    TABLE_MAX_ORDER,
    Permutation,
    alternating_group,
    are_conjugate,
    generated_group,
    group_from_spec,
    parse_permutation,
    symmetric_group,
)

A4 = alternating_group(4)
A5 = alternating_group(5)
S4 = symmetric_group(4)
S5 = symmetric_group(5)

SIGMA = parse_permutation("(1,5,4,3,2)", 5)
S3 = symmetric_group(3)
PSL27 = group_from_spec("gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]")


def is_even(p):
    """Parity by cycle lengths: a k-cycle is k - 1 transpositions."""
    return sum(len(c) - 1 for c in p.cycles()) % 2 == 0


@pytest.fixture
def point_cap(monkeypatch):
    """Sets ``permgroups.MAX_GROUP_POINTS`` for the rest of a test."""
    return lambda cap: monkeypatch.setattr(permgroups, "MAX_GROUP_POINTS", cap)


class TestPermutation:
    def test_composition_applies_left_factor_first(self):
        # (p * q)(i) = q(p(i)); fixed convention used everywhere
        p = parse_permutation("(1,2)", 3)
        q = parse_permutation("(2,3)", 3)
        assert (p * q).images == (2, 0, 1)  # 1->2->3, 2->1, 3->2 (1-based)
        assert (q * p).images == (1, 2, 0)

    def test_inverse_of_five_cycle(self):
        assert ~SIGMA == parse_permutation("(1,2,3,4,5)", 5)

    def test_compose_with_inverse(self):
        assert SIGMA * ~SIGMA == Permutation.identity(5)

    def test_order(self):
        assert SIGMA.order() == 5
        assert parse_permutation("(1,2)(3,4,5)", 5).order() == 6
        assert Permutation.identity(4).order() == 1

    def test_power(self):
        assert SIGMA**5 == Permutation.identity(5)
        assert SIGMA**-2 == (~SIGMA) * (~SIGMA)
        assert SIGMA**60 == Permutation.identity(5)

    def test_cycles_canonical(self):
        p = parse_permutation("(3,4)(1,2)", 5)
        assert p.cycles() == ((1, 2), (3, 4))
        assert str(p) == "(1,2)(3,4)"
        assert str(Permutation.identity(3)) == "()"

    @staticmethod
    def reference_cycles(images):
        """Each point's cycle, followed from the point, kept when the point
        is the cycle's smallest and not fixed."""
        out = []
        for start in range(len(images)):
            cycle = [start]
            while images[cycle[-1]] != start:
                cycle.append(images[cycle[-1]])
            if len(cycle) > 1 and min(cycle) == start:
                out.append(tuple(p + 1 for p in cycle))
        return tuple(out)

    def test_cycles_and_text_against_reference(self):
        rng = random.Random(17)
        perms = [Permutation.identity(n) for n in (1, 2, 12)]
        for degree in list(range(1, 13)) * 40:
            images = list(range(degree))
            rng.shuffle(images)
            # keep a random set of points fixed
            moved = sorted(rng.sample(range(degree), rng.randint(0, degree)))
            fixed = list(range(degree))
            for p, q in zip(moved, rng.sample(moved, len(moved))):
                fixed[p] = q
            perms += [Permutation(images), Permutation(fixed)]
        assert any(p.images[0] == 0 and not p.is_identity for p in perms)
        for p in perms:
            cycles = self.reference_cycles(p.images)
            assert p.cycles() == cycles
            assert str(p) == "".join("(" + ",".join(map(str, c)) + ")" for c in cycles) or "()"
            assert parse_permutation(str(p), p.degree) == p

    def test_parse_round_trip(self):
        for text in ("()", "(1,2)", "(1,5,4,3,2)", "(1,2)(3,4)"):
            assert str(parse_permutation(text, 5)) == text

    def test_parse_rejects(self):
        # signs, digit separators, tabs and a repeated "()" are no literal
        for bad in ("(1,2", "(0,1)", "(1,1)", "(6,7)", "(1)", "(+1,2)", "(1,+2)",
                    "(1_0,2)", "(1,\t2)", "(1,2)()", "()()", "()(1,2)", ")(",
                    "(1,2),(3,4)", "-(1,2)"):
            with pytest.raises(InvalidParameterError):
                parse_permutation(bad, 5)

    def test_spaces_are_removed_first(self):
        assert parse_permutation(" ( 1 , 2 ) ( 3,4 ) ", 5) == parse_permutation("(1,2)(3,4)", 5)
        assert parse_permutation("", 5) == parse_permutation(" () ", 5) == Permutation.identity(5)

    def test_point_past_the_digit_limit_is_an_input_error(self):
        point = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(InvalidParameterError, match="cycle point has more than"):
            parse_permutation(f"(1,{point})", 5)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            parse_permutation("(1,2)", 3) * parse_permutation("(1,2)", 4)

    def test_not_a_bijection(self):
        with pytest.raises(InvalidParameterError):
            Permutation((0, 0, 1))

    def test_images_must_be_ints(self):
        # 1.0 and 0.0 sort like a bijection's images, and "a" does not sort
        for bad in ((1.0, 0.0), (1, 0.0), ("a", 0), (True, 2, 0.0)):
            with pytest.raises(InvalidParameterError):
                Permutation(bad)
        assert str(Permutation((1, 0))) == "(1,2)"


class TestBuild:
    def test_alternating_five_has_order_sixty(self):
        assert A5.order == 60
        assert all(is_even(p) for p in A5)

    def test_symmetric_four(self):
        assert S4.order == 24

    def test_generated_cyclic(self):
        g = generated_group(3, [parse_permutation("(1,2,3)", 3)])
        assert g.order == 3

    def test_generated_recovers_alternating(self):
        gens = [parse_permutation("(1,2,3)", 5), parse_permutation("(1,2,3,4,5)", 5)]
        g = generated_group(5, gens)
        assert g.order == 60
        assert set(g.elements) == set(A5.elements)

    def test_identity_first(self):
        for group in (A4, A5, S4, generated_group(3, [parse_permutation("(1,2)", 3)])):
            assert group.elements[0].is_identity

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lexicographic_order_and_parity(self, n):
        # the parity mask against cycle counting, in content and order
        every = [Permutation(p) for p in permutations(range(n))]
        assert list(symmetric_group(n).elements) == every
        assert list(alternating_group(n).elements) == [p for p in every if is_even(p)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parity_mask_matches_lehmer_codes(self, n):
        # permutations() and product() both run in lexicographic order, so
        # each permutation meets its Lehmer code, whose digit sum is its
        # number of inversions
        lehmer = product(*map(range, range(n, 0, -1)))
        even = [not sum(code) & 1 for code in lehmer]
        keys = symmetric_group(n)._keys
        assert alternating_group(n)._keys == [k for k, e in zip(keys, even) if e]

    def test_order_caps_are_exact(self, point_cap):
        # the points cap allows order times degree: S5 holds 120 * 5 = 600
        point_cap(600)
        assert symmetric_group(5).order == 120
        point_cap(300)
        assert alternating_group(5).order == 60
        point_cap(2)
        assert alternating_group(2).order == 1
        point_cap(599)
        with pytest.raises(GroupTooLargeError,
                           match=r"\|S_5\| = 5! exceeds cap 119 elements on 5 points$"):
            symmetric_group(5)
        point_cap(299)
        with pytest.raises(GroupTooLargeError,
                           match=r"\|A_5\| = 5!/2 exceeds cap 59 elements on 5 points$"):
            alternating_group(5)

    def test_too_large(self, point_cap):
        point_cap(500)
        with pytest.raises(GroupTooLargeError):
            symmetric_group(5)
        point_cap(150)
        with pytest.raises(GroupTooLargeError):
            generated_group(
                5,
                [parse_permutation("(1,2)", 5), parse_permutation("(1,2,3,4,5)", 5)],
            )

    def test_from_spec(self):
        assert group_from_spec("A5").order == 60
        assert group_from_spec("S4").order == 24
        assert group_from_spec("gen:5:[(1,2,3),(1,2)]").order == 6
        # empty or unbalanced pieces of a list are refused, not skipped or
        # half read
        for bad in ("B5", "gen:5", "gen:x:[(1,2)]", "A", "gen:5:[,(1,2)]",
                    "gen:5:[(1,2),,(3,4)]", "gen:5:[(1,2),]", "gen:5:[,]",
                    "gen:7:[(1,2)(3,4),)]", "gen:5:[)()]", "gen:5:[(1,2,3),(1,2))]",
                    "gen:5:[(1,2,3,(1,2)]", "gen:5:[(1,2)()]", "gen:5:[(+1,2)]",
                    "gen:5:[(1_0,2)]", "gen:5:[(1,\t2)]", "gen:5:(1,2)", "gen:5:[(1,2)",
                    "S 4", "A+5", "S4_0", "gen: 5:[(1,2)]", "gen:+5:[(1,2)]"):
            with pytest.raises(InvalidParameterError, match="bad group spec"):
                group_from_spec(bad)

    def test_spec_lists(self):
        assert group_from_spec("gen:5:[]").order == 1
        assert group_from_spec("gen:5:[ ]").order == 1
        spaced = group_from_spec(" gen:7: [ (1,2,3,4,5,6,7) , (2, 3, 5) (4,7,6),(3,7)(5,6) ] ")
        assert spaced.order == 168
        assert spaced.generators == PSL27.generators
        assert group_from_spec("gen:4:[(),(1,2)]").generators == (
            Permutation.identity(4), parse_permutation("(1,2)", 4))

    @pytest.mark.parametrize("spec", [
        "S{}", "A{}", "gen:{}:[(1,2)]", "gen:5:[(1,{})]",
    ])
    def test_numbers_past_the_digit_limit_are_input_errors(self, spec):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(InvalidParameterError, match="has more than"):
            group_from_spec(spec.format(digits))

    def test_point_caps_are_exact(self, point_cap):
        # S4 on 4 points holds 24 * 4 = 96 points, and on 6 points 144
        s4_gens = "[(1,2,3,4),(1,2)]"
        point_cap(96)
        assert group_from_spec(f"gen:4:{s4_gens}").order == 24
        point_cap(95)
        with pytest.raises(GroupTooLargeError, match="exceeds cap 23 "):
            group_from_spec(f"gen:4:{s4_gens}")
        point_cap(144)
        assert group_from_spec(f"gen:6:{s4_gens}").order == 24
        with pytest.raises(GroupTooLargeError, match="exceeds cap 20 "):
            group_from_spec(f"gen:7:{s4_gens}")

    def test_degree_over_the_point_cap_is_refused_first(self, point_cap):
        point_cap(10)
        assert group_from_spec("gen:10:[]").order == 1
        # the generator is never read: it would be out of range
        with pytest.raises(GroupTooLargeError, match="degree 11 exceeds the cap of 10 points"):
            group_from_spec("gen:11:[(12,13)]")
        with pytest.raises(GroupTooLargeError, match="degree 11 exceeds the cap of 10 points"):
            generated_group(11, [])

    def test_fresh_points_above_256_count_five_times(self, point_cap):
        # above 256 points the identity and each generator hold a new int
        # object per point: 300 + 4 * 300 = 1500 points for the identity
        point_cap(1500)
        assert group_from_spec("gen:300:[]").order == 1
        point_cap(1499)
        # refused before the generator is read: it would be out of range
        with pytest.raises(GroupTooLargeError,
                           match="degree 300 exceeds the cap of 1499 points: "
                                 "the identity and generators count 1500$"):
            group_from_spec("gen:300:[]")
        with pytest.raises(GroupTooLargeError, match="generators count 2700$"):
            group_from_spec("gen:300:[(301,302)]")
        with pytest.raises(GroupTooLargeError, match="generators count 1500$"):
            generated_group(300, [])
        # one generator: 2 * 300 slots of the elements and 4 * 2 * 300 ints
        swap = parse_permutation("(1,2)", 300)
        point_cap(3000)
        assert group_from_spec("gen:300:[(1,2)]").order == 2
        assert generated_group(300, [swap]).order == 2
        point_cap(2999)
        with pytest.raises(GroupTooLargeError, match="exceeds cap 1 "):
            group_from_spec("gen:300:[(1,2)]")
        # at 256 points every image is a shared small int: one point each
        point_cap(256)
        assert group_from_spec("gen:256:[]").order == 1

    def test_trivial_group_on_ten_million_points_refused_quickly(self):
        # 10^7 new ints would take about 400 MB; nothing is built
        started = time.perf_counter()
        with pytest.raises(GroupTooLargeError, match="generators count 50000000$"):
            group_from_spec("gen:10000000:[]")
        assert time.perf_counter() - started < 1.0

    def test_closure_property(self):
        g = generated_group(4, [parse_permutation("(1,2,3)", 4)])
        members = set(g.elements)
        for p in members:
            assert ~p in members
            for q in members:
                assert p * q in members


class TestConjugacy:
    @pytest.mark.parametrize("points", [0, 7, 300], ids=["PSL27", "S7", "S7-on-300"])
    def test_conjugation_tables(self, points):
        # from the product table up to TABLE_MAX_ORDER, and above it from
        # keys: bytes on 7 points, tuples on 300; each group is new, so it
        # keeps no table yet
        group = generated_group(7, PSL27.generators) if not points else generated_group(points, [
            Permutation((1, 0) + tuple(range(2, points))),
            Permutation((1, 2, 3, 4, 5, 6, 0) + tuple(range(7, points)))])
        assert (group.order > TABLE_MAX_ORDER) == bool(points)
        elements = group.elements
        for s in (1, len(elements) - 1):
            table = [group.index_of(elements[s] * x * ~elements[s]) for x in elements]
            # a subset of the elements is conjugated alone, with no table kept
            members = list(range(0, len(elements), 3))
            assert group.centralized(s, members) == [x for x in members if table[x] == x]
            assert s not in group._conjugates
            assert group.conjugates(s) == table
            assert group.conjugates(s) is group.conjugates(s)  # made once, kept
            assert group.centralized(s, members) == [x for x in members if table[x] == x]

    def test_five_cycle_conjugate_to_inverse_in_a5(self):
        assert are_conjugate(SIGMA, ~SIGMA, A5)

    def test_three_cycles_split_in_a4(self):
        # brute-force oracle over all 12 elements, independent of the
        # library search
        g = parse_permutation("(1,2,3)", 4)
        h = parse_permutation("(1,3,2)", 4)
        oracle = any(k * g * ~k == h for k in A4.elements)
        assert oracle is False
        assert are_conjugate(g, h, A4) is False
        # they fuse in the full symmetric group
        assert are_conjugate(g, h, S4) is True

    def test_identity(self):
        ident = Permutation.identity(4)
        assert are_conjugate(ident, ident, A4)

    def test_membership_required(self):
        odd = parse_permutation("(1,2)", 5)
        with pytest.raises(NotAMemberError):
            are_conjugate(odd, SIGMA, A5)

    def test_conjugate_to_inverse_is_class_invariant_on_a5(self):
        # whether an element is conjugate to its own inverse depends only
        # on its conjugacy class
        for g in A5.elements[::7]:
            status = are_conjugate(g, ~g, A5)
            for k in A5.elements[::11]:
                conj = k * g * ~k
                assert are_conjugate(conj, ~conj, A5) == status


def _cycle_type(p):
    return tuple(sorted(len(c) for c in p.cycles()))


@settings(max_examples=80)
@given(st.sampled_from(S4.elements), st.sampled_from(S4.elements))
def test_conjugacy_matches_cycle_type_in_s4(g, h):
    assert are_conjugate(g, h, S4) == (_cycle_type(g) == _cycle_type(h))


@settings(max_examples=40)
@given(st.sampled_from(S5.elements), st.sampled_from(S5.elements))
def test_conjugacy_matches_cycle_type_in_s5(g, h):
    assert are_conjugate(g, h, S5) == (_cycle_type(g) == _cycle_type(h))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(S5.elements), max_size=2))
def test_lagrange_for_generated_subgroups(gens):
    group = generated_group(5, gens)
    assert 120 % group.order == 0
    # discovery order against the closure written out level by level, and
    # the byte table against products and powers of the permutations
    assert list(group.elements) == _frontier_closure(5, gens)
    TestIndexForm._assert_matches(group, exponents=(-1, 2, 7))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4))),
    st.booleans())
def test_spec_round_trip(degree_and_images, spaced):
    # generators rendered with str come back from a gen: spec unchanged
    degree, images = degree_and_images
    gens = [Permutation(p) for p in images]
    sep = " , " if spaced else ","
    group = group_from_spec(f"gen:{degree}:[{sep.join(map(str, gens))}]")
    assert group.degree == degree
    assert group.generators == tuple(gens)


class TestIndexForm:
    """The group's elements as indices: its product columns and power
    tables against products and powers of the permutations."""

    @staticmethod
    def _assert_matches(group, exponents=(-3, -2, -1, 0, 1, 2, 5, 10**9 + 1)):
        columns = group.columns
        for b, pb in enumerate(group.elements):
            for a, pa in enumerate(group.elements):
                assert group.elements[columns[b][a]] == pa * pb
        for e in exponents:
            powers = group.powers(e)
            for i, p in enumerate(group.elements):
                assert powers[i] == group.elements.index(p**e)

    @pytest.mark.parametrize("group", [S4, A5, PSL27], ids=["S4", "A5", "PSL27"])
    def test_table_built_from_generators(self, group):
        self._assert_matches(group)

    # each list's first 20 elements in breadth-first order, as the closure
    # found them before its table was composed along its own tree
    @pytest.mark.parametrize("spec, first", [
        # a repeated generator reaches no new element
        ("gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6),(1,2,3,4,5,6,7)]",
         "() (1,2,3,4,5,6,7) (2,3,5)(4,7,6) (3,7)(5,6) (1,3,5,7,2,4,6) (1,3,7)(2,5,4) "
         "(1,2,7)(3,4,6) (1,2,4)(3,6,5) (2,5,3)(4,6,7) (2,7,5)(3,6,4) (1,2,3)(4,5,7) "
         "(2,3,6)(4,7,5) (1,4,7,3,6,2,5) (1,5,6)(2,7,3) (1,7,2,4,5,3,6) (1,4,3)(2,6,7) "
         "(1,5,7)(3,6,4) (1,7)(2,6,5,4) (1,3,5,6,4,7,2) (1,3,7)(2,6,5)"),
        # the identity as a generator
        ("gen:5:[(),(1,2,3,4,5)]", "() (1,2,3,4,5) (1,3,5,2,4) (1,4,2,5,3) (1,5,4,3,2)"),
        # the third generator is the product of the first two
        ("gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(1,3,7)(2,5,4),(3,7)(5,6)]",
         "() (1,2,3,4,5,6,7) (2,3,5)(4,7,6) (1,3,7)(2,5,4) (3,7)(5,6) (1,3,5,7,2,4,6) "
         "(1,5,6)(2,7,3) (1,2,7)(3,4,6) (1,2,4)(3,6,5) (2,5,3)(4,6,7) (1,3,4)(2,7,6) "
         "(2,7,5)(3,6,4) (1,4,3)(2,6,7) (1,5,7)(3,6,4) (1,7,3)(2,4,5) (1,7)(2,6,5,4) "
         "(1,2,3)(4,5,7) (2,3,6)(4,7,5) (1,3)(2,5,6,4) (1,4,7,3,6,2,5)"),
        # A6 of order 360: two-byte columns
        ("gen:6:[(1,2,3),(2,3,4,5,6)]",
         "() (1,2,3) (2,3,4,5,6) (1,3,2) (1,3)(2,4,5,6) (1,2)(3,4,5,6) (2,4,6,3,5) "
         "(1,4,5,6,2) (2,4,5,6,3) (1,4,6,3)(2,5) (1,3,4,5,6) (1,3,5,2)(4,6) (1,2,4,6)(3,5) "
         "(2,5,3,6,4) (1,4,5,6,3) (1,5,2)(3,4,6) (1,2,4,5,6) (2,5)(4,6) (1,4,6)(2,5,3) "
         "(1,5,3)(2,6,4)"),
    ], ids=["repeated", "identity", "product", "A6"])
    def test_table_of_irregular_generators(self, spec, first):
        group = group_from_spec(spec)
        assert " ".join(map(str, group.elements[:20])) == first
        assert list(group.elements) == _frontier_closure(group.degree, group.generators)
        assert all(isinstance(col, bytes) == (group.order <= 256) for col in group.columns)
        self._assert_matches(group, exponents=(-2, -1, 0, 1, 2, 7))

    def test_wide_columns_packed_once_walked(self):
        # 2^10: 2 MiB of two-byte columns.  A column is an 8 KiB image tuple
        # only until the walk passes it, so the build peaks near 3.5 MB; with
        # every column a tuple until the end it peaked at 10.8 MB
        group = group_from_spec("gen:20:[" + ",".join(
            f"({i},{i + 1})" for i in range(1, 20, 2)) + "]")
        assert group.order == TABLE_MAX_ORDER
        tracemalloc.start()
        try:
            group.columns
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    def test_no_tree_above_the_table_limit(self):
        # the closure notes each element's parent and generator only while
        # a table may still be built
        group = group_from_spec("gen:7:[(1,2,3,4,5,6,7),(1,2)]")
        assert group.order == 5040 > TABLE_MAX_ORDER
        assert group._walk is None
        assert isinstance(group.columns, permgroups._Products)
        # below it, b = p * generators[k] for each noted (b, p, k), in order
        elems = PSL27.elements
        assert [b for b, _, _ in PSL27._walk[1]] == list(range(1, PSL27.order))
        for b, p, k in PSL27._walk[1]:
            assert elems[b] == elems[p] * PSL27.generators[k]

    @pytest.mark.parametrize("spec", [
        # 2^8: the largest group with a byte table
        "gen:16:[(1,2),(3,4),(5,6),(7,8),(9,10),(11,12),(13,14),(15,16)]",
        # order 360: a two-byte table
        "A6",
    ])
    def test_both_sides_of_the_table_width_split(self, spec):
        group = group_from_spec(spec)
        assert all(isinstance(col, bytes) == (group.order <= 256) for col in group.columns)
        self._assert_matches(group, exponents=(-1, 2))

    def test_sampled_products_at_the_top_of_the_two_byte_range(self):
        # S6, order 720: the full oracle takes n^2 products, so sample the
        # table and check two power tables in full
        group = group_from_spec("S6")
        columns, n, elems = group.columns, group.order, group.elements
        assert len(columns) == n
        for col in columns:
            assert isinstance(col, array) and col.typecode == "H" and len(col) == n
        rng = random.Random(720)
        for _ in range(2000):
            a, b = rng.randrange(n), rng.randrange(n)
            assert elems[columns[b][a]] == elems[a] * elems[b]
        for e in (-1, 7):
            assert list(group.powers(e)) == [group.index_of(p**e) for p in elems]

    def test_more_than_256_points(self):
        # image tuples too wide for bytes: the closure and the table's
        # right products compose tuples
        gens = [parse_permutation(c, 300) for c in ("(1,2,3)", "(1,2)", "(299,300)")]
        group = generated_group(300, gens)
        assert list(group.elements) == _frontier_closure(300, gens)
        self._assert_matches(group)
        # S7 on 300 points: above the table limit, tuple keys are composed
        # and looked up when read
        group = group_from_spec("gen:300:[(1,2,3,4,5,6,7),(1,2)]")
        assert group.order == 5040 > TABLE_MAX_ORDER
        columns, n, elems = group.columns, group.order, group.elements
        assert isinstance(columns, permgroups._Products)
        assert isinstance(group._keys[0], tuple)
        rng = random.Random(300)
        for _ in range(500):
            a, b = rng.randrange(n), rng.randrange(n)
            assert elems[columns[b][a]] == elems[a] * elems[b]
        for e in (-1, 3):
            powers = group.powers(e)
            for a in rng.sample(range(n), 200):
                assert elems[powers[a]] == elems[a] ** e

    def test_built_once(self):
        assert A5.columns is A5.columns
        assert A5.powers(-1) is A5.powers(-1)

    def test_generated_group_needs_no_permutation_products(self, monkeypatch):
        # the closure recorded every h*s, so the table is index lookups only
        spec = "gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]"
        group = group_from_spec(spec)
        with monkeypatch.context() as patch:
            patch.setattr(Permutation, "__mul__", lambda p, q: pytest.fail("product"))
            patch.setattr(Permutation, "__pow__", lambda p, e: pytest.fail("power"))
            group.powers(-1)
        self._assert_matches(group)

    @pytest.mark.parametrize("spec", ["S5", "A6"])
    def test_builders_need_no_permutation_products(self, monkeypatch, spec):
        # S_n and A_n come from itertools in lexicographic order, and the
        # table composes image tuples for their right products
        with monkeypatch.context() as patch:
            patch.setattr(Permutation, "__mul__", lambda p, q: pytest.fail("product"))
            patch.setattr(Permutation, "cycles", lambda p: pytest.fail("cycles"))
            group_from_spec(spec).columns

    def test_above_table_limit_multiplies_on_the_fly(self):
        s7 = symmetric_group(7)
        assert s7.order > TABLE_MAX_ORDER >= PSL27.order
        columns = s7.columns
        elems = s7.elements
        for b, a, e in ((1, 2, 3), (4000, 17, -1), (5039, 5039, 7), (123, 0, 10**9)):
            assert elems[columns[b][a]] == elems[a] * elems[b]
            assert s7.powers(e)[a] == elems.index(elems[a] ** e)


def _frontier_closure(degree, gens):
    """Elements of <gens> level by level, each level in the order its
    members were first reached: the discovery order listings rely on."""
    ordered = [Permutation.identity(degree)]
    seen = set(ordered)
    frontier = list(ordered)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                if h * g not in seen:
                    seen.add(h * g)
                    nxt.append(h * g)
        ordered += nxt
        frontier = nxt
    return ordered


@pytest.mark.parametrize("spec", [
    "gen:7:[(1,2,3,4,5,6,7),(2,3,5)(4,7,6),(3,7)(5,6)]",
    "gen:5:[(1,2,3),(1,2,3,4,5)]",
    "gen:4:[(1,2),(),(1,2),(3,4)]",
])
def test_generated_element_order_and_cap(spec, point_cap):
    group = group_from_spec(spec)
    assert list(group.elements) == _frontier_closure(group.degree, group.generators)
    point_cap(group.order * group.degree)
    assert group_from_spec(spec).elements == group.elements
    point_cap(group.order * group.degree - 1)
    with pytest.raises(GroupTooLargeError,
                       match=f"exceeds cap {group.order - 1} elements on {group.degree} points$"):
        group_from_spec(spec)
