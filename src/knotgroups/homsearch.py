"""Enumerate and count homomorphisms into finite permutation groups.

Given a presentation P and a finite group A, a map on generators extends to
a homomorphism iff every relator evaluates to the identity.  Two engines
compute the number of such maps, optionally with some generator images
pinned:

``naive``
    Walks the pinned generators first, then the others, each part in
    declaration order and each generator over all of A, and checks each
    relator at its last walked generator, as backtrack does, with none of
    backtrack's reductions: no orbits, no deduction, no generator left out.
    Transparent, and the parity oracle for the other engine.

``backtrack``
    Assigns the pinned generators first, then the others, each part in
    declaration order, and evaluates each relator as soon as its last
    generator receives a value (a static trigger table is precomputed per
    presentation), pruning dead branches early.  It walks the search up to
    conjugacy (Holt-Eick-O'Brien, *Handbook of Computational Group Theory*,
    2005): each unpinned walked level k, up to the first one solved by
    deduction, takes one value per orbit of H_k acting by conjugation,
    where H_0 centralizes the pinned images and H_(k+1) = C_(H_k)(v_k), v_k
    the value of level k, so H_k fixes the values before level k and maps
    solutions to solutions; a solution counts the product of its values'
    orbit sizes.  H_(k+1) = 1 when v_k's H_k-orbit has |H_k| points, which
    ends the narrowing, and H_(k+1) = H_k when it has one, whose orbits it
    reuses; only the other values filter H_k's members and compute new
    orbits, as the level is entered.  All homomorphisms of the family's
    m = 1 into PSL(2,7) then take 1,576 nodes.  When counting, a
    generator in no relator is not walked at all: it multiplies the count
    by |A|, or by 1 if pinned.

    A later unpinned generator g is solved by deduction (same reference)
    when one relator checked at its level has every syllable on an
    earlier unpinned generator in one cyclic gap between occurrences of g.
    A cyclic conjugate of a relator is trivial exactly when the relator
    is, so the relator is rotated to Q*W: W runs from g's first occurrence
    to its last and holds only g and pinned syllables, and Q is the rest.
    The level then takes, for each parent, only the values v of g with
    W(v) = Q^-1, read from a table from W's value to the sorted values v,
    built once per search on the level's first entry; the relator is not
    checked there.  A Wirtinger relator x_{i+1} x_i x_{i+1}^-1 x_{i+2}^-1
    gives one x_{i+2} per parent, and the family's
    x^-1 a x a^-1 x^-1 * y a y^-1 under a pin on a gives at most |C(a)|
    values of y, not |A|.  The first unpinned level is never solved: it
    has one parent and walks orbit representatives, so a table would cost
    what the walk costs.

Both engines return identical counts and identical listings, in the same
order: a listing maps each solution back to declaration order (backtrack
first expands it over its orbits, innermost level first, each row one
packed key) and sorts.  The test suite leans on that.
A listing stays index tuples, ``HomSearchResult.leaves``, the element index
of each generator's image; ``HomSearchResult.assignments``, the same
homomorphisms as ``{generator: Permutation}`` dicts, is built from the
leaves only when it is read, and the command line never reads it.
The work counters (``SearchStats``) of backtrack count the walk actually
made, so its ``nodes`` and ``relator_checks`` cover the reduced walk, table
entries included.  ``naive`` counts every assignment: |A|^(unpinned) nodes,
and each check once for every complete assignment below its level, as if
each assignment were checked relator by relator, in walk order, up to the
first that fails.

The meridian invariant of a marked presentation counts homomorphisms whose
value on the marker word is a prescribed element sigma.  A marker that is a
bare generator (or its inverse) is pinned directly; any other marker word w
becomes one more relator w*c^-1 on one more generator c, pinned to sigma.
So a search has one kind of pin, a level with a single value, and one kind
of condition, a relator checked at its last walked level.

Both engines share one evaluator.  Each relator is compiled once per search
into a straight-line program over the group's element indices from its
runs (``Word.runs``; Lohrey, *The Compressed Word Problem for Groups*,
2014).  A step is one (slot, power table) pair and costs one lookup in the
group's product table (``FiniteGroup.columns``).  A run of k = 1 is one
step per syllable.  A repeated block B^k is one temporary u = B (one step
per syllable of B, stored in a slot past the walked generators) and one
step u^k through ``FiniteGroup.powers(k)``; a later run of B or of B's
inverse reuses u.  So every run costs fewer lookups than it has
syllables, |B| + 1 against k|B|, and the family relator
(yx)^m y (yx)^-m x^-1 costs 6 lookups for every m >= 2, not 4m + 2.

The walk runs one list of programs per level (``_schedule``), in order, for
each value the level takes: a line stores a value in a slot of its own, and
a check that fails ends the list.  A line sits at the level of the last
generator it reads, right before the check that reads it or after the
level's checks when only deeper levels read it.  Lines are each temporary,
each run of two or more steps of a check on levels before the check's, and
a solved level's Q^-1.  So with x pinned, the family relator
x^-1 a x a^-1 x^-1 y a y^-1, checked at a, reads x^-1 y from a slot
computed once per y, not for each of the 60 values of a, and a solved
level reads Q^-1 from its slot.  The search itself is one iterative
depth-first walk over a list of element indices, so its depth is not
bounded by the recursion limit; an assignment that passes the checks of
the last walked level is a solution there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import AbstractSet, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    BudgetExceededError,
    GroupTooLargeError,
    InvalidParameterError,
    NotAMemberError,
    UnknownGeneratorError,
    UnknownMarkerError,
    quoted,
)
from .permgroups import FiniteGroup, Permutation, _packing, product_exceeds
from .presentations import Presentation
from .words import Word, reduce_syllables

# Resource limits, read at each call, never passed per call: the nodes one
# search may visit, and the homomorphisms one listing may hold.  A search
# into A5 walks 0.5 to 1.5 million nodes a second (shared 2-core x86 box,
# CPython 3.11), charging a level's values and a solved level's table
# before it walks them: `count` of < a, b, c, d, e, f | a*b*c*d*e*f > into
# A5 exits 3 after 3.4 to 5.5 s, whole command.  The largest backtrack
# search in the test suite, < a, b, c, d, e | a*b*c*d*e > into A5, counts
# 436,499 nodes; the next, a chain of 1200 generators, 77,940, of which
# 71,940 are table entries.  Naive searches there count at most 60^3.
MAX_SEARCH_NODES = 10**7
MAX_LISTED_HOMS = 10**5

Assignment = Dict[str, Permutation]
# One homomorphism of a listing: the element index of each generator's
# image, in declaration order.
Leaf = Tuple[int, ...]

# A step (slot, FiniteGroup.powers(exponent)) multiplies the value so far on
# the right by the slot's value to that exponent; a flat program has one
# step per syllable.
Step = Tuple[int, Sequence[int]]
Program = Tuple[Step, ...]
# A straight-line program: lines (temporary slot, steps), each storing its
# product in its slot, in order, then the steps whose product is the word.
Line = Tuple[int, Program]
StraightLine = Tuple[Tuple[Line, ...], Program]
# The orbits of a subgroup acting on A by conjugation (_conjugation_orbits).
Orbits = Dict[int, List[Optional[Tuple[int, Sequence[int]]]]]

@dataclass
class SearchStats:
    """Work counters of one search."""

    nodes: int = 0
    relator_checks: int = 0


@dataclass
class HomSearchResult:
    """The outcome of one search.

    ``count`` and the work counters ``stats`` are always set.  A listing
    also has ``leaves``: one tuple of element indices into ``group`` per
    homomorphism, in the order of ``generators`` (declaration order),
    sorted.  ``assignments`` is None for a count; for a listing it is the
    leaves as ``{generator: Permutation}`` dicts, built when first read.
    """

    count: int
    stats: SearchStats = field(default_factory=SearchStats)
    leaves: Optional[List[Leaf]] = None
    group: Optional[FiniteGroup] = None
    generators: Tuple[str, ...] = ()

    @cached_property
    def assignments(self) -> Optional[List[Assignment]]:
        if self.leaves is None:
            return None
        elements = self.group.elements
        made = {i: elements[i] for i in set().union(*self.leaves)}
        return [dict(zip(self.generators, map(made.__getitem__, leaf)))
                for leaf in self.leaves]


def _compile(word: Word, slots: Mapping[str, int], group: FiniteGroup,
             first_temporary: int) -> StraightLine:
    """The straight-line program of ``word`` (module docstring), read from
    its runs, generator g read from slot ``slots[g]`` and the temporaries
    stored from slot ``first_temporary`` on."""
    runs = word.runs
    # one step per distinct syllable, shared by its occurrences
    step = {s: (slots[s[0]], group.powers(s[1]))
            for block, _ in runs for s in block}.__getitem__
    lines: List[Line] = []
    temporaries: Dict[Tuple[Tuple[str, int], ...], int] = {}
    steps: List[Step] = []
    for block, k in runs:
        if k == 1:
            steps.extend(map(step, block))
            continue
        inverse = tuple((g, -e) for g, e in reversed(block))
        if inverse in temporaries:
            slot, k = temporaries[inverse], -k
        elif block in temporaries:
            slot = temporaries[block]
        else:
            slot = temporaries[block] = first_temporary + len(lines)
            lines.append((slot, tuple(map(step, block))))
        steps.append((slot, group.powers(k)))
    return tuple(lines), tuple(steps)


def evaluate(program: Program, values: Sequence[int],
             columns: Sequence[Sequence[int]]) -> int:
    """Index of the compiled word's value when slot i has the element of
    index ``values[i]`` (``columns`` of the same group)."""
    acc = 0
    for slot, powers in program:
        acc = columns[powers[values[slot]]][acc]
    return acc


def _schedule(checks: Sequence[Sequence[StraightLine]],
              inverses: Sequence[Optional[StraightLine]], one: Sequence[int]
              ) -> Tuple[List[Tuple[Line, ...]], List[Optional[int]], int]:
    """The walk's levels for the programs ``checks[i]``, whose last
    generator is level i's, and ``inverses[i]``, Q^-1 of a level i solved
    by deduction, slot i holding level i's generator; the slot that holds
    each Q^-1; and the number of slots they use.

    A level is one tuple of programs (target, steps), run in order: a line
    stores its value in slot ``target``, and target 0 marks a check (slot 0
    holds level 0's generator, and no line writes it).  A check runs at the
    level of its last generator, so each check past level 0 reads a slot
    its level computes.  Each temporary, each run of two or more steps of
    a program on levels before its own, and each Q^-1 is a line at the
    level of the last generator it reads (level 0 if it reads none): right
    before the check that reads it, or after the level's checks when only
    deeper levels read it.  A program reads a run in one step through
    ``one`` (``FiniteGroup.powers(1)``)."""
    home = list(range(len(checks)))  # the level that computes each slot
    levels: List[List[Line]] = [[] for _ in checks]

    def store(steps: Program) -> int:
        slot, at = len(home), max([home[s] for s, _ in steps], default=0)
        home.append(at)
        levels[at].append((slot, steps))
        return slot

    def place(program: StraightLine) -> Program:
        # the steps of ``program`` run at the level of its last generator,
        # its temporaries and earlier runs stored as lines
        lines, steps = program
        moved = {target: store(line) for target, line in lines}
        steps = [(moved.get(slot, slot), powers) for slot, powers in steps]
        level = max([home[slot] for slot, _ in steps], default=0)
        out, run = [], []  # the program's steps, and the run being read
        # a step on this level ends a run, and one more ends the last
        for slot, powers in (*steps, (level, one)):
            if home[slot] < level:
                run.append((slot, powers))
                continue
            out += [(store(tuple(run)), one)] if len(run) > 1 else run
            out.append((slot, powers))
            run = []
        return tuple(out[:-1])

    inverse_slots: List[Optional[int]] = []
    for level, (programs, inverse) in enumerate(zip(checks, inverses)):
        # Q^-1 reads only earlier levels, whose checks are placed
        inverse_slots.append(inverse and store(place(inverse)))
        for program in programs:
            levels[level].append((0, place(program)))
    return list(map(tuple, levels)), inverse_slots, len(home)


def _walk(values: Sequence[Sequence[int]], counted: Sequence[bool],
          charges: Sequence[int], levels: Sequence[Sequence[Line]],
          solved: Sequence[Optional[Tuple[int, StraightLine]]],
          slots: int, columns: Sequence[Sequence[int]], stats: SearchStats,
          narrowed: Optional[Tuple[range, Callable[[int, int], Sequence[int]]]] = None,
          ) -> Iterator[List[int]]:
    """Depth-first walk over index assignments, without recursion.

    Level i takes each value in ``values[i]`` in turn and runs the programs
    ``levels[i]`` (``_schedule``) in order: a line stores its value, and a
    check that fails ends the run.  A value that passes every check
    descends to level i + 1, or at the last level is yielded (the live
    list: copy what you keep).  A level with ``solved[i]`` = (slot, W)
    takes only the values v of ``values[i]`` with W = Q^-1 when v is at
    level i, Q^-1 read from the slot: on the level's first entry W's value
    for each v is tabled, one node an entry, and each entry reads Q^-1, one
    relator check, and takes its values from the table.  With ``narrowed``
    = (levels, f), entering a level i in ``levels`` takes the values f(i, v),
    v the value of level i - 1, instead of ``values[i]``.  Entering a level
    with ``counted[i]`` charges a node for each value it will take, and
    each check run at level i counts ``charges[i]`` relator checks.
    The assignment list has ``slots`` slots.  Counters go to ``stats`` when
    the walk ends, and more than ``MAX_SEARCH_NODES`` nodes are refused.
    """
    node_budget = MAX_SEARCH_NODES
    last = len(values) - 1
    narrowing, narrow = narrowed or ((), None)
    assignment = [0] * slots
    tables: List[Optional[Dict[int, List[int]]]] = [None] * len(values)
    todo = [iter(values[0])] + [None] * last
    nodes = len(values[0]) if counted[0] else 0  # the first level is never solved
    if nodes > node_budget:
        raise _over_budget(node_budget)
    relator_checks = level = 0
    while level >= 0:
        programs, charge = levels[level], charges[level]
        for value in todo[level]:
            assignment[level] = value
            for target, steps in programs:
                # evaluate(steps, assignment, columns), inlined: this loop
                # is where the search spends its time
                acc = 0
                for slot, powers in steps:
                    acc = columns[powers[assignment[slot]]][acc]
                if target:
                    assignment[target] = acc
                else:
                    relator_checks += charge
                    if acc:
                        break
            else:
                if level == last:
                    yield assignment
                    continue
                level += 1
                entering = values[level]
                if level in narrowing:
                    entering = narrow(level, assignment[level - 1])
                if solved[level] is not None:
                    inverse_q, (w_lines, w) = solved[level]
                    table = tables[level]
                    if table is None:
                        nodes += len(entering)
                        if nodes > node_budget:
                            raise _over_budget(node_budget)
                        table = tables[level] = {}
                        for v in entering:
                            assignment[level] = v
                            for target, line in w_lines:
                                assignment[target] = evaluate(line, assignment, columns)
                            table.setdefault(evaluate(w, assignment, columns), []).append(v)
                    relator_checks += 1
                    entering = table.get(assignment[inverse_q], ())
                if counted[level]:
                    nodes += len(entering)
                    if nodes > node_budget:
                        raise _over_budget(node_budget)
                todo[level] = iter(entering)
                break
        else:
            level -= 1
    stats.nodes += nodes
    stats.relator_checks += relator_checks


def _over_budget(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"search exceeded node budget {budget}")


def _deduction(word: Word, g: str, loose: AbstractSet[str]
               ) -> Optional[Tuple[Word, Word]]:
    """(Q^-1, W) for the cyclic conjugate Q*W of ``word`` in which W runs
    from an occurrence of g to an occurrence of g and Q holds every syllable
    on a generator of ``loose``, or None when those syllables fall in more
    than one cyclic gap between occurrences of g.  ``word`` is trivial
    exactly when its conjugate is, that is when W = Q^-1."""
    s = word.syllables
    # gap k follows the k-th occurrence of g; the gaps before the first
    # and after the last are one, so a third gap ends the scan early
    gaps, seen = set(), 0
    for h, _ in s:
        if h == g:
            seen += 1
        elif h in loose:
            gaps.add(seen)
            if len(gaps) > 2:
                return None
    gaps = {k % seen for k in gaps}
    if len(gaps) > 1:
        return None
    k = gaps.pop() if gaps else 0
    at = [i for i, (h, _) in enumerate(s) if h == g]
    start = at[k - 1] + 1
    rotated = s[start:] + s[:start]
    cut = (at[k] - start) % len(s)
    q, w = (Word._trusted(reduce_syllables(part))
            for part in (rotated[:cut], rotated[cut:]))
    return ~q, w


def _centralizer_generators(group: FiniteGroup, fixed: Sequence[int],
                            members: Sequence[int] = ()) -> Tuple[List[int], Sequence[int]]:
    """Indices of elements generating the centralizer of the elements of
    index ``fixed`` in H (of the ``members`` given, or A), and its members.

    When that centralizer is all of A, these are A's own generators, each a
    member of A, since only its builders make a group.  Otherwise they are
    picked greedily: in index order, every centralizing element outside the
    subgroup generated so far joins the generators.
    """
    n, columns = group.order, group.columns
    members = members or range(n)
    for p in fixed:
        members = group.centralized(p, members)
    if len(members) == n:
        return [group.index_of(s) for s in group.generators], members
    gens: List[int] = []
    inside = bytearray(n)
    inside[0] = 1
    elements = [0]
    for h in members:
        if inside[h]:
            continue
        gens.append(h)
        # close the subgroup again under right multiplication by every
        # generator; at most log2 |H| rounds, each about |H| * len(gens)
        frontier = list(elements)
        while frontier:
            nxt = []
            for column in map(columns.__getitem__, gens):
                for x in frontier:
                    y = column[x]
                    if not inside[y]:
                        inside[y] = 1
                        elements.append(y)
                        nxt.append(y)
            frontier = nxt
    return gens, members


def _conjugation_orbits(group: FiniteGroup, gens: Sequence[int]) -> Orbits:
    """The orbits of the subgroup generated by ``gens`` acting on A by
    conjugation, x -> h*x*h^-1, found breadth first through the generators'
    conjugation tables (``FiniteGroup.conjugates``), and no other product.

    Keyed by representative (the smallest index in the orbit), in
    increasing order.  Each orbit lists how its points were reached: None
    for the representative, then (j, table) for the point table[p], p the
    orbit's j-th point and table the conjugation table of a generator, as
    the right operand ``permgroups._packing(|A|)`` composes a key with.
    """
    n = group.order
    conj = list(map(_packing(n)[1], map(group.conjugates, gens)))
    seen = bytearray(n)
    orbits: Orbits = {}
    for rep in range(n):
        if seen[rep]:
            continue
        seen[rep] = 1
        points, orbit = [rep], [None]
        for j, point in enumerate(points):  # grows while it is read
            for table in conj:
                y = table[point]
                if not seen[y]:
                    seen[y] = 1
                    points.append(y)
                    orbit.append((j, table))
        orbits[rep] = orbit
    return orbits


def count_homs(presentation: Presentation, group: FiniteGroup,
               constraint: Mapping[str, Permutation] | None = None,
               mode: str = "backtrack", materialize: bool = False,
               ) -> HomSearchResult:
    """Count (or list) homomorphisms satisfying the pinning constraint.

    ``constraint`` maps generators to required images.  Counts and listings
    from the two modes always agree; a listing (``materialize``) is the
    result's ``leaves``, in the plain walk's order (index tuples in
    declaration order, lexicographically).
    A search refuses to visit more than ``MAX_SEARCH_NODES`` nodes, and a
    listing to hold more than ``MAX_LISTED_HOMS`` homomorphisms; ``naive``,
    which counts exactly |A|^(unpinned) nodes, compares that with
    ``MAX_SEARCH_NODES`` before it starts (GroupTooLargeError).

    Both modes walk the pinned generators first, each at its one value,
    then the others, each part in declaration order, and check a relator at
    the level of its last walked generator, relators of one level in
    declaration order; a listing maps its leaves back to declaration order
    and sorts them.  Backtracking walks up to conjugacy (module docstring):
    each unpinned walked level k, up to the first solved one, takes the
    smallest index of each orbit of H_k, the elements of A that commute
    with the walked pinned images and the values before k.  A solution
    counts the product of its values' orbit sizes; a listing conjugates it
    once per point of the innermost orbit, then each of those once per
    point of the next orbit out, and so on, each row one packed key.  When
    counting, a generator in no relator is not walked and multiplies the
    count by |A| (1 if pinned).

    A later unpinned level solved from a relator Q*W (module docstring)
    takes only the values v with W(v) = Q^-1 from a table of W's values,
    Q^-1 computed as a line of the level of its last generator and W once
    for each entry of the table; orbit weighting, the level's other
    checks, counts and listings are unchanged.

    Work counters: a node is one value tried for an unpinned generator, or
    one entry of a solved level's table (backtrack), or one complete
    assignment (naive); ``MAX_SEARCH_NODES`` bounds them all, charged for a
    table before it is built and for a level's values (or table hit) on
    entering it, before any is tried.  A relator check is one relator
    evaluation, or one reading of Q^-1 on entering a solved level.  Both
    count the reduced walk in backtrack (each orbit representative one
    node).  Naive's nodes are |A|^(unpinned), set before its walk, and each
    of its checks counts once for every complete assignment below the
    check's level, so both count every assignment.
    """
    pins = dict(constraint or {})
    for gen, value in pins.items():
        if gen not in presentation.generators:
            raise UnknownGeneratorError(f"pinned generator {quoted(gen)} not declared")
        if value not in group:
            raise NotAMemberError(f"pinned value {value} is not an element of {group.label}")
    unpinned = [g for g in presentation.generators if g not in pins]
    if mode == "naive" and product_exceeds([group.order] * len(unpinned), MAX_SEARCH_NODES):
        raise GroupTooLargeError(
            f"naive search space {group.order}^{len(unpinned)} exceeds cap {MAX_SEARCH_NODES}")
    if mode not in ("naive", "backtrack"):
        raise InvalidParameterError(f"unknown search mode {quoted(mode)}")

    n, columns = group.order, group.columns
    # naive's nodes are its assignments, counted here and not by the walk
    stats = SearchStats(n ** len(unpinned) if mode == "naive" else 0)
    # the walked generators, pinned first; a counting backtrack leaves out
    # the generators no relator constrains
    walked = tuple(g for g in presentation.generators if g in pins) + tuple(unpinned)
    supports = [rel.generators() for rel in presentation.relators]
    free = 0
    if mode == "backtrack" and not materialize:
        bound = set().union(*supports)
        walked = tuple(g for g in walked if g in bound)
        free = sum(1 for g in unpinned if g not in bound)
    slots = {g: i for i, g in enumerate(walked)}
    # one level per walked generator, or one level with one value when no
    # generator is walked, so that the walk still reaches its one leaf
    values: List[Sequence[int]] = [
        (group.index_of(pins[g]),) if g in pins else range(n) for g in walked
    ] or [(0,)]
    program = lambda word, start=len(values): _compile(word, slots, group, start)
    # the first unpinned walked generator ranges over orbit representatives;
    # otherwise every orbit is one point
    first = next((i for i, g in enumerate(walked) if g not in pins), None)
    splits: List[Optional[Tuple[Word, Word]]] = [None] * len(values)
    at_level: List[List[Word]] = [[] for _ in values]
    for support, rel in zip(supports, presentation.relators):
        at_level[max(slots[g] for g in support)].append(rel)
    if mode == "naive":
        # a check counts once for each complete assignment below its level
        counted = [False] * len(values)
        charges = [n ** min(len(unpinned), len(values) - 1 - level)
                   for level in range(len(values))]
    else:
        counted = [g not in pins for g in walked] or [False]
        charges = [1] * len(values)
        # a level after the first unpinned one is solved from its first
        # relator whose syllables on earlier unpinned generators lie in one
        # gap between occurrences of the level's generator
        loose = set()
        for level in range(first + 1, len(walked)) if first is not None else ():
            loose.add(walked[level - 1])
            for i, rel in enumerate(at_level[level]):
                splits[level] = _deduction(rel, walked[level], loose)
                if splits[level]:
                    del at_level[level][i]
                    break
    checks = [list(map(program, rels)) for rels in at_level]
    inverses = [split and program(split[0]) for split in splits]
    levels, inverse_slots, size = _schedule(checks, inverses, group.powers(1))
    # W computes its own temporaries, in slots past the levels'
    solved = [split and (slot, program(split[1], size))
              for split, slot in zip(splits, inverse_slots)]
    size += max((len(w[0]) for _, w in filter(None, solved)), default=0)

    # at level k, chain[k] holds H_k's members, orbits and representatives,
    # or None, and weight[k] the product of the earlier values' orbit sizes
    chain: List[Optional[Tuple[Sequence[int], Orbits, Tuple[int, ...]]]] = [None] * len(values)
    weight = [1] * len(values)
    narrowed, last = None, 0
    if mode == "backtrack" and first is not None:
        gens, members = _centralizer_generators(group, [v[0] for v in values[:first]])
        orbits = _conjugation_orbits(group, gens)
        chain[first] = members, orbits, tuple(orbits)
        values[first] = chain[first][2]
        # a solved level keeps its table's values and ends the chain
        last = next((k - 1 for k in range(first + 1, len(values)) if splits[k]), len(values) - 1)

        def narrow(level: int, r: int) -> Sequence[int]:
            # one value per orbit of H_level = C_H(r), H = H_(level - 1)
            held = chain[level - 1]
            size = len(held[1][r]) if held else 1
            weight[level] = weight[level - 1] * size
            if held is None or size == len(held[0]):
                chain[level] = None  # |H_level| = |H| / |H-orbit of r| = 1
                return values[level]
            if size > 1:  # else H_level = H, and so are its orbits
                gens, members = _centralizer_generators(group, [r], held[0])
                orbits = _conjugation_orbits(group, gens)
                held = members, orbits, tuple(orbits)
            chain[level] = held
            return held[2]

        narrowed = range(first + 1, last + 1), narrow

    count = 0
    keys: List = []
    # a listing walks every generator; its leaves go back to declaration
    # order, each packed into one key (``permgroups._packing``)
    order = [slots[g] for g in presentation.generators] if materialize else []
    pack, _, compose = _packing(n)
    for assignment in _walk(values, counted, charges, levels, solved, size, columns,
                            stats, narrowed):
        held = chain[last]
        count += weight[last] * len(held[1][assignment[last]]) if held else weight[last]
        if materialize:
            orbits = [link[1][assignment[k]] for k, link in enumerate(chain) if link]
            # one key per point of the innermost orbit, then each of those
            # per point of the next orbit out, and so on: the key of the
            # point it was reached from, conjugated by that step's generator
            block = [pack(map(assignment.__getitem__, order))]
            for orbit in reversed(orbits):
                width = len(block)
                for j, operand in orbit[1:]:
                    block += map(compose, block[j * width:(j + 1) * width], repeat(operand))
            keys += block
            if len(keys) > MAX_LISTED_HOMS:
                raise BudgetExceededError(
                    f"listing exceeded the limit of {MAX_LISTED_HOMS} homomorphisms"
                )
    if count and free:
        count *= n ** free
    if not materialize:
        return HomSearchResult(count, stats)
    keys.sort()  # as the index tuples they hold sort
    return HomSearchResult(count, stats, list(map(tuple, keys)), group,
                           presentation.generators)


def meridian_search(presentation: Presentation, marker: str,
                    group: FiniteGroup, sigma: Permutation,
                    mode: str = "backtrack", materialize: bool = False
                    ) -> HomSearchResult:
    """Search for homomorphisms sending the marked word to ``sigma``.

    A marker that is a bare generator (or its inverse) pins that generator.
    Any other marker word w becomes a relator w*c^-1 on a new generator c
    pinned to ``sigma``; c is left out of the leaves and the listed
    assignments.
    """
    if marker not in presentation.markers:
        raise UnknownMarkerError(
            f"no marker {quoted(marker)}; have {quoted(sorted(presentation.markers))}"
        )
    word = presentation.markers[marker]
    (gen, exp), *rest = word.syllables
    if not rest and exp in (1, -1):  # g or g^-1: a direct pin
        return count_homs(presentation, group, {gen: sigma if exp == 1 else ~sigma},
                          mode=mode, materialize=materialize)
    c = "c"
    while c in presentation.generators:
        c += "'"
    augmented = Presentation(presentation.generators + (c,),
                             presentation.relators + (word * ~Word.generator(c),))
    result = count_homs(augmented, group, {c: sigma}, mode=mode,
                        materialize=materialize)
    if not materialize:
        return result
    # c is declared last and has one value, so dropping it keeps the order
    return replace(result, leaves=[leaf[:-1] for leaf in result.leaves],
                   generators=presentation.generators)


def meridian_invariant(presentation: Presentation, marker: str,
                       group: FiniteGroup, sigma: Permutation,
                       mode: str = "backtrack") -> int:
    """Number of homomorphisms sending the marked word to ``sigma``.

    This is the knot invariant attached to a marked meridian: for a knot
    group with marked meridian and a finite group A with a chosen element,
    it counts the representations pinning the meridian's image.
    """
    return meridian_search(presentation, marker, group, sigma, mode=mode).count

