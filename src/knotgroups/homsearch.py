"""Enumerate and count homomorphisms into finite permutation groups.

Given a presentation P and a finite group A, a map on generators extends to
a homomorphism iff every relator evaluates to the identity.  Two engines
compute the number of such maps, optionally with some generator images
pinned:

``naive``
    Walks the full product of |A|^(number of unpinned generators)
    assignments and checks every relator on each.  Transparent, and the
    parity oracle for the other engine.

``backtrack``
    Assigns generators in declaration order and evaluates each relator as
    soon as its last generator receives a value (a static trigger table is
    precomputed per presentation), pruning dead branches early.

Both engines return identical counts; the test suite leans on that.

The meridian invariant of a marked presentation counts homomorphisms whose
value on the marker word is a prescribed element.  A marker that is a bare
generator (or its inverse) is pinned directly; any other marker word is
handled by filtering complete assignments, which is slower but exact.

Both engines and the marker filter share one evaluator.  Each relator and
marker word is compiled once per search into a program over the group's
index form (``FiniteGroup.index_form``): one (generator slot, power table)
step per syllable.  The search itself is one iterative depth-first walk over
a list of element indices, so its depth is not bounded by the recursion
limit.  The search runs on the calling thread; ``jobs`` is accepted for
compatibility and changes nothing, so counts, listings, work counters and
budget refusals never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    BudgetExceededError,
    GroupTooLargeError,
    InvalidParameterError,
    NotAMemberError,
    UnknownGeneratorError,
    UnknownMarkerError,
)
from .permgroups import FiniteGroup, IndexForm, Permutation, are_conjugate, product_exceeds
from .presentations import Presentation
from .words import Word

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_NAIVE_CAP = 10**7

Assignment = Dict[str, Permutation]

# One (generator slot, IndexForm.powers(exponent)) step per syllable.
Program = Tuple[Tuple[int, Sequence[int]], ...]


@dataclass
class SearchStats:
    """Work counters of one search."""

    nodes: int = 0
    relator_checks: int = 0


@dataclass
class HomSearchResult:
    count: int
    assignments: Optional[List[Assignment]]
    stats: SearchStats = field(default_factory=SearchStats)


def check_constraint(presentation: Presentation, group: FiniteGroup,
                     pins: Mapping[str, Permutation]) -> Dict[str, Permutation]:
    """Validate a pinning constraint against presentation and group."""
    out = {}
    for gen, value in pins.items():
        if gen not in presentation.generators:
            raise UnknownGeneratorError(f"pinned generator {gen!r} not declared")
        if value not in group:
            raise NotAMemberError(
                f"pinned value {value} is not an element of {group.label}"
            )
        out[gen] = value
    return out


def is_homomorphism(presentation: Presentation, group: FiniteGroup,
                    assignment: Mapping[str, Permutation]) -> bool:
    """Whether a total generator assignment satisfies every relator."""
    ident = group.identity
    return all(
        rel.evaluate(assignment, group) == ident for rel in presentation.relators
    )


def compile_word(word: Word, presentation: Presentation, form: IndexForm) -> Program:
    """The program of ``word``; slots are generator positions in
    ``presentation``."""
    return tuple((presentation.generator_index(g), form.powers(e))
                 for g, e in word.syllables)


def evaluate(program: Program, values: Sequence[int], products: Sequence[int]) -> int:
    """Index of the compiled word's value when generator slot i has the
    element of index ``values[i]`` (``products`` of the same IndexForm)."""
    acc = 0
    for slot, powers in program:
        acc = products[powers[values[slot]] + acc]
    return acc


def _walk(values: Sequence[Sequence[int]], counted: Sequence[bool],
          checks: Sequence[Sequence[Program]], products: Sequence[int],
          node_budget: int, stats: SearchStats) -> Iterator[List[int]]:
    """Depth-first walk over index assignments, without recursion.

    Level i takes each value in ``values[i]`` in turn, spends a node if
    ``counted[i]``, and evaluates the programs ``checks[i]`` in order until
    one fails; a value that passes them all descends to level i + 1.  The
    caller passes one level more than there are generators, with a single
    dummy value; an assignment that passes it is yielded (the live list:
    copy what you keep).  Counters go to ``stats`` when the walk ends.
    """
    last = len(values) - 1
    assignment = [0] * len(values)
    todo = [iter(v) for v in values]
    nodes = relator_checks = 0
    level = 0
    while level >= 0:
        for value in todo[level]:
            if counted[level]:
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceededError(
                        f"search exceeded node budget {node_budget}"
                    )
            assignment[level] = value
            for program in checks[level]:
                relator_checks += 1
                # evaluate(program, assignment, products), inlined: this
                # loop is where the search spends its time
                acc = 0
                for slot, powers in program:
                    acc = products[powers[assignment[slot]] + acc]
                if acc:
                    break
            else:
                if level == last:
                    yield assignment
                    continue
                level += 1
                todo[level] = iter(values[level])
                break
        else:
            level -= 1
    stats.nodes += nodes
    stats.relator_checks += relator_checks


def count_homs(presentation: Presentation, group: FiniteGroup,
               constraint: Mapping[str, Permutation] | None = None,
               mode: str = "backtrack", materialize: bool = False,
               jobs: int = 1,
               node_budget: int = DEFAULT_NODE_BUDGET,
               naive_cap: int = DEFAULT_NAIVE_CAP,
               _marker: Optional[Tuple[Word, Permutation]] = None,
               ) -> HomSearchResult:
    """Count (or list) homomorphisms satisfying the pinning constraint.

    ``constraint`` maps generators to required images.  Counts from the two
    modes always agree; ``naive`` additionally refuses to start when
    |A|^(unpinned) exceeds ``naive_cap``.  ``jobs`` is accepted for
    compatibility and ignored: the search is sequential and deterministic.
    ``_marker`` = (word, sigma) keeps only assignments sending the word to
    sigma.

    Work counters: a node is one value tried for an unpinned generator
    (backtrack) or one complete assignment (naive); a relator check is one
    relator evaluation.  Backtracking settles relators on pinned generators
    alone once, before the walk.
    """
    pins = check_constraint(presentation, group, constraint or {})
    unpinned = [g for g in presentation.generators if g not in pins]
    if mode == "naive":
        if product_exceeds([group.order] * len(unpinned), naive_cap):
            raise GroupTooLargeError(
                f"naive search space {group.order}^{len(unpinned)} exceeds cap {naive_cap}"
            )
    if mode not in ("naive", "backtrack"):
        raise InvalidParameterError(f"unknown search mode {mode!r}")

    form = group.index_form
    products = form.products
    gens = presentation.generators
    stats = SearchStats()
    collected: Optional[List[Assignment]] = [] if materialize else None
    # one level per generator, then the leaf level with one dummy value
    values: List[Sequence[int]] = [
        (form.index[pins[g]],) if g in pins else range(group.order) for g in gens
    ] + [(0,)]
    relators = [(rel, compile_word(rel, presentation, form))
                for rel in presentation.relators]
    if mode == "naive":
        counted = [False] * len(gens) + [True]
        checks: List[List[Program]] = [[] for _ in gens] + [[p for _, p in relators]]
    else:
        counted = [g not in pins for g in gens] + [False]
        checks = [[] for _ in values]
        pinned = [v[0] for v in values]  # unpinned slots hold 0, unread here
        for rel, program in relators:
            if rel.generators() <= pins.keys():
                stats.relator_checks += 1
                if evaluate(program, pinned, products):
                    return HomSearchResult(0, collected, stats)
            else:
                last = max(presentation.generator_index(g) for g in rel.generators())
                checks[last].append(program)
    if _marker is not None:
        marker = compile_word(_marker[0], presentation, form)
        target = form.index[_marker[1]]

    count = 0
    for assignment in _walk(values, counted, checks, products, node_budget, stats):
        if _marker is not None and evaluate(marker, assignment, products) != target:
            continue
        count += 1
        if collected is not None:
            collected.append({g: form.elements[i] for g, i in zip(gens, assignment)})
    return HomSearchResult(count, collected, stats)


def _pin_from_marker(word: Word, target: Permutation
                     ) -> Optional[Dict[str, Permutation]]:
    """A single-generator marker word (g or g^-1) becomes a direct pin."""
    if len(word.syllables) != 1:
        return None
    gen, exp = word.syllables[0]
    if exp == 1:
        return {gen: target}
    if exp == -1:
        return {gen: ~target}
    return None


def meridian_search(presentation: Presentation, marker: str,
                    group: FiniteGroup, sigma: Permutation,
                    mode: str = "backtrack", materialize: bool = False,
                    jobs: int = 1,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    naive_cap: int = DEFAULT_NAIVE_CAP) -> HomSearchResult:
    """Search for homomorphisms sending the marked word to ``sigma``.

    Markers that are a bare generator (or its inverse) are pinned inside
    the search; other marker words are checked on complete assignments.
    """
    if marker not in presentation.markers:
        raise UnknownMarkerError(
            f"no marker {marker!r}; have {sorted(presentation.markers)}"
        )
    if sigma not in group:
        raise NotAMemberError(f"{sigma} is not an element of {group.label}")
    word = presentation.markers[marker]
    pins = _pin_from_marker(word, sigma)
    if pins is not None:
        return count_homs(presentation, group, pins, mode=mode,
                          materialize=materialize, jobs=jobs,
                          node_budget=node_budget, naive_cap=naive_cap)
    return count_homs(
        presentation, group, None, mode=mode, materialize=materialize,
        jobs=jobs, node_budget=node_budget, naive_cap=naive_cap,
        _marker=(word, sigma),
    )


def meridian_invariant(presentation: Presentation, marker: str,
                       group: FiniteGroup, sigma: Permutation,
                       mode: str = "backtrack", jobs: int = 1,
                       node_budget: int = DEFAULT_NODE_BUDGET,
                       naive_cap: int = DEFAULT_NAIVE_CAP) -> int:
    """Number of homomorphisms sending the marked word to ``sigma``.

    This is the knot invariant attached to a marked meridian: for a knot
    group with marked meridian and a finite group A with a chosen element,
    it counts the representations pinning the meridian's image.
    """
    return meridian_search(presentation, marker, group, sigma, mode=mode,
                           jobs=jobs, node_budget=node_budget,
                           naive_cap=naive_cap).count


def images_conjugate(presentation: Presentation, group: FiniteGroup,
                     assignment: Mapping[str, Permutation],
                     word1: Word, word2: Word) -> bool:
    """Whether a homomorphism maps two words to conjugate elements.

    ``assignment`` is expected to already be a homomorphism; the check is
    an exhaustive conjugacy search inside ``group``, so a ``False`` answer
    certifies non-conjugacy of the two images in the finite quotient.
    """
    e1 = word1.evaluate(assignment, group)
    e2 = word2.evaluate(assignment, group)
    return are_conjugate(e1, e2, group)
