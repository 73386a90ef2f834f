"""Finite permutation groups with full element enumeration.

Composition convention
----------------------
``p * q`` means *apply p first, then q*: ``(p * q)(i) = q(p(i))``.  Words
evaluate left to right under this convention, matching the order in which
group elements are usually listed in computer algebra systems built around
right actions.  Every stored or printed example in this package assumes it.
Conjugacy and homomorphism *counts* do not depend on the convention, but
whether a *specific* generator assignment satisfies a relator does.

Groups are tiny here (at most ``MAX_GROUP_ORDER`` = 10^6 elements, and at
most ``MAX_GROUP_POINTS`` = 10^7 image slots), so they are materialized as
explicit element lists; the homomorphism search needs the element list
anyway, and conjugacy can then be decided by exhaustive search rather than
cycle type, which matters in alternating groups where classes split.  For
the search, a group also multiplies its elements by index, through a
product table (``FiniteGroup.columns``).

Points are 0-based internally; all I/O uses 1-based cycle notation such as
``(1,5,4,3,2)``, with ``()`` for the identity.  A literal (spaces removed)
is ``()``, empty, or cycles of at least two decimal points; a ``gen:`` list
is such literals, comma separated.  Each grammar is one anchored pattern,
and anything else (signs, ``_``, tabs, empty or unbalanced pieces) is an
InvalidParameterError.
"""

from __future__ import annotations

import re
import struct
from array import array
from itertools import accumulate, compress, permutations as _all_perms, product
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DegreeMismatchError,
    GroupTooLargeError,
    InvalidParameterError,
    NotAMemberError,
    quoted,
    read_decimal,
)

# Most elements a group may have; read at each build, never passed per call.
MAX_GROUP_ORDER = 10**6

# Most points a group may hold, each an 8-byte slot of an image tuple: order
# times degree (S9 on its 9 points holds 3.3 * 10^6).  Above 256 points the
# identity and each generator are built afresh, with a new 32-byte int object
# per point, so each of their points counts four more (_fresh_points).  This
# bounds the slots, not the per-element objects around them: S9 holds 26 MB
# of slots but its build peaks at 184 MB.
MAX_GROUP_POINTS = 10**7

# Groups up to this order get a full product table (order^2 entries of
# one byte up to order 256 and two bytes above, 2 MiB at the limit);
# larger ones multiply on the fly.
TABLE_MAX_ORDER = 1024


class Permutation:
    """A bijection of {0, ..., degree-1}, stored as its image tuple."""

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise InvalidParameterError(f"not a bijection of 0..{len(imgs)-1}: {imgs}")
        self._images = imgs

    @classmethod
    def _raw(cls, images: Tuple[int, ...]) -> "Permutation":
        # internal: trusted image tuple, skips the bijection check
        p = cls.__new__(cls)
        p._images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build from disjoint 1-based cycles, e.g. ``[(1,5,4,3,2)]``."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for p in cycle:
                if not 1 <= p <= degree:
                    raise InvalidParameterError(
                        f"cycle point {p} outside 1..{degree}"
                    )
                if p in seen:
                    raise InvalidParameterError(f"point {p} repeated across cycles")
                seen.add(p)
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + 1) % len(cycle)] - 1
        # every point in range and none repeated: the images are a bijection
        return cls._raw(tuple(images))

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> Tuple[int, ...]:
        return self._images

    def __call__(self, point: int) -> int:
        return self._images[point]

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self._images))

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Disjoint cycles on 1-based points, fixed points omitted.

        Each cycle starts at its smallest point; cycles are sorted by their
        starting point, giving a canonical form.
        """
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self._images[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            j = self._images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self._images[j]
            out.append(tuple(p + 1 for p in cycle))
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()), 1)

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatchError(
                f"cannot compose degree {self.degree} with degree {other.degree}"
            )
        # apply self first, then other
        o = other._images
        return Permutation._raw(tuple(o[i] for i in self._images))

    def __invert__(self) -> "Permutation":
        out = [0] * self.degree
        for i, img in enumerate(self._images):
            out[img] = i
        return Permutation._raw(tuple(out))

    def __pow__(self, k: int) -> "Permutation":
        if not isinstance(k, int):
            return NotImplemented
        if k == 1:
            return self
        if k == -1:
            return ~self
        base = self if k >= 0 else ~self
        k = abs(k)
        acc = Permutation.identity(self.degree)
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation{str(self)!r}"


# A permutation literal: "()" or one or more cycles of at least two points;
# a gen: list, its spaces removed, is such literals in brackets.  The
# patterns are compiled on first use, by the re module's cache.
_LITERAL = r"\(\)|(?:\(\d+(?:,\d+)+\))+"
_GEN_LIST = rf"\[(?:(?:{_LITERAL})(?:,(?:{_LITERAL}))*)?\]"


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation: ``(1,5,4,3,2)``, ``(1,2)(3,4)``, ``()``."""
    s = text.replace(" ", "")
    if s and not re.fullmatch(_LITERAL, s):
        raise InvalidParameterError(f"bad permutation literal {quoted(text)}")
    cycles = [
        [read_decimal(p, "a cycle point has more than {} digits") for p in cycle.split(",")]
        for cycle in re.findall(r"\d+(?:,\d+)+", s)
    ]
    return Permutation.from_cycles(cycles, degree)


class FiniteGroup:
    """A finite permutation group given by its complete element list.

    The identity is always first; the rest of the list is in a fixed,
    deterministic order so that searches iterating over elements are
    reproducible.  Instances are immutable after construction, apart from
    the product and power tables, which are built on first use.

    For the search, elements are also their indices 0..n-1 in the list
    (``index`` maps an element to its index; 0 is the identity), and a
    word is evaluated by folding left to right over two lookups:

    * ``columns[b][a]`` is the index of ``elements[a] * elements[b]``;
    * ``powers(e)[i]`` is the index of ``elements[i] ** e``,

    so one syllable ``g^e`` with g's image at index i turns an accumulated
    index ``acc`` into ``columns[powers(e)[i]][acc]``.

    Up to ``TABLE_MAX_ORDER`` each column is stored: one byte per entry up
    to order 256, two bytes above.  The column for b (all a*b) is derived
    from the column of b's parent p in a breadth-first walk over right
    multiplication by the group's generators, b = p*s: then a*b = (a*p)*s
    is one lookup in the table of right multiplication by s.  A column is a
    permutation of the indices, so it composes as one (``_packing``): a
    whole column is one C-level pass.  The tables of right multiplication
    cost n*k compositions of image tuples for k generators, none when the
    group was built by a walk that recorded them (``generated_group``).
    Elements the generators do not reach get their column from direct
    products.  Above the limit, products and powers are composed on the
    fly from the permutations.
    """

    def __init__(self, degree: int, elements: Sequence[Permutation],
                 generators: Sequence[Permutation], label: str = ""):
        elems = tuple(elements)
        if not elems or not elems[0].is_identity:
            raise InvalidParameterError("element list must start with the identity")
        if any(g.degree != degree for g in elems):
            raise DegreeMismatchError("element degree differs from group degree")
        index = dict(zip(elems, range(len(elems))))
        if len(index) != len(elems):
            raise InvalidParameterError("duplicate element in group list")
        self.degree = degree
        self.elements = elems
        self.generators = tuple(generators)
        self.label = label or f"gen:{degree}"
        self.index = index
        # per generator s, the index of elements[i] * s at position i, when
        # the builder formed those products anyway (trusted, not checked)
        self._right_products: Optional[List[List[int]]] = None
        self._columns: Optional[Sequence[Sequence[int]]] = None
        # per element index i, the indices of i^0, i^1, ... up to its
        # order; None above TABLE_MAX_ORDER
        self._cycles: Optional[List[List[int]]] = None
        self._powers: Dict[int, Sequence[int]] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    @property
    def columns(self) -> Sequence[Sequence[int]]:
        """The product table, column b holding every a*b (built on first use)."""
        if self._columns is None:
            if self.order > TABLE_MAX_ORDER:
                self._columns = _Products(self.elements)
            else:
                self._columns, self._cycles = self._table(), []
                for i, col in enumerate(self._columns):
                    cycle, p = [0], i
                    while p:
                        cycle.append(p)
                        p = col[p]
                    self._cycles.append(cycle)
        return self._columns

    def powers(self, e: int) -> Sequence[int]:
        """The index of each element's ``e``-th power (cached)."""
        table = self._powers.get(e)
        if table is None:
            columns = self.columns
            if self._cycles is None:
                elements = self.elements
                table = _Composed(lambda i: columns.index_of(elements[i] ** e))
            else:
                table = tuple(c[e % len(c)] for c in self._cycles)
            self._powers[e] = table
        return table

    def _table(self) -> List[Sequence[int]]:
        n = self.order
        direct = None
        rights = self._right_products
        if rights is None:
            direct = _Products(self.elements)
            rights = [direct.column(s) for s in self.generators if s in self.index]
        pack, table, compose = _packing(n)
        rights = [table(right) for right in rights]
        # a column above order 256 is an image tuple while it is the parent
        # of others, and two bytes per entry once it has been walked
        two_bytes = struct.Struct(f"={n}H").pack
        store = bytes if n <= 256 else lambda col: array("H", two_bytes(*col))
        cols: List = [None] * n
        cols[0] = pack(range(n))
        walked = [0]
        # the list grows while it is walked: breadth-first from the identity
        for p in walked:
            for right in rights:
                b = right[p]
                if cols[b] is None:
                    cols[b] = compose(cols[p], right)
                    walked.append(b)
            cols[p] = store(cols[p])
        for b, col in enumerate(cols):
            if col is None:
                direct = direct or _Products(self.elements)
                cols[b] = store(direct.column(self.elements[b]))
        return cols

    def __contains__(self, p: Permutation) -> bool:
        return p in self.index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def _byte_table(images: Sequence[int]) -> bytes:
    """A permutation of at most 256 points as a ``bytes.translate`` table."""
    return bytes(images).ljust(256, b"\0")


def _compose_tuples(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    return itemgetter(*p)(q)  # above 256 points, so always a tuple


def _packing(degree: int):
    """How permutations of ``degree`` points compose in C, as
    ``(pack, table, compose)``: ``pack`` turns an image tuple into a
    hashable key, ``table`` turns one into a right operand, and
    ``compose(pack(p), table(q)) == pack(p * q)``.  Up to 256 points a key
    is a byte string, which caches its hash, and ``bytes.translate``
    composes; above, a key is the image tuple itself."""
    if degree <= 256:
        return bytes, _byte_table, bytes.translate
    return tuple, tuple, _compose_tuples


class _Products:
    """Products of a group's elements by index, each composed when asked:
    the ``columns`` of a group above TABLE_MAX_ORDER, and the columns a
    table cannot derive from its generators."""

    def __init__(self, elements: Sequence[Permutation]):
        self.elements = elements
        self._pack, self._table, self._compose = _packing(elements[0].degree)
        self._keys = [self._pack(g._images) for g in elements]
        self._at = dict(zip(self._keys, range(len(elements))))

    def _find(self, key) -> int:
        try:
            return self._at[key]
        except KeyError:
            raise InvalidParameterError(
                f"{Permutation._raw(tuple(key))} is not in the group's element list"
            ) from None

    def index_of(self, p: Permutation) -> int:
        return self._find(self._pack(p._images))

    def column(self, s: Permutation) -> List[int]:
        """The index of a*s for every element a, in element order."""
        compose, table = self._compose, self._table(s._images)
        return [self._find(compose(a, table)) for a in self._keys]

    def __getitem__(self, b: int) -> "_Composed":
        """Column b: the index of a*b for every element a, composed when read."""
        compose, keys = self._compose, self._keys
        right = self._table(self.elements[b]._images)
        return _Composed(lambda a: self._find(compose(keys[a], right)))


class _Composed(dict):
    """A column or power table above TABLE_MAX_ORDER: entry i is
    ``entry(i)``, computed when first read."""

    def __init__(self, entry: Callable[[int], int]):
        super().__init__()
        self.entry = entry

    def __missing__(self, i: int) -> int:
        value = self[i] = self.entry(i)
        return value


def product_exceeds(factors: Iterable[int], cap: int) -> bool:
    """Whether the product of ``factors`` exceeds ``cap``, multiplying only
    until it does, so a huge product is never built."""
    return any(p > cap for p in accumulate(factors, mul, initial=1))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n, elements in lexicographic image order (identity first)."""
    if n < 1:
        raise InvalidParameterError("degree must be at least 1")
    if product_exceeds(range(2, n + 1), MAX_GROUP_ORDER):
        raise GroupTooLargeError(f"|S_{n}| = {n}! exceeds cap {MAX_GROUP_ORDER}")
    elems = list(map(Permutation._raw, _all_perms(range(n))))
    gens = [Permutation.from_cycles([(1, 2)], n)] if n >= 2 else []
    if n >= 3:
        gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], n))
    return FiniteGroup(n, elems, gens, label=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    """A_n, the even permutations of S_n in lexicographic image order."""
    if n < 1:
        raise InvalidParameterError("degree must be at least 1")
    if product_exceeds(range(3, n + 1), MAX_GROUP_ORDER):  # n!/2 = 3*4*...*n
        raise GroupTooLargeError(f"|A_{n}| = {n}!/2 exceeds cap {MAX_GROUP_ORDER}")
    # permutations() and product() both run in lexicographic order, so each
    # permutation meets its Lehmer code, whose digit sum is its number of
    # inversions
    lehmer = product(*map(range, range(n, 0, -1)))
    even = (not sum(code) & 1 for code in lehmer)
    elems = list(map(Permutation._raw, compress(_all_perms(range(n)), even)))
    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles([(1, 2, 3)], n))
    if n >= 4:
        cycle = tuple(range(1, n + 1)) if n % 2 == 1 else tuple(range(2, n + 1))
        gens.append(Permutation.from_cycles([cycle], n))
    return FiniteGroup(n, elems, gens, label=f"A{n}")


def _fresh_points(degree: int, generators: int) -> int:
    """Points beyond order times degree for the identity and ``generators``
    generators: their new int objects, none up to 256 points, where every
    image is one of the interpreter's shared small ints."""
    return 0 if degree <= 256 else 4 * degree * (1 + generators)


def _check_degree(degree: int, generators: int) -> None:
    """Refuse a degree at which the identity and ``generators`` generators
    alone would pass ``MAX_GROUP_POINTS``, before any of them is built."""
    points = degree + _fresh_points(degree, generators)
    if points > MAX_GROUP_POINTS:
        raise GroupTooLargeError(
            f"degree {degree} exceeds the cap of {MAX_GROUP_POINTS} points: "
            f"the identity and generators count {points}")


def generated_group(degree: int, generators: Sequence[Permutation], *,
                    label: str = "") -> FiniteGroup:
    """Subgroup of S_degree generated by ``generators``.

    Breadth-first closure starting from the identity; element order is the
    deterministic BFS discovery order.  The walk forms every product h*g,
    so it records their indices for the group's product table.
    """
    if degree < 1:
        raise InvalidParameterError("degree must be at least 1")
    gens = tuple(generators)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError("generator degree differs from group degree")
    _check_degree(degree, len(gens))
    # degree points an element, after the identity's and generators' ints
    cap = min(MAX_GROUP_ORDER,
              (MAX_GROUP_POINTS - _fresh_points(degree, len(gens))) // degree)
    pack, table, compose = _packing(degree)
    ident = pack(range(degree))
    seen = {ident: 0}
    ordered = [ident]
    tables = [table(g._images) for g in gens]
    rights: List[List[int]] = [[] for _ in gens]
    # the list grows while it is walked, so h runs through the elements in
    # discovery order, and rights[k][i] is the index of ordered[i] * gens[k]
    for h in ordered:
        for g, right in zip(tables, rights):
            prod = compose(h, g)
            at = seen.get(prod)
            if at is None:
                at = seen[prod] = len(ordered)
                ordered.append(prod)
                if len(seen) > cap:
                    raise GroupTooLargeError(
                        f"generated group exceeds cap {cap} (at most "
                        f"{MAX_GROUP_ORDER} elements, {MAX_GROUP_POINTS} points)")
            right.append(at)
    elements = list(map(Permutation._raw, map(tuple, ordered)))
    group = FiniteGroup(degree, elements, gens, label=label or f"gen:{degree}")
    group._right_products = rights
    return group


def group_from_spec(spec: str) -> FiniteGroup:
    """Build a group from a spec string: ``S4``, ``A5``, or
    ``gen:DEGREE:[(1,2,3),(1,2)]``."""
    s = spec.strip()
    m = re.fullmatch(r"([SA])(\d+)|gen:(\d+):(.*)", s, re.DOTALL)
    if not m:
        raise InvalidParameterError(f"bad group spec {quoted(spec)}")
    kind, n, degree_digits, body = m.groups()
    if kind:
        n = read_decimal(n, "a group degree has more than {} digits")
        return symmetric_group(n) if kind == "S" else alternating_group(n)
    degree = read_decimal(degree_digits, "a group degree has more than {} digits")
    body = body.strip().replace(" ", "")
    if not re.fullmatch(_GEN_LIST, body):
        raise InvalidParameterError(f"bad group spec {quoted(spec)}")
    literals = re.findall(_LITERAL, body)
    _check_degree(degree, len(literals))  # before any literal is read
    gens = [parse_permutation(lit, degree) for lit in literals]
    return generated_group(degree, gens, label=s)


def find_conjugator(g: Permutation, h: Permutation, group: FiniteGroup
                    ) -> Optional[Permutation]:
    """An element k of ``group`` with k * g * ~k == h, or None.

    Exhaustive search over the whole element list, *not* a cycle-type
    comparison: conjugacy classes of the full symmetric group can split
    inside a subgroup (3-cycles in A_4, 5-cycles in A_5), and this search
    decides conjugacy inside ``group`` itself.
    """
    if g not in group:
        raise NotAMemberError(f"{g} is not an element of {group.label}")
    if h not in group:
        raise NotAMemberError(f"{h} is not an element of {group.label}")
    for k in group.elements:
        if k * g * ~k == h:
            return k
    return None


def are_conjugate(g: Permutation, h: Permutation, group: FiniteGroup) -> bool:
    """Whether g and h are conjugate inside ``group`` (witness discarded)."""
    return find_conjugator(g, h, group) is not None
