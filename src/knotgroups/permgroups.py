"""Finite permutation groups with full element enumeration.

Composition convention
----------------------
``p * q`` means *apply p first, then q*: ``(p * q)(i) = q(p(i))``.  Words
evaluate left to right under this convention, matching the order in which
group elements are usually listed in computer algebra systems built around
right actions.  Every stored or printed example in this package assumes it.
Conjugacy and homomorphism *counts* do not depend on the convention, but
whether a *specific* generator assignment satisfies a relator does.

Groups are tiny here (at most ``MAX_GROUP_POINTS`` = 10^7 points, order
times degree, so at most 10^6 elements at any degree), so a group lists all
its elements, as packed keys multiplied by index (``FiniteGroup``), and
conjugacy is decided by exhaustive search rather than cycle type, which
matters in alternating groups where classes split.

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
from itertools import accumulate, compress, permutations as _all_perms, product, repeat
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

# Most points a group may hold, read at each build, never passed per call:
# order times degree (S9 on its 9 points holds 3.3 * 10^6, S10 on 10 would
# hold 3.6 * 10^7), one slot of an element's key each.  Above 256 points the
# identity and each generator are built afresh, with a new 32-byte int object
# per point, so each of their points counts four more (_fresh_points).  A group
# is its keys and their dict: a `count` into S9 peaks at 77-86 MB in all.
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
                    raise InvalidParameterError(f"cycle point {p} outside 1..{degree}")
                if p in seen:
                    raise InvalidParameterError(f"point {p} repeated across cycles")
                seen.add(p)
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + 1) % len(cycle)] - 1
        # every point in range and none repeated: the images are a bijection
        return cls._raw(tuple(images))

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
        images, seen, out = self._images, set(), []
        for start in range(self.degree):
            if start in seen or images[start] == start:
                continue
            cycle = [start]
            while images[cycle[-1]] != start:
                cycle.append(images[cycle[-1]])
            seen.update(cycle)
            out.append(tuple(p + 1 for p in cycle))
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()), 1)

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __str__(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles()) or "()"

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
    """A finite permutation group, stored as one packed key per element.

    Element i is the key ``_packing`` makes of its image tuple.  A group is
    one list of keys, the identity's first and the rest in a fixed order so
    that searches are reproducible, and one dict from key to index.  A
    ``Permutation`` is made only where one is read: ``elements[i]`` makes
    element i, and ``index_of`` and ``in`` look a permutation's key up.

    The search multiplies indices 0..n-1 (0 is the identity) by two tables,
    built on first use: ``columns[b][a]`` is the index of a*b and
    ``powers(e)[i]`` that of i^e, so a syllable g^e with g at index i turns
    ``acc`` into ``columns[powers(e)[i]][acc]``.  Up to ``TABLE_MAX_ORDER``
    every column is stored, one byte an entry up to order 256 and two above.
    The column of b = p*s, for p reached earlier in a breadth-first walk and
    s a generator, is p's column composed with the table of right
    multiplication by s, as permutations of the indices: one C-level pass.
    The right tables cost n*k key compositions for k generators, none when
    ``generated_group`` recorded them; columns the walk does not reach are
    direct products.  Above the limit, ``_Products`` composes products and
    powers from the keys when they are read.
    """

    def __init__(self, degree: int, elements: Sequence[Permutation],
                 generators: Sequence[Permutation], label: str = ""):
        elems = tuple(elements)
        if not elems or not elems[0].is_identity:
            raise InvalidParameterError("element list must start with the identity")
        if any(g.degree != degree for g in elems):
            raise DegreeMismatchError("element degree differs from group degree")
        pack = _packing(degree)[0]
        self._adopt(degree, [pack(g._images) for g in elems], generators, label)
        if len(self._at) != len(elems):
            raise InvalidParameterError("duplicate element in group list")

    @classmethod
    def _of_keys(cls, degree, keys, generators, label, at=None, right_products=None):
        """A builder's group of trusted keys, and their index dict ``at``."""
        group = cls.__new__(cls)
        group._adopt(degree, keys, generators, label, at, right_products)
        return group

    def _adopt(self, degree, keys, generators, label, at=None, right_products=None):
        self.degree = degree
        self.generators = tuple(generators)
        self.label = label or f"gen:{degree}"
        self._pack = _packing(degree)[0]
        self._keys: List = keys
        self._at: Dict = dict(zip(keys, range(len(keys)))) if at is None else at
        # per generator s, the index of element i * s at position i, if the
        # builder formed those products anyway (trusted, not checked)
        self._right_products: Optional[List[List[int]]] = right_products
        self._columns: Optional[Sequence[Sequence[int]]] = None
        # per element i, the indices of i^0, i^1, ... up to its order
        self._cycles: Optional[List[List[int]]] = None
        self._powers: Dict[int, Sequence[int]] = {}

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def elements(self) -> "_Elements":
        """The elements in index order, each made when it is read."""
        return _Elements(self._keys)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def _key(self, p: Permutation):
        """The key of ``p``, or None when its degree is not the group's."""
        return self._pack(p._images) if p.degree == self.degree else None

    def index_of(self, p: Permutation) -> int:
        """The index of element ``p`` (KeyError if it is none)."""
        return self._at[self._key(p)]

    @property
    def columns(self) -> Sequence[Sequence[int]]:
        """The product table, column b holding every a*b (built on first use)."""
        if self._columns is None:
            if self.order > TABLE_MAX_ORDER:
                self._columns = _Products(self)
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
            table = self._powers[e] = (
                _Composed(lambda i: columns.power(i, e)) if self._cycles is None
                else tuple(c[e % len(c)] for c in self._cycles))
        return table

    def conjugates(self, s: int) -> List[int]:
        """The index of s*x*s^-1 for each element x, in index order: two
        lookups an entry in the product table, or above ``TABLE_MAX_ORDER``
        two compositions of keys and one dict lookup, with no column made."""
        if self.order > TABLE_MAX_ORDER:
            pack, table, compose = _packing(self.degree)
            key, at = self._keys[s], self._at
            back = table(pack(sorted(range(self.degree), key=key.__getitem__)))
            return [at[compose(compose(key, table(x)), back)] for x in self._keys]
        columns = self.columns
        by = columns[self.powers(-1)[s]]  # x -> x*s^-1
        return [columns[by[x]][s] for x in range(self.order)]

    def _table(self) -> List[Sequence[int]]:
        n = self.order
        direct = _Products(self)
        column = lambda b: list(map(direct[b].__getitem__, range(n)))
        rights = self._right_products
        if rights is None:
            # a*s for every element a, in one C-level pass over the keys
            keys, at = self._keys, self._at
            right = lambda s: repeat(direct.table(self._key(s)))
            try:
                rights = [list(map(at.__getitem__, map(direct.compose, keys, right(s))))
                          for s in self.generators if s in self]
            except KeyError as outside:
                direct.find(outside.args[0])  # raises the group's own error
                raise
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
                cols[b] = store(column(b))
        return cols

    def __contains__(self, p: Permutation) -> bool:
        return self._key(p) in self._at

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


class _Elements(Sequence):
    """A group's elements in index order, each a ``Permutation`` made from
    its key when it is read; equal when the groups' keys are."""

    def __init__(self, keys: List):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [Permutation._raw(tuple(key)) for key in self._keys[i]]
        return Permutation._raw(tuple(self._keys[i]))

    def __eq__(self, other) -> bool:
        return self._keys == other._keys if isinstance(other, _Elements) else NotImplemented


def _packing(degree: int):
    """How permutations of ``degree`` points compose in C, as
    ``(pack, table, compose)``: ``pack`` turns an image tuple into a
    hashable key, ``table`` turns one, or a key, into a right operand, and
    ``compose(pack(p), table(q)) == pack(p * q)``.  Up to 256 points a key
    is a byte string, which caches its hash, and ``bytes.translate`` composes
    through a 256-byte table; above, a key is the tuple, and a tuple of more
    than one point composes by ``itemgetter``."""
    if degree <= 256:
        return bytes, lambda images: bytes(images).ljust(256, b"\0"), bytes.translate
    return tuple, tuple, lambda p, q: itemgetter(*p)(q)


class _Products:
    """Products and powers by index, composed from the group's own keys
    and looked up in its own dict when read: the ``columns`` of a group above
    TABLE_MAX_ORDER, and the columns a table cannot derive."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.pack, self.table, self.compose = _packing(group.degree)

    def find(self, key) -> int:
        try:
            return self.group._at[key]
        except KeyError:
            raise InvalidParameterError(
                f"{Permutation._raw(tuple(key))} is not in the group's element list") from None

    def __getitem__(self, b: int) -> "_Composed":
        """Column b: the index of a*b for every element a, composed when read."""
        compose, keys, find = self.compose, self.group._keys, self.find
        right = self.table(keys[b])
        return _Composed(lambda a: find(compose(keys[a], right)))

    def power(self, a: int, e: int) -> int:
        """The index of a^e, squaring a's key, or for e < 0 its inverse's,
        which sends each image back to its point."""
        key, acc = self.group._keys[a], self.group._keys[0]
        if e < 0:
            key, e = self.pack(sorted(range(len(key)), key=key.__getitem__)), -e
        while e:
            right = self.table(key)
            acc = self.compose(acc, right) if e & 1 else acc
            key, e = self.compose(key, right), e >> 1
        return self.find(acc)


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
    cap = MAX_GROUP_POINTS // n
    if product_exceeds(range(2, n + 1), cap):
        raise GroupTooLargeError(f"|S_{n}| = {n}! exceeds cap {cap} elements on {n} points")
    keys = list(map(_packing(n)[0], _all_perms(range(n))))
    gens = [Permutation.from_cycles([(1, 2)], n)] if n >= 2 else []
    if n >= 3:
        gens.append(Permutation.from_cycles([tuple(range(1, n + 1))], n))
    return FiniteGroup._of_keys(n, keys, gens, f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    """A_n, the even permutations of S_n in lexicographic image order."""
    if n < 1:
        raise InvalidParameterError("degree must be at least 1")
    cap = MAX_GROUP_POINTS // n
    if product_exceeds(range(3, n + 1), cap):  # n!/2 = 3*4*...*n
        raise GroupTooLargeError(f"|A_{n}| = {n}!/2 exceeds cap {cap} elements on {n} points")
    # permutations() and product() both run in lexicographic order, so each
    # permutation meets its Lehmer code, whose digit sum is its number of
    # inversions
    lehmer = product(*map(range, range(n, 0, -1)))
    even = (not sum(code) & 1 for code in lehmer)
    keys = list(map(_packing(n)[0], compress(_all_perms(range(n)), even)))
    gens = [Permutation.from_cycles([(1, 2, 3)], n)] if n >= 3 else []
    if n >= 4:
        cycle = tuple(range(1, n + 1)) if n % 2 == 1 else tuple(range(2, n + 1))
        gens.append(Permutation.from_cycles([cycle], n))
    return FiniteGroup._of_keys(n, keys, gens, f"A{n}")


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
    deterministic BFS discovery order.  The group keeps the walk's keys and
    its key -> index dict as its own; the walk forms every product h*g, so
    it also hands over their indices for the group's product table.
    """
    if degree < 1:
        raise InvalidParameterError("degree must be at least 1")
    gens = tuple(generators)
    if any(g.degree != degree for g in gens):
        raise DegreeMismatchError("generator degree differs from group degree")
    _check_degree(degree, len(gens))
    # degree points an element, after the identity's and generators' ints
    cap = (MAX_GROUP_POINTS - _fresh_points(degree, len(gens))) // degree
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
                        f"generated group exceeds cap {cap} elements on {degree} points")
            right.append(at)
    return FiniteGroup._of_keys(degree, ordered, gens, label, seen, rights)


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
    for p in (g, h):
        if p not in group:
            raise NotAMemberError(f"{p} is not an element of {group.label}")
    for k in group.elements:
        if k * g * ~k == h:
            return k
    return None


def are_conjugate(g: Permutation, h: Permutation, group: FiniteGroup) -> bool:
    """Whether g and h are conjugate inside ``group`` (witness discarded)."""
    return find_conjugator(g, h, group) is not None
