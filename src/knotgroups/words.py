"""Exact arithmetic with freely reduced words in a free group.

A word is a sequence of syllables ``(generator, exponent)`` with nonzero
integer exponents and no two adjacent syllables sharing a generator.  The
empty word is the identity.  Free groups have unique reduced normal forms,
so structural equality of reduced words is equality in the free group.

Words are immutable and hashable; all operations return new words.

Every word has runs, ``Word.runs``: a tuple of (block, k), each block a
nonempty reduced syllable tuple, whose expansion, the blocks repeated k
times and joined in order, is exactly ``syllables``.  The runs are a
straight-line program for the word (Lohrey, *The Compressed Word Problem
for Groups*, 2014): each block is computed once and raised to its k.  One
rule finds them (``find_runs``): in a word written as pieces joined by
``*``, a run is a block of 2 to 8 pieces written out at least twice in a
row, and the pieces between runs are runs of k = 1.  The piece reader
(``presentations``) applies it to the text a word was written with;
every other word applies it to its syllables, spelled as ``*``-joined
ids, one per distinct syllable, when its runs are first read.  Equality
and hashing read the syllables alone; ``syllable_counts``, ``fox``'s rows
and the search's compiled relators read the runs.

Generator names follow one rule, the name token of the presentation grammar
(``presentations``): a nonempty string with no whitespace and none of the
reserved characters ``^*(),|<>:``, not beginning with a decimal digit or
``-`` (those begin integers).  This module owns the rule, as the pattern
``NAME_PATTERN``: ``check_generator_name`` enforces it for ``Word``,
``Word.generator`` and ``Presentation`` (generator and marker names), and
the parser reads names by the same pattern, so every accepted name reads
back as one name token.
"""

from __future__ import annotations

import re
from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from .errors import InvalidParameterError, MissingImageError, quoted

Syllable = Tuple[str, int]
# (block, k) runs whose expansion is a word's syllables (module docstring)
Runs = Tuple[Tuple[Tuple[Syllable, ...], int], ...]

# Characters with a fixed meaning in the presentation grammar; they can
# never be part of a generator name.  ':' is reserved for marker lines.
RESERVED_NAME_CHARS = frozenset("^*(),|<>:")
_RESERVED = re.escape("".join(sorted(RESERVED_NAME_CHARS)))
NAME_PATTERN = rf"[^\s\d{_RESERVED}-][^\s{_RESERVED}]*"
_name_match = re.compile(NAME_PATTERN).fullmatch

# The run rule, compiled on first use by the re module's cache: a block of
# 2 to 8 pieces from a piece boundary (group 1), the shortest first,
# written out again at least once right after itself and ending at a
# piece boundary.
_RUN = r"(?<![^*])((?:[^*]+\*){1,7}?[^*]+)(?:\*\1)+(?![^*])"


def is_generator_name(name) -> bool:
    """Whether ``name`` follows the name rule (module docstring)."""
    return isinstance(name, str) and _name_match(name) is not None


def check_generator_name(name: str) -> str:
    """Return ``name``, or raise InvalidParameterError if it breaks the
    name rule."""
    if not is_generator_name(name):
        raise InvalidParameterError(
            f"invalid name {quoted(name)}: names are nonempty, contain no whitespace "
            f"or any of {''.join(sorted(RESERVED_NAME_CHARS))}, and do not begin "
            "with a decimal digit or '-'"
        )
    return name


def reduce_syllables(raw: Iterable[Syllable]) -> Tuple[Syllable, ...]:
    """Freely reduce a raw syllable list.

    Adjacent syllables with the same generator are merged, zero exponents
    dropped, and cancellations cascade (a stack pass gives the normal form
    in one sweep).  Idempotent.  A syllable that is neither merged nor
    dropped is kept as the same object, and a tuple that is reduced
    already, as a parsed word usually is, comes back as it is.
    """
    stack: list = []
    for syllable in raw:
        name, exp = syllable
        if not exp:
            continue
        if stack and stack[-1][0] == name:
            exp += stack.pop()[1]
            if not exp:
                continue
            syllable = (name, exp)
        stack.append(syllable)
    # each merge or dropped syllable shortens the stack, so at full length
    # it holds the input's own syllables in order
    if isinstance(raw, tuple) and len(stack) == len(raw):
        return raw
    return tuple(stack)


def _cyclic_split(s: Tuple[Syllable, ...]) -> Tuple[int, int, bool]:
    """Split a reduced syllable tuple as u c u^-1 with c cyclically reduced
    up to its ends: returns (|u|, |c|, merge), where ``merge`` says that
    c's last and first syllables share a generator (and so merge, without
    cancelling, where c meets the next copy of c)."""
    i, j = 0, len(s) - 1
    while i < j and s[i][0] == s[j][0] and s[i][1] == -s[j][1]:
        i += 1
        j -= 1
    return i, j - i + 1, j > i and s[i][0] == s[j][0]


def power_length(s: Tuple[Syllable, ...], k: int) -> int:
    """Number of syllables of w^k for the reduced syllables ``s`` of w,
    in O(|w|) time, without building the power."""
    if not s or k == 0:
        return 0
    k = abs(k)
    u, c, merge = _cyclic_split(s)
    if c == 1:
        return 2 * u + 1
    return 2 * u + k * c - (k - 1 if merge else 0)


def power_syllables(s: Tuple[Syllable, ...], k: int) -> Tuple[Syllable, ...]:
    """Reduced syllables of w^k for the reduced syllables ``s`` of w.

    Built directly from w = u c u^-1: u c^k u^-1, where copies of c meet
    with no cancellation, so the result has ``power_length(s, k)``
    syllables and costs nothing more to build."""
    if not s or k == 0:
        return ()
    if k < 0:
        s, k = tuple((g, -e) for g, e in reversed(s)), -k
    u, c, merge = _cyclic_split(s)
    head, core, tail = s[:u], s[u:u + c], s[u + c:]
    if c == 1:
        g, e = core[0]
        middle = ((g, e * k),)
    elif merge:
        # c^k = c0 B m B m ... B c_last, with m the merged junction syllable
        body = core[1:-1]
        junction = ((core[0][0], core[-1][1] + core[0][1]),)
        middle = core[:1] + (body + junction) * (k - 1) + body + core[-1:]
    else:
        middle = core * k
    return head + middle + tail


def find_runs(text: str, read: Callable[[List[str]], Tuple[Syllable, ...]]
              ) -> Optional[Runs]:
    """The runs of the nonempty word written as ``text``, pieces joined by
    ``*``, or None when they do not give its reduced form directly.

    ``_RUN`` finds each block of 2 to 8 pieces written out at least twice
    in a row; the pieces between runs are segments of k = 1.  ``read``
    gives the reduced syllables of one segment's pieces, so each block is
    read once.  The runs are the segments that are not empty when no
    block's last and first syllables, and no two adjacent segments, share
    a generator: then nothing merges or cancels where they meet."""
    segments = []  # (pieces, k), in order
    gap = 0  # where the text between runs resumes
    for match in re.finditer(_RUN, text):
        start, end = match.span()
        if start > gap:
            segments.append((text[gap:start - 1].split("*"), 1))
        block = match[1]
        segments.append((block.split("*"), (end - start + 1) // (len(block) + 1)))
        gap = end + 1
    if gap <= len(text):
        segments.append((text[gap:].split("*"), 1))
    runs = []
    last = None  # the generator of the last syllable so far
    for pieces, k in segments:
        block = read(pieces)
        if block:
            if (k > 1 and block[0][0] == block[-1][0]) or block[0][0] == last:
                return None
            last = block[-1][0]
            runs.append((block, k))
    return tuple(runs)


class Word:
    """A freely reduced word on named generators.

    The constructor accepts any raw syllable iterable and reduces it, so
    every ``Word`` in existence is in normal form.  Operators follow the
    usual free-group conventions::

        u * v     product (freely reduced)
        ~u        inverse
        u ** k    k-th power, ``u ** -1 == ~u``

    ``runs`` are the (block, k) runs whose expansion is ``syllables``
    (module docstring), found when first read unless the piece reader
    read them.
    """

    __slots__ = ("_syllables", "_generators", "_counts", "_runs")

    def __init__(self, syllables: Iterable[Syllable] = ()):
        # the result keeps the given syllables, so each must be a tuple
        reduced = reduce_syllables(map(tuple, syllables))
        for name, _ in reduced:
            check_generator_name(name)
        self._syllables = reduced
        self._generators = None
        self._counts = None
        self._runs = None

    @classmethod
    def _trusted(cls, syllables: Tuple[Syllable, ...], runs=None) -> "Word":
        """Wrap a reduced syllable tuple whose generator names are already
        valid (the results of word operations, and parsed words whose
        names were matched against a declared set); ``runs``, if given,
        must expand exactly to ``syllables`` (``find_runs``)."""
        word = object.__new__(cls)
        word._syllables = syllables
        word._generators = None
        word._counts = None
        word._runs = runs
        return word

    # -- construction helpers ------------------------------------------

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    @classmethod
    def generator(cls, name: str, exp: int = 1) -> "Word":
        return cls(((name, exp),))

    # -- structure ------------------------------------------------------

    @property
    def syllables(self) -> Tuple[Syllable, ...]:
        return self._syllables

    @property
    def runs(self) -> Runs:
        """The (block, k) runs of the word: those the piece reader read, or
        else found once over the syllables spelled as ids."""
        if self._runs is None:
            syllables = self._syllables
            if len(set(zip(syllables, syllables[1:]))) >= len(syllables) - 1:
                # no pair of adjacent syllables recurs, so no block repeats
                self._runs = ((syllables, 1),) if syllables else ()
            else:
                # the syllables of a reduced word meet without merging, so
                # the rule never gives up on them
                distinct = list(dict.fromkeys(syllables))
                ids = dict(zip(distinct, map(str, count())))
                self._runs = find_runs(
                    "*".join(map(ids.__getitem__, syllables)),
                    lambda pieces: tuple(map(distinct.__getitem__, map(int, pieces))))
        return self._runs

    @property
    def is_identity(self) -> bool:
        return not self._syllables

    def generators(self) -> frozenset:
        """Set of generator names occurring in the word (computed once)."""
        if self._generators is None:
            self._generators = frozenset(map(itemgetter(0), self._syllables))
        return self._generators

    def letter_length(self) -> int:
        """Number of letters, i.e. the sum of |exponent| over syllables."""
        return sum(abs(e) for _, e in self._syllables)

    def syllable_counts(self) -> Tuple[Tuple[Syllable, int], ...]:
        """(syllable, occurrences) for each distinct syllable, in order of
        first occurrence; counted on first use over the runs, each block
        once, adding k for each of its syllables, then kept."""
        if self._counts is None:
            counts: dict = {}
            for block, k in self.runs:
                for syllable in block:
                    counts[syllable] = counts.get(syllable, 0) + k
            self._counts = tuple(counts.items())
        return self._counts

    def exponent_sums(self) -> dict:
        sums: dict = {}
        for (g, e), n in self.syllable_counts():
            sums[g] = sums.get(g, 0) + e * n
        return {g: e for g, e in sums.items() if e != 0}

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._trusted(reduce_syllables(self._syllables + other._syllables))

    def __invert__(self) -> "Word":
        return Word._trusted(tuple((g, -e) for g, e in reversed(self._syllables)))

    def __pow__(self, k: int) -> "Word":
        if not isinstance(k, int):
            return NotImplemented
        return Word._trusted(power_syllables(self._syllables, k))

    def evaluate(self, images: Mapping[str, object], group):
        """Substitute group elements for generators and multiply in ``group``.

        ``images`` maps generator names to elements of ``group``; elements
        must support ``*`` (the group product) and integer ``**``.  Syllable
        exponents are applied with element powers, so long runs like a
        syllable ``g^61`` cost O(log 61) products.

        Raises MissingImageError if a generator of the word has no image.
        """
        acc = group.identity
        for g, e in self._syllables:
            try:
                image = images[g]
            except KeyError:
                raise MissingImageError(f"no image given for generator {quoted(g)}") from None
            acc = acc * image**e
        return acc

    # -- comparisons, hashing, display ------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._syllables == other._syllables

    def __hash__(self) -> int:
        return hash(self._syllables)

    def __bool__(self) -> bool:
        return bool(self._syllables)

    def __str__(self) -> str:
        if not self._syllables:
            return "1"
        return "*".join(g if e == 1 else f"{g}^{e}" for g, e in self._syllables)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


_IDENTITY = Word()

