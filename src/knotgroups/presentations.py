"""Finitely presented groups with marked meridian words.

File grammar (UTF-8, whitespace insignificant inside ``< >``)::

    presentation := '<' genlist '|' relatorlist '>' marker*
    genlist      := name (',' name)*
    relatorlist  := [ word (',' word)* ]
    marker       := 'meridian' name ':' word
    word         := factor ('*' factor)*
    factor       := name ['^' integer] | '(' word ')' ['^' integer]
    integer      := ['-'] digit+     (decimal digits, as ``int`` reads them)

Whitespace, line breaks included, is insignificant everywhere, except
that it separates tokens that would otherwise run together.  Markers are
written one per line, but need not be: a marker may follow ``>`` on the
same line, and a marker word ends where the next ``meridian`` token
begins, so ``meridian m: (x)meridian n: y`` is two markers.

Example::

    < x,y,a | (y*x)^2*y*(y*x)^-2*x^-1, x^-1*a*x*a^-1*x^-1*y*a*y^-1 >
    meridian meridian_B: x
    meridian meridian_G: a

Names follow the one name rule of ``words`` (nonempty, no whitespace, none
of ``^*(),|<>:``, not beginning with a decimal digit or ``-``), which is
also what the scanner reads as a name; ``meridian`` is the marker-line
keyword and names no generator.  ``Presentation`` is the one semantic
boundary: it checks every generator and marker name by that rule and
refuses duplicate generators, for parsed and constructed values alike.
The parser checks only syntax, undeclared names (whose positions only it
knows) and the keyword.

The canonical renderer emits this same grammar, so ``parse(render(P)) == P``
for every value ``Presentation`` accepts and ``render(parse(s)) == s`` on
canonical text.

A power ``(w)^k`` is built from the cyclic reduction of w, after its length
is known; the powers of one text may build at most ``MAX_WORD_SYLLABLES``
syllables in total, and past that parsing raises WordTooLargeError rather
than filling memory.

Words are read as pieces: the relator block is split at ``,`` and each
word at ``*``, and each distinct piece, ``name ['^' integer]``, is read
once per text, so a word is one table lookup per piece and one free
reduction.  The token parser ``_Parser`` reads the same grammar token by
token.  It is the reference the tests hold the piece reader to, and it
reads every text the piece reader does not take whole: every error, every
text with parentheses, and marker layouts other than one marker to a
line.  So every refusal carries its message, line and column.  Parsing
time is linear in the length of the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import (
    DuplicateGeneratorError,
    InvalidParameterError,
    PresentationSyntaxError,
    UnknownGeneratorError,
    WordTooLargeError,
    checked_int,
    quoted,
    read_decimal,
)
from .words import (
    RESERVED_NAME_CHARS,
    Word,
    check_generator_name,
    is_generator_name,
    power_length,
    power_syllables,
    reduce_syllables,
)


class Presentation:
    """Generators, freely reduced relator words, and named marker words.

    Markers single out conjugacy classes (meridians, here) by a
    representative word; they may be arbitrary words, not just generators,
    so conjugates like ``x^-1*a*x`` can be pinned too.

    Relators are stored exactly as given (reduced but not cyclically
    reduced).  Relators that reduce to the identity impose no condition and
    are dropped, which also keeps every stored relator expressible in the
    file grammar.
    """

    def __init__(self, generators: Sequence[str], relators: Sequence[Word] = (),
                 markers: Mapping[str, Word] | None = None, *, _matched: bool = False):
        # _matched: the words come from parse's readers, which have matched
        # every name in them against the generators already
        gens = tuple(generators)
        seen = set()
        for name in gens:
            check_generator_name(name)
            if name == "meridian":
                raise InvalidParameterError(
                    "'meridian' is reserved for marker lines"
                )
            if name in seen:
                raise DuplicateGeneratorError(f"generator {quoted(name)} declared twice")
            seen.add(name)
        self.generators = gens
        self._gen_index = {g: i for i, g in enumerate(gens)}

        rels = []
        for w in relators:
            if not _matched:
                self._check_support(w, "relator")
            if not w.is_identity:
                rels.append(w)
        self.relators = tuple(rels)

        marks: Dict[str, Word] = {}
        for name, w in (markers or {}).items():
            check_generator_name(name)
            if not _matched:
                self._check_support(w, f"marker {quoted(name)}")
            if w.is_identity:
                raise InvalidParameterError(
                    f"marker {quoted(name)} reduces to the identity word"
                )
            marks[name] = w
        self.markers = marks

    def _check_support(self, w: Word, what: str) -> None:
        for g in w.generators():
            if g not in self._gen_index:
                raise UnknownGeneratorError(
                    f"{what} uses undeclared generator {quoted(g)}"
                )

    def generator_index(self, name: str) -> int:
        try:
            return self._gen_index[name]
        except KeyError:
            raise UnknownGeneratorError(f"undeclared generator {quoted(name)}") from None

    def relation_matrix(self) -> list:
        """Exponent-sum matrix, one row per relator, one column per generator."""
        sums = [r.exponent_sums() for r in self.relators]
        return [[s.get(g, 0) for g in self.generators] for s in sums]

    def render(self) -> str:
        """Canonical text form (grammar above), ending in a newline."""
        rel = ", ".join(str(r) for r in self.relators)
        lines = [f"< {', '.join(self.generators)} | {rel + ' ' if rel else ''}>"]
        for name, w in self.markers.items():
            lines.append(f"meridian {name}: {w}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.relators == other.relators
            and self.markers == other.markers
        )

    def __repr__(self) -> str:
        return (
            f"Presentation(generators={self.generators}, "
            f"relators={len(self.relators)}, markers={list(self.markers)})"
        )


def rbg_family(m: int) -> Presentation:
    """The one-parameter family of knot-group presentations

        < x, y, a | (yx)^m y (yx)^-m x^-1,  x^-1 a x a^-1 x^-1 y a y^-1 >

    arising from the RBG construction of knot pairs with a common trace.
    The markers record that x (equivalently y) represents the meridian
    conjugacy class of one knot of the pair and a that of the other.
    The powers (yx)^m and (yx)^-m build 4m syllables, at most
    ``MAX_WORD_SYLLABLES`` as in ``parse``.
    """
    if not isinstance(m, int) or m < 1:
        raise InvalidParameterError(f"family parameter must be a positive integer, got {m!r}")
    if 4 * m > MAX_WORD_SYLLABLES:
        # 4m itself may have more digits than str() prints
        raise WordTooLargeError(
            f"the powers expand to 4m syllables, over the limit of "
            f"{MAX_WORD_SYLLABLES} for m over {MAX_WORD_SYLLABLES // 4}"
        )
    x, y, a = (Word.generator(g) for g in ("x", "y", "a"))
    yx = y * x
    relator1 = yx**m * y * yx**-m * ~x
    relator2 = ~x * a * x * ~a * ~x * y * a * ~y
    return Presentation(
        ("x", "y", "a"),
        (relator1, relator2),
        {"meridian_B": x, "meridian_G": a},
    )


# -- parsing -------------------------------------------------------------------

# The token parser's pattern, one token per match: a symbol (the reserved
# name characters), an integer, a stray '-' or a name.  No alternative
# matches whitespace, so findall skips it.
_SYMBOLS = re.escape("".join(sorted(RESERVED_NAME_CHARS)))
_SCAN = re.compile(rf"[{_SYMBOLS}]|-?\d+|-|[^\s{_SYMBOLS}]+")

# The piece reader's patterns, compiled on first use by the re module's
# cache: a name token that follows the name rule; the generator list of a
# text; one '*'-separated piece of a word, name ['^' int]; one marker line.
_NAME = rf"[^\s\d{_SYMBOLS}-][^\s{_SYMBOLS}]*"
_HEAD = rf"\s*<\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*"
_PIECE = rf"\s*({_NAME})\s*(?:\^\s*(-?\d+)\s*)?"
_MARKER = rf"\s*meridian\s+({_NAME})\s*:(.*)"

# Syllables that the powers ``(w)^k``, |k| > 1, of one text may build in total.
MAX_WORD_SYLLABLES = 10**6


def parse(text: str) -> Presentation:
    """Parse presentation text in the module grammar.

    Raises PresentationSyntaxError (with line/column), UnknownGeneratorError,
    DuplicateGeneratorError (from ``Presentation``), or WordTooLargeError
    when the powers would build more than ``MAX_WORD_SYLLABLES`` syllables.
    """
    # the fall-back runs after the except clause, which frees the reader's
    # frames, and the pieces they hold, before _Parser starts
    try:
        return _read_pieces(text)
    except _Unread:
        pass
    return _Parser(text).parse_presentation()


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse a single word (e.g. ``(y*x)^-3`` or ``x^-1*a*x``)."""
    parser = _Parser(text)
    # a generator that breaks the name rule is never read as one name token
    names = {g for g in generators if is_generator_name(g)}
    word = parser.parse_word(names)
    parser.expect_end()
    return word


# -- reading words as pieces -----------------------------------------------------


class _Unread(Exception):
    """A text that the piece reader does not take whole; ``_Parser`` reads it."""


def _read_word(text: str, declared: set, syllables: dict) -> Word:
    """The word ``text``, without parentheses, for the generators
    ``declared`` (all valid names); ``syllables`` holds the syllable of
    every piece read so far in the text, so each distinct piece is read once."""
    pieces = text.split("*")
    for piece in set(pieces).difference(syllables):
        match = re.fullmatch(_PIECE, piece)
        if match is None or match[1] not in declared:
            raise _Unread
        name, digits = match.groups()
        syllables[piece] = (name, read_decimal(digits, "", _Unread) if digits else 1)
    # every name was matched against the declared set, so none needs a check
    return Word._trusted(reduce_syllables(map(syllables.__getitem__, pieces)))


def _read_pieces(text: str) -> Presentation:
    """The presentation of a text, read as pieces; raises _Unread on any
    text not taken whole: every error, every text with parentheses, and
    markers other than one to a line."""
    if "(" in text or ")" in text:
        raise _Unread
    head, _, rest = text.partition("|")
    block, closed, tail = rest.partition(">")
    match = re.fullmatch(_HEAD, head)
    if not closed or match is None:
        raise _Unread
    generators = [name.strip() for name in match[1].split(",")]
    if "meridian" in generators:
        raise _Unread
    declared = set(generators)
    syllables: dict = {}
    relators = ([_read_word(w, declared, syllables) for w in block.split(",")]
                if block.strip() else [])
    markers: Dict[str, Word] = {}
    for line in tail.split("\n"):
        if line.strip():
            match = re.fullmatch(_MARKER, line)
            if match is None or match[1] in markers:
                raise _Unread
            markers[match[1]] = _read_word(match[2], declared, syllables)
    return Presentation(generators, relators, markers, _matched=True)


# -- the token parser: reference for the piece reader, and its error path --------


def _kind(tok: str) -> str:
    """'name', 'int', 'end' (the empty token closing the list) or the symbol."""
    if tok in RESERVED_NAME_CHARS:
        return tok
    if not tok:
        return "end"
    return "int" if tok[0] == "-" or tok[0].isdecimal() else "name"


def _found(tok: str) -> str:
    return quoted(tok) if tok else "end of input"


class _Parser:
    """Parser over the token strings of one text.  Tokens carry no
    positions: an error finds its token's line and column by scanning the
    text again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _SCAN.findall(text)
        if "-" in self.tokens:
            raise self.error("stray '-'", self.tokens.index("-"))
        self.tokens.append("")
        self.pos = 0
        self.built = 0  # syllables built by powers so far

    def where(self, index: int) -> Tuple[int, int]:
        # the offset of token ``index``; one past the last token is the end
        token = next(islice(_SCAN.finditer(self.text), index, None), None)
        offset = token.start() if token else len(self.text)
        return (self.text.count("\n", 0, offset) + 1,
                offset - self.text.rfind("\n", 0, offset))

    def error(self, message: str, index: int) -> PresentationSyntaxError:
        return PresentationSyntaxError(message, *self.where(index))

    def expect(self, kind: str, what: str) -> str:
        tok = self.tokens[self.pos]
        if _kind(tok) != kind:
            raise self.error(f"expected {what}, found {_found(tok)}", self.pos)
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"unexpected trailing {quoted(tok)}", self.pos)

    def exponent(self, index: int) -> int:
        tok = self.tokens[index]
        if _kind(tok) != "int":
            raise self.error(f"expected an integer exponent, found {_found(tok)}", index)
        return read_decimal(tok, "exponent of more than {} digits", self.error, index)

    # grammar productions -----------------------------------------------

    def parse_presentation(self) -> Presentation:
        self.expect("<", "'<'")
        generators = [self.expect("name", "generator name")]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            generators.append(self.expect("name", "generator name"))
        if "meridian" in generators:  # names sit at tokens 1, 3, 5, ...
            raise self.error("'meridian' is reserved for marker lines",
                             1 + 2 * generators.index("meridian"))
        declared = set(generators)
        self.expect("|", "'|'")
        relators = []
        if self.tokens[self.pos] != ">":
            relators.append(self.parse_word(declared))
            while self.tokens[self.pos] == ",":
                self.pos += 1
                relators.append(self.parse_word(declared))
        self.expect(">", "'>'")
        return Presentation(generators, relators, self.parse_markers(declared),
                            _matched=True)

    def parse_markers(self, declared: set) -> Dict[str, Word]:
        markers: Dict[str, Word] = {}
        while self.tokens[self.pos]:
            if self.tokens[self.pos] != "meridian":
                raise self.error("expected a 'meridian' marker line, found "
                                 f"{quoted(self.tokens[self.pos])}", self.pos)
            self.pos += 1
            name = self.expect("name", "marker name")
            if name in markers:
                raise DuplicateGeneratorError(f"marker {quoted(name)} declared twice")
            self.expect(":", "':'")
            markers[name] = self.parse_word(declared)
        return markers

    def parse_word(self, declared: set) -> Word:
        # The raw syllables of the whole word go into one list, reduced once
        # at the end; a parenthesized group is reduced and raised to its
        # power where it closes.  Open groups wait on a list, not on the
        # call stack, so nesting depth is not bounded by recursion.
        tokens, pos = self.tokens, self.pos
        raw: list = []
        outer: list = []
        while True:
            tok = tokens[pos]
            if tok in declared:
                if tokens[pos + 1] == "^":
                    raw.append((tok, self.exponent(pos + 2)))
                    pos += 3
                else:
                    raw.append((tok, 1))
                    pos += 1
            elif tok == "(":
                outer.append(raw)
                raw = []
                pos += 1
                continue
            elif _kind(tok) == "name":
                line, column = self.where(pos)
                raise UnknownGeneratorError(
                    f"undeclared generator {quoted(tok)} (line {line}, column {column})"
                )
            else:
                raise self.error(f"expected a generator or '(', found {_found(tok)}", pos)
            while tokens[pos] != "*":
                if not outer:
                    self.pos = pos
                    # every name matched the declared set, so none needs a check
                    return Word._trusted(reduce_syllables(raw))
                if tokens[pos] != ")":
                    raise self.error(f"expected ')', found {_found(tokens[pos])}", pos)
                k = self.exponent(pos + 2) if tokens[pos + 1] == "^" else 1
                pos += 3 if tokens[pos + 1] == "^" else 1
                group = reduce_syllables(raw)
                if abs(k) > 1:
                    self.built += power_length(group, k)
                    if self.built > MAX_WORD_SYLLABLES:
                        raise WordTooLargeError(
                            f"the powers expand to at least {self.built} syllables, "
                            f"over the limit of {MAX_WORD_SYLLABLES}"
                        )
                raw = outer.pop()
                raw.extend(power_syllables(group, k))
            pos += 1


# -- Smith normal form and abelianization ---------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]
                      ) -> Tuple[list, list, list]:
    """Smith normal form over Z with transforms: returns (D, U, V) where
    D = U @ matrix @ V, U and V are unimodular, and the diagonal of D is
    nonnegative with each entry dividing the next.

    Entries are overflow-checked; desk-scale inputs stay tiny, and a value
    escaping the checked range raises instead of proceeding.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [[checked_int(int(v), "matrix entry") for v in row] for row in matrix]
    if any(len(row) != cols for row in d):
        raise InvalidParameterError("ragged matrix")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        for k in range(cols):
            d[dst][k] = checked_int(d[dst][k] + mult * d[src][k], "SNF entry")
        for k in range(rows):
            u[dst][k] = checked_int(u[dst][k] + mult * u[src][k], "SNF entry")

    def add_col(src, dst, mult):
        for row in d:
            row[dst] = checked_int(row[dst] + mult * row[src], "SNF entry")
        for row in v:
            row[dst] = checked_int(row[dst] + mult * row[src], "SNF entry")

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # locate a pivot of minimal magnitude in the remaining block
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                        best = abs(d[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            # clear column t then row t by Euclidean steps
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // d[t][t]))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // d[t][t]))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < rows and t < cols and d[t][t] < 0:
            negate_row(t)
    return d, u, v


@dataclass
class AbelianizationReport:
    """Integral homology of a presentation's abelianization.

    ``invariant_factors`` lists the torsion factors (> 1, each dividing the
    next); ``free_rank`` is the rank of the free part.  When the
    abelianization is infinite cyclic, ``weights`` gives each generator's
    image under the quotient map to Z, normalized so the first generator
    with nonzero weight is positive; otherwise it is None.
    """

    invariant_factors: Tuple[int, ...]
    free_rank: int
    weights: Optional[Dict[str, int]]

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.free_rank == 1 and not self.invariant_factors


def abelianize(presentation: Presentation) -> AbelianizationReport:
    """Cokernel of the relation matrix as invariant factors plus free rank.

    The abelianized group is Z^g modulo the subgroup spanned by the relator
    exponent vectors; the Smith normal form of that relation matrix (columns
    indexed by relators) reads off the decomposition, and when the quotient
    is Z, the surviving row of the row transform is the weight vector.
    """
    g = len(presentation.generators)
    r = len(presentation.relators)
    rel = presentation.relation_matrix()
    # columns = relator vectors in Z^g
    a = [[rel[i][j] for i in range(r)] for j in range(g)]
    if r == 0:
        diag, u = [], [[int(i == j) for j in range(g)] for i in range(g)]
        rank = 0
    else:
        d, u, _ = smith_normal_form(a)
        diag = [d[i][i] for i in range(min(g, r))]
        rank = sum(1 for x in diag if x != 0)
    invariant_factors = tuple(x for x in diag if x > 1)
    free_rank = g - rank
    weights = None
    if free_rank == 1 and not invariant_factors:
        row = u[rank]
        first = next((w for w in row if w != 0), 1)
        sign = 1 if first > 0 else -1
        weights = {
            gen: sign * row[i] for i, gen in enumerate(presentation.generators)
        }
    return AbelianizationReport(invariant_factors, free_rank, weights)
