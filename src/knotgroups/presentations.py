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
reduction.  A word of two or more pieces is read for runs by the one run
rule of ``words`` (``find_runs``) over its text, stripped of the
whitespace around it: each block of 2 to 8 pieces written out at least
twice in a row is looked up and reduced once, its copies are made by
tuple repetition, and the word keeps the runs it was written with
(``Word.runs``).  When a block's first and last syllables, or two
adjacent segments, share a generator, the word is reduced whole instead,
so its syllables never depend on the runs, and its runs are found from
its syllables when first read.

The token parser ``_Parser`` reads the same grammar token by token.  It
is the reference the tests hold the piece reader to, and it reads every
text the piece reader does not take whole: every error, every text with
parentheses, and marker layouts other than one marker to a line.  So
every refusal carries its message, line and column.  Parsing time is
linear in the length of the text.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import (
    CoefficientOverflowError,
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
    NAME_PATTERN,
    RESERVED_NAME_CHARS,
    _RESERVED,
    Word,
    check_generator_name,
    find_runs,
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
        if not self._gen_index.keys() >= w.generators():
            # named in syllable order, not in the set's hash-seeded order
            g = next(g for g, _ in w.syllables if g not in self._gen_index)
            raise UnknownGeneratorError(f"{what} uses undeclared generator {quoted(g)}")

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
_SCAN = re.compile(rf"[{_RESERVED}]|-?\d+|-|[^\s{_RESERVED}]+")

# The piece reader's patterns, compiled on first use by the re module's
# cache: the generator list of a text; one '*'-separated piece of a word,
# name ['^' int]; one marker line.
_HEAD = rf"\s*<\s*({NAME_PATTERN}(?:\s*,\s*{NAME_PATTERN})*)\s*"
_PIECE = rf"\s*({NAME_PATTERN})\s*(?:\^\s*(-?\d+)\s*)?"
_MARKER = rf"\s*meridian\s+({NAME_PATTERN})\s*:(.*)"

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
    every piece read so far in the text, so each distinct piece is read
    once.  Stripped of the whitespace around it, a word of two or more
    pieces is read for runs (``find_runs``); one of a single piece, or whose
    runs merge, is reduced whole, and its runs are found when first read."""
    def read(pieces):
        _read_new_pieces(pieces, declared, syllables)
        # every name was matched against the declared set, so none needs a check
        return reduce_syllables(map(syllables.__getitem__, pieces))

    text = text.strip()
    runs = find_runs(text, read) if "*" in text else None
    if runs is None:
        return Word._trusted(read(text.split("*")))
    return Word._trusted(tuple(chain.from_iterable([block * k for block, k in runs])), runs)


def _read_new_pieces(pieces, declared: set, syllables: dict) -> None:
    """Enter the syllable of each piece of ``pieces`` not read yet."""
    for piece in set(pieces).difference(syllables):
        match = re.fullmatch(_PIECE, piece)
        if match is None or match[1] not in declared:
            raise _Unread
        name, digits = match.groups()
        syllables[piece] = (name, read_decimal(digits, "", _Unread) if digits else 1)


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


# -- unit pivots, Smith normal form and abelianization --------------------------


def pivot_units(rows: Sequence[Mapping[int, object]], columns: Sequence[int],
                inverse, check=lambda value: value) -> Tuple[list, list, list]:
    """The matrix whose rows are ``rows``, dicts from a column of
    ``columns`` to a nonzero entry, with every unit pivoted out: the rows
    left, the columns left in their order, and the pivots as taken, each
    (column, inverse of the unit, its row).  ``rows`` is not changed.

    ``inverse(entry)`` is u^-1 for a unit u (+-1 over Z, +-t^k over
    Z[t, t^-1]) and None otherwise.  A unit u at (i, j) makes every other
    row with an entry a in column j row - (a u^-1) * row i; then row i and
    column j are dropped.  Over Z this is a Tietze move, and over
    Z[t, t^-1] it keeps the ideal of maximal minors (Cauchy-Binet).

    The rows are visited in order from a queue, and a step queues again
    only the rows it changed, so no step scans the whole matrix.  Each
    computed entry passes ``check`` (LaurentPoly checks its own range); a
    step that would leave the checked 64-bit range is not taken, and the
    row's next unit is tried."""
    rows = [dict(row) for row in rows]
    holders = {c: set() for c in columns}  # the rows with an entry in each column
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    queue = deque(range(len(rows)))
    queued = [True] * len(rows)
    pivots = []
    while queue:
        i = queue.popleft()
        queued[i] = False
        pivot_row = rows[i]
        for j, unit in pivot_row.items():
            inv = inverse(unit)
            if inv is None:
                continue
            try:
                changes = {}
                for h in holders[j]:
                    if h != i:
                        row = rows[h]
                        factor = row[j] * inv
                        changes[h] = [(c, check(row[c] - factor * entry if c in row
                                                else -(factor * entry)))
                                      for c, entry in pivot_row.items() if c != j]
            except CoefficientOverflowError:
                continue
            for h, changed in changes.items():
                row = rows[h]
                del row[j]
                for c, value in changed:
                    if value:
                        row[c] = value
                        holders[c].add(h)
                    elif c in row:
                        del row[c]
                        holders[c].discard(h)
                if not queued[h]:
                    queue.append(h)
                    queued[h] = True
            for c in pivot_row:
                holders[c].discard(i)
            holders[j] = None
            rows[i] = None
            pivots.append((j, inv, pivot_row))
            break
    left = [c for c in columns if holders[c] is not None]
    return [row for row in rows if row is not None], left, pivots


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Tuple[list, list]:
    """Smith normal form over Z with the row transform: returns (D, U)
    where D = U @ matrix @ V for a unimodular V that is not built, U is
    unimodular, and the diagonal of D is nonnegative with each entry
    dividing the next.

    Entries are overflow-checked; desk-scale inputs stay tiny, and a value
    escaping the checked range raises instead of proceeding.  Each step
    scans the whole remaining block, so ``abelianize`` pivots out the unit
    entries first and passes only what is left.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [[checked_int(int(v), "matrix entry") for v in row] for row in matrix]
    if any(len(row) != cols for row in d):
        raise InvalidParameterError("ragged matrix")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def add_row(src, dst, mult):
        d[dst] = [checked_int(a + mult * b, "SNF entry") for a, b in zip(d[dst], d[src])]
        u[dst] = [checked_int(a + mult * b, "SNF entry") for a, b in zip(u[dst], u[src])]

    for t in range(min(rows, cols)):
        while True:
            # a pivot of least magnitude in the remaining block, the first
            # in row order, moved to (t, t)
            block = [(abs(d[i][j]), i, j) for i in range(t, rows)
                     for j in range(t, cols) if d[i][j]]
            if not block:
                break
            _, pi, pj = min(block)
            d[t], d[pi], u[t], u[pi] = d[pi], d[t], u[pi], u[t]
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            pivot = d[t][t]
            # clear column t then row t by Euclidean steps
            for i in range(t + 1, rows):
                if d[i][t]:
                    add_row(t, i, -(d[i][t] // pivot))
            for j in range(t + 1, cols):
                if d[t][j]:
                    mult = -(d[t][j] // pivot)
                    for row in d:
                        row[j] = checked_int(row[j] + mult * row[t], "SNF entry")
            if any(d[i][t] for i in range(t + 1, rows)) or any(d[t][t + 1:]):
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = next((i for i in range(t + 1, rows)
                             if any(x % pivot for x in d[i][t + 1:])), None)
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return d, u


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
    exponent vectors.  First each entry e = +-1 of that relation matrix, in
    column j, is pivoted out (``pivot_units``): its relator says x_j = -e *
    (the rest of its row), so x_j and the relator leave by a Tietze move.
    The Smith normal form of what is left (columns indexed by relators)
    reads off the decomposition.  When the quotient is Z, the surviving row
    of its row transform weighs the generators left, and each pivoted one
    is read from its row, the last pivot first.  Every entry, step and
    weight is range-checked (CoefficientOverflowError).
    """
    gens, index = presentation.generators, presentation._gen_index
    rows = [{index[g]: checked_int(e, "matrix entry") for g, e in r.exponent_sums().items()}
            for r in presentation.relators]
    rows, left, pivots = pivot_units(rows, range(len(gens)),
                                     lambda e: e if e in (1, -1) else None, checked_int)
    d, u = smith_normal_form([[row.get(c, 0) for row in rows] for c in left])
    diag = [d[i][i] for i in range(min(len(left), len(rows)))]
    rank = sum(1 for x in diag if x != 0)
    invariant_factors = tuple(x for x in diag if x > 1)
    free_rank = len(left) - rank
    weights = None
    if free_rank == 1 and not invariant_factors:
        weight = dict(zip(left, u[rank]))
        for j, inv, row in reversed(pivots):
            weight[j] = checked_int(-inv * sum(e * weight[c] for c, e in row.items() if c != j),
                                    "weight")
        sign = 1 if next(weight[j] for j in range(len(gens)) if weight[j]) > 0 else -1
        weights = {g: sign * weight[j] for j, g in enumerate(gens)}
    return AbelianizationReport(invariant_factors, free_rank, weights)
