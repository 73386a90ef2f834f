"""Command-line front end.

Commands::

    knotgroups parse FILE                 echo the canonical presentation
    knotgroups alex FILE [--matrix]      Alexander polynomial (and matrix)
    knotgroups count FILE --group SPEC [--pin g=PERM | --marker NAME=PERM]
                    [--mode naive|backtrack] [--list]
    knotgroups family --m M [--out FILE] write a family presentation file
    knotgroups verify                     run every pinned check of the paper

Exit codes: 0 success, 1 verification failure, 2 input error,
3 budget or overflow refusal.

``--json`` emits a machine-readable report with sorted keys.  The JSON
payload contains only deterministic fields (no wall times), so reruns
produce byte-identical reports; timings are printed to stderr in text mode
instead.

A ``count --list`` listing goes from the search's index tuples straight to
stdout, in batches of ``_BATCH`` rows, each batch one ``%``-format of a
per-listing row template; each element the listing uses is turned into
text once.  The rest of the report is encoded by ``json.dumps`` and the
rows are spliced into it, so the bytes are those of
``json.dumps(report, sort_keys=True, indent=2)`` with the listing as a
list of ``{generator: element}`` dicts.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import fox
from .errors import (
    CountTooLargeError,
    InputError,
    InvalidParameterError,
    ResourceError,
    quoted,
    read_decimal,
)
from .fox import alexander_polynomial
from .homsearch import count_homs, meridian_search
from .permgroups import group_from_spec, parse_permutation
from .presentations import parse, rbg_family

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _read_presentation(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None
    return parse(text)


# The indentation of one nesting level of a --json report, and the rows of
# a listing formatted and written together.
_INDENT = 2
_BATCH = 1000


class Listing(NamedTuple):
    """Rows of a report kept as index tuples until they are written.

    Row i maps ``generators[k]`` to ``str(elements[leaves[i][k]])``.  In the
    report, ``slot`` stands for the rows: an empty list, whose place in the
    encoded report the writer fills with them.
    """

    slot: List
    generators: Sequence[str]
    elements: Sequence
    leaves: Sequence[Tuple[int, ...]]

    def texts(self, encode: Callable[[str], str]) -> Dict[int, str]:
        """``encode(str(element))`` of each element the rows use, by index."""
        elements = self.elements
        return {i: encode(str(elements[i]))
                for i in set(chain.from_iterable(self.leaves))}

    def rows(self, row: str, texts: Dict[int, str],
             pick: Optional[Callable] = None) -> Iterator[str]:
        """Batches of ``row`` formatted with the texts of each leaf's
        entries, or of the entries ``pick(leaf)`` selects."""
        leaves = self.leaves
        for start in range(0, len(leaves), _BATCH):
            batch = leaves[start:start + _BATCH]
            entries = chain.from_iterable(map(pick, batch) if pick else batch)
            yield row * len(batch) % tuple(map(texts.__getitem__, entries))


def _escape_percent(text: str) -> str:
    return text.replace("%", "%%")


def _write_json(report: Dict, listing: Optional[Listing]) -> None:
    """Write ``json.dumps(report, sort_keys=True, indent=2)`` and a newline,
    with ``listing``'s rows in its slot."""
    text = json.dumps(report, sort_keys=True, indent=_INDENT)
    if listing is None or not listing.leaves:
        sys.stdout.write(text + "\n")
        return
    # With one row 0 in the slot the report encodes as the same text except
    # at the slot: text is P + "[]" + S and probe is P + "[" + item + "0" +
    # close + S, where item is the newline and indentation before each row.
    listing.slot.append(0)
    probe = json.dumps(report, sort_keys=True, indent=_INDENT)
    listing.slot.pop()
    cut = len(os.path.commonprefix((text, probe)))
    item, close = probe[cut:cut + len(probe) - len(text) + 1].split("0")
    generators = listing.generators
    order = sorted(range(len(generators)), key=generators.__getitem__)
    inner = item + " " * _INDENT
    fields = ",".join(f"{inner}{_escape_percent(json.dumps(generators[k]))}: %s"
                      for k in order)
    row = f",{item}{{{fields}{item}}}" if fields else f",{item}{{}}"
    # itemgetter of one position returns the entry, not a 1-tuple
    pick = itemgetter(*order) if len(order) > 1 else None
    batches = listing.rows(row, listing.texts(json.dumps), pick)
    # the first row has no comma before it
    sys.stdout.write(text[:cut] + next(batches)[1:])
    sys.stdout.writelines(batches)
    sys.stdout.write(close + text[cut + 1:] + "\n")


def _write_text(lines: Sequence[str], listing: Optional[Listing]) -> None:
    """Write ``lines``, then one line per row of ``listing``:
    two spaces, then ``generator=element`` for each generator in
    declaration order, two spaces apart."""
    for line in lines:
        print(line)
    if listing is not None:
        row = "  " + "  ".join(f"{_escape_percent(g)}=%s"
                               for g in listing.generators) + "\n"
        sys.stdout.writelines(listing.rows(row, listing.texts(str)))


def _emit(report: Dict, as_json: bool, text_lines, started: float,
          listing: Optional[Listing] = None) -> None:
    if as_json:
        _write_json(report, listing)
    else:
        _write_text(text_lines, listing)
        print(f"wall time: {time.perf_counter() - started:.3f}s", file=sys.stderr)


def cmd_parse(args) -> int:
    started = time.perf_counter()
    pres = _read_presentation(args.file)
    text = pres.render()
    report = {
        "command": "parse",
        "inputs": {"file": args.file},
        "results": {"presentation": text},
    }
    _emit(report, args.json, [text.rstrip("\n")], started)
    return EXIT_OK


def cmd_alex(args) -> int:
    started = time.perf_counter()
    pres = _read_presentation(args.file)
    matrix = None
    if args.matrix and len(pres.relators) >= len(pres.generators) - 1:
        # built once, for both answers; a deficient presentation is left to
        # alexander_polynomial, whose DeficiencyError comes first
        matrix = fox.alexander_matrix(pres)
    poly = str(alexander_polynomial(pres, matrix))
    results = {"alexander_polynomial": poly}
    lines = [poly]
    if args.matrix:
        rows = matrix.text_rows()
        results["matrix"] = rows
        lines.append(json.dumps(rows))
    report = {
        "command": "alex",
        "inputs": {"file": args.file},
        "results": results,
    }
    _emit(report, args.json, lines, started)
    return EXIT_OK


def _parse_binding(text: str, what: str) -> tuple:
    # a name may contain '=' and a permutation literal never does
    name, sep, literal = text.rpartition("=")
    if not sep or not name or not literal:
        raise InvalidParameterError(f"bad {what} {quoted(text)}, expected NAME=PERM")
    return name, literal


def cmd_count(args) -> int:
    started = time.perf_counter()
    pres = _read_presentation(args.file)
    group = group_from_spec(args.group)
    inputs = {
        "file": args.file,
        "group": args.group,
        "mode": args.mode,
    }
    if args.marker:
        name, literal = _parse_binding(args.marker, "--marker")
        sigma = parse_permutation(literal, group.degree)
        result = meridian_search(pres, name, group, sigma, mode=args.mode,
                                 materialize=args.list)
        inputs["marker"] = {name: str(sigma)}
    else:
        pins = {}
        for binding in args.pin or ():
            name, literal = _parse_binding(binding, "--pin")
            if name in pins:
                raise InvalidParameterError(f"generator {quoted(name)} is pinned twice")
            pins[name] = parse_permutation(literal, group.degree)
        result = count_homs(pres, group, pins, mode=args.mode,
                            materialize=args.list)
        inputs["pins"] = {name: str(p) for name, p in pins.items()}
    try:
        # free generators multiply a count by |A| each, past what str() prints
        count_text = str(result.count)
    except ValueError:
        raise CountTooLargeError(
            f"count has more than {sys.get_int_max_str_digits()} decimal digits"
        ) from None
    results: Dict = {"count": result.count}
    listing = None
    if args.list:
        listing = Listing([], result.generators, group.elements, result.leaves)
        results["assignments"] = listing.slot
    report = {
        "command": "count",
        "inputs": inputs,
        "results": results,
        "stats": {
            "nodes": result.stats.nodes,
            "relator_checks": result.stats.relator_checks,
        },
    }
    _emit(report, args.json, [f"count = {count_text}"], started, listing)
    return EXIT_OK


def cmd_family(args) -> int:
    # decimal digits, as every integer of the input is read: int() alone
    # would also take a sign, surrounding spaces and '_'
    if not args.m.isdecimal():
        raise InvalidParameterError(f"--m takes decimal digits, got {quoted(args.m)}")
    text = rbg_family(read_decimal(args.m, "--m has more than {} digits")).render()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameterError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: the suite's source is compiled on every import when
    # no bytecode is cached, and no other command needs it
    from . import verification

    started = time.perf_counter()
    outcomes = verification.run_all()
    all_ok = all(o.passed for o in outcomes)
    report = {
        "command": "verify",
        "inputs": {"expectations_version": verification.EXPECTATIONS_VERSION},
        "results": {
            "all_ok": all_ok,
            "checks": [
                {"name": o.name, "passed": o.passed, "detail": o.detail}
                for o in outcomes
            ],
        },
    }
    lines = [o.status_line() for o in outcomes]
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    _emit(report, args.json, lines, started)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _parse_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)


def _alex_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--matrix", action="store_true",
                   help="also print the derivative matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_alex)


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--group", required=True,
                   help="target group: S4, A5, or gen:DEGREE:[(..),(..)]")
    pin_group = p.add_mutually_exclusive_group()
    pin_group.add_argument("--pin", action="append", metavar="GEN=PERM",
                           help="pin a generator image (repeatable)")
    pin_group.add_argument("--marker", metavar="NAME=PERM",
                           help="pin the image of a named marker word")
    p.add_argument("--mode", choices=("naive", "backtrack"),
                   default="backtrack")
    p.add_argument("--list", action="store_true",
                   help="list the homomorphisms found")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_count)


def _family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=cmd_family)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)


_PROG = "knotgroups"

# subcommand name -> (help line, the function that adds its arguments)
_COMMANDS = {
    "parse": ("parse a presentation file and echo it", _parse_arguments),
    "alex": ("Alexander polynomial of a presentation", _alex_arguments),
    "count": ("count homomorphisms into a finite group", _count_arguments),
    "family": ("emit a member of the presentation family", _family_arguments),
    "verify": ("run the pinned verification suite", _verify_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Knot-group invariants: Alexander polynomials via the "
                    "free differential calculus, and meridian-pinned "
                    "homomorphism counts into finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser that ``build_parser()`` gives subcommand ``name``, alone,
    built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog=f"{_PROG} {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse_argv(argv: list) -> argparse.Namespace:
    # the full parser hands every word after a command name to that
    # command's parser, so a call that names a command builds that parser
    # alone, an eighth to a quarter of the full set-up; words it leaves
    # over go to the full parser, so that its usage error is the one shown
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
