"""The package surface: the names ``knotgroups.__all__`` exports, and the
names the benchmark under ``perfbench/`` reaches into."""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

import knotgroups
import knotgroups.cli
from knotgroups import errors, fox, homsearch, permgroups
from knotgroups.presentations import parse, rbg_family

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

REMOVED = ("GroupRingElement", "MissingWeightError", "abelianize_ring_element",
           "images_conjugate", "is_homomorphism", "find_conjugator",
           "check_constraint")


def test_all_is_unique_and_every_name_resolves():
    names = knotgroups.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(knotgroups, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in knotgroups.__all__
    for module in (knotgroups, errors, fox, homsearch, permgroups):
        assert not hasattr(module, name), (module.__name__, name)


def test_every_error_class_is_exported():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.KnotGroupsError)]
    assert errors.KnotGroupsError in classes and len(classes) > 1
    for cls in classes:
        assert cls.__name__ in knotgroups.__all__, cls.__name__
        assert getattr(knotgroups, cls.__name__) is cls


class ProbeTracer:
    """Takes the place of ``perfbench/tracing.py``'s tracer: it wraps
    nothing, but checks that each name exists where the tracer would look
    it up, and runs each span's ``post`` hook on ``result``."""

    def __init__(self, result):
        self.result = result
        self.counts = defaultdict(int)
        self.wrapped = []

    def span(self, owner, attr, name, post=None):
        # the tracer reads the owner's own namespace, not inherited names
        assert attr in vars(owner), (owner, attr)
        self.wrapped.append(name)
        if post is not None:
            post(self.counts, self.result)

    def counter(self, owner, attr, name):
        assert attr in vars(owner), (owner, attr)
        self.wrapped.append(name)


def test_benchmark_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracer = ProbeTracer(parse(rbg_family(1).render()))
    run.install(tracer)
    assert "homsearch.search" in tracer.wrapped
    assert tracer.counts["presentations.parse_letters"] == sum(
        r.letter_length() for r in rbg_family(1).relators)


def test_pin_answers_imports_resolve():
    tree = ast.parse((PERFBENCH / "pin_answers.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "knotgroups"
             for alias in node.names]
    assert len(names) == 5
    for name in names:
        assert hasattr(knotgroups, name), name
