"""Spans and counters recorded around calls into ``knotgroups``, from outside.

The package has no hooks of its own, so the tracer replaces functions at
the place their caller looks them up (``knotgroups.cli.parse``,
``knotgroups.fox.fox_derivative``, ``Word.evaluate``, ...) with wrappers
and restores the originals on ``uninstall``.  A function that is not
where the tracer looks for it raises ``AttributeError``.

* A *span* wrapper records one span per call: id, parent span, name,
  thread, job id, start and end (``time.perf_counter``).  Only the
  outermost call of a function that re-enters itself on the same thread
  is recorded.
* A *counter* wrapper only counts calls.  It is used for the permutation
  products, which run millions of times per job.

Spans are buffered per thread in memory (``count`` searches run worker
threads) and read out with ``spans()`` when the traced run ends.  A span
opened on a thread with no open span of its own, i.e. a search worker, has
the client thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: List[int] = []
        self.active: set = set()
        self.counts: Dict[str, int] = defaultdict(int)
        # one row per span, in parallel arrays: id, parent, name, job, start, end
        self.ints = array("q")
        self.times = array("d")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._client: Optional[_ThreadState] = None
        self.job = 0

    # -- installation ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def _replace(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            # a layer whose function moved must break the trace, not read 0
            raise AttributeError(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found")
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(self, owner, attr: str, name: str,
             post: Optional[Callable[[Dict[str, int], object], None]] = None) -> None:
        """Record a span named ``name`` around every outermost call of
        ``owner.attr``; ``post(counts, result)`` may add counts from the
        returned value."""
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        code = self._name_index[name]
        tracer, clock = self, time.perf_counter

        def make(original):
            def traced(*args, **kwargs):
                state = tracer._state()
                if name in state.active:
                    return original(*args, **kwargs)
                sid = next(tracer._ids)
                if state.stack:
                    parent = state.stack[-1]
                else:
                    client = tracer._client
                    parent = client.stack[-1] if client is not None and client.stack else 0
                state.stack.append(sid)
                state.active.add(name)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    state.stack.pop()
                    state.active.discard(name)
                    state.ints.extend((sid, parent, code, tracer.job))
                    state.times.extend((start, end))
                if post is not None:
                    post(state.counts, result)
                return result
            return traced

        self._replace(owner, attr, make)

    def counter(self, owner, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``."""
        tracer, local = self, self._local

        def make(original):
            def counted(*args, **kwargs):
                try:
                    counts = local.state.counts
                except AttributeError:
                    counts = tracer._state().counts
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------

    def bind_client(self) -> None:
        """Mark the calling thread as the one that runs the jobs."""
        self._client = self._state()

    def counts(self) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        for state in self._states:
            for name, value in state.counts.items():
                total[name] += value
        return dict(total)

    def spans(self) -> List[Tuple[int, int, str, int, int, float, float]]:
        """Every span as (id, parent, name, thread, job, start, end)."""
        out = []
        for state in self._states:
            ints, times = state.ints, state.times
            for row in range(len(times) // 2):
                sid, parent, code, job = ints[4 * row: 4 * row + 4]
                out.append((sid, parent, self._names[code], state.index, job,
                            times[2 * row], times[2 * row + 1]))
        out.sort()
        return out


def _merged(intervals) -> List[List[float]]:
    out: List[List[float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def _length(intervals) -> float:
    return sum(end - start for start, end in _merged(intervals))


def _uncovered(lo: float, hi: float, intervals) -> List[Tuple[float, float]]:
    """The parts of [lo, hi] that no interval covers."""
    gaps, at = [], lo
    for start, end in _merged(intervals):
        if start > at:
            gaps.append((at, min(start, hi)))
        at = max(at, end)
        if at >= hi:
            return gaps
    gaps.append((at, hi))
    return gaps


def layer_times(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``; ``total_s``, the wall time during which a
    span of that name is open; and ``self_s``, the wall time during which
    one is open and none of its child spans is.

    Spans of one name on different threads (the search workers) overlap in
    time, so both are lengths of unions of intervals, not sums: a layer
    never reads more busy time than the wall time of its parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, _, start, end in spans:
        children[parent].append((start, end))
    calls: Dict[str, int] = defaultdict(int)
    whole: Dict[str, list] = defaultdict(list)
    own: Dict[str, list] = defaultdict(list)
    for sid, _, name, _, _, start, end in spans:
        calls[name] += 1
        whole[name].append((start, end))
        own[name].extend(_uncovered(start, end, children.get(sid, ())))
    return {name: {"calls": calls[name], "total_s": _length(whole[name]),
                   "self_s": _length(own[name])} for name in calls}
