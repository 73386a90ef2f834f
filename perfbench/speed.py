"""The machine's current speed, from a fixed pure-Python reference workload.

The benchmark runs on shared machines whose speed changes by tens of
percent from one second to the next while other tenants load them: on the
machine the benchmark was written on, the same job repeated 25 times had
an interquartile range of a quarter of its median, and the same cycle of
jobs took from 10 to 16 s within a few minutes.  A run therefore times
``reference()`` between every two jobs, and ``scale`` turns each time
into the time it would have taken at the machine's nominal speed:
time * NOMINAL_S / the mean of the reference times near it.  Much of the
machine's drift drops out of the scaled times, whose spread across runs
was a quarter to a half of the measured times' in most sets; a change to
the package moves them as it moves the measured ones.

The reference does the kind of work the package does, in plain Python and
sharing no code with it: products of permutations as tuples, sums and
products of Laurent polynomials as dicts, and an expansion of a
determinant by minors.  The cyclic garbage collector is off while it
runs, so that the size of the package's heap cannot change its time.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# Median of reference() between jobs on the machine the benchmark was
# written on (2 shared vCPUs, CPython 3.11.7).
NOMINAL_S = 0.0086

_rng = random.Random(1)
_MATRIX = [[{e: _rng.randint(-3, 3) or 1 for e in range(3)} for _ in range(5)]
           for _ in range(5)]
_P = (1, 2, 3, 4, 5, 6, 0)
_Q = (0, 2, 4, 1, 3, 6, 5)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(p: dict, q: dict, sign: int) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _det(m: list) -> dict:
    if len(m) == 1:
        return m[0][0]
    total: dict = {}
    rest = [row[1:] for row in m]
    for i in range(len(m)):
        minor = [rest[k] for k in range(len(m)) if k != i]
        total = _poly_add(total, _poly_mul(m[i][0], _det(minor)), 1 if i % 2 == 0 else -1)
    return total


def _permutations(n: int) -> tuple:
    acc = tuple(range(7))
    for _ in range(n):
        acc = tuple(_Q[i] for i in tuple(_P[i] for i in acc))
    return acc


def reference() -> tuple:
    """(start, seconds) of one pass of the reference workload."""
    gc.disable()
    try:
        start = time.perf_counter()
        _det(_MATRIX)
        _permutations(3000)
        return start, time.perf_counter() - start
    finally:
        gc.enable()


def scale(times: list, spans: list, refs: list) -> list:
    """Each of ``times`` at nominal speed.

    Time i was measured within ``spans[i]`` = (start, end), and ``refs``
    holds (start, seconds) of the references timed before each span and
    after the last one, so span i lies between refs[i] and refs[i + 1].
    Time i is scaled by the mean of those two and of every reference that
    started within twice the span's length before or after it: a long job
    is scaled by the machine's speed over a long stretch, a short job by
    its speed just around the job.
    """
    starts = [at for at, _ in refs]
    out = []
    for i, (t, (start, end)) in enumerate(zip(times, spans)):
        pad = 2 * (end - start)
        lo = min(i, bisect.bisect_left(starts, start - pad))
        hi = max(i + 2, bisect.bisect_right(starts, end + pad))
        out.append(t * NOMINAL_S / statistics.fmean(r for _, r in refs[lo:hi]))
    return out
