"""The benchmark's workloads: which jobs a run executes, in which order,
and the answer each job must give.

The seed draws one *cycle* of jobs and a run repeats that cycle, so the
jobs measured do not depend on how many cycles a run completes, and the
traced run measures the same jobs as the untraced one.  Each job kind
splits its list of parameter values into S equal strata and draws one
value from each; the seed also shuffles the order of the cycle.  Strata
are narrow, so the cost of a cycle, and the job at its median, barely
depend on the seed.

Job costs when the benchmark was written bound the parameter ranges: a run
must hold enough jobs for a stable median and tail:

* ``alexander``: 45 family jobs over [1, 181] (strata of four values) and
  the three Wirtinger T(2, n) jobs, about 14 s a cycle.
* ``meridian_a5``: the pruned meridian_B backtrack jobs draw m from all of
  [1, 181], in 36 strata.  The three 3600-leaf sweeps (meridian_G, and
  naive) cost about 40 ms per unit of m, 7 s at m = 181, so they run at
  every m in [1, 6]; about 10 s a cycle, so that a run repeats it.
* ``homs_psl27``: listing all homomorphisms takes 6 to 9 s a job, so the
  list job is always m = 1, the smallest member with thousands of
  solutions: 2688 homomorphisms from 254,184 nodes.  meridian_G counts run
  at every m in [1, 4]; the cheap meridian_B counts at every m in
  [1, 12], twice each, so that the median and the tail rest on many
  jobs.  This workload's seed only orders the cycle; about 15 s a cycle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, Tuple

import inputs

MIN_JOBS = 11   # the tail percentile of a cycle needs ten jobs beyond it


@dataclass(frozen=True)
class Job:
    kind: str
    param: int                 # m of a family presentation, n of T(2, n)
    argv: Tuple[str, ...]      # arguments of knotgroups.cli.main
    expected: object           # polynomial as {exp: coeff}, or a count
    listing: bool = False      # --list: the report lists every assignment


@dataclass(frozen=True)
class Stratified:
    kind: str
    values: Tuple[int, ...]    # parameter values, split into equal strata
    strata: int


def span(lo: int, hi: int) -> Tuple[int, ...]:
    return tuple(range(lo, hi + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    drawn: Tuple[Stratified, ...]
    torus: Tuple[int, ...] = ()


def _marker(spec: str, sigma: str, marker: str, mode: str) -> Tuple[str, ...]:
    return ("--group", spec, "--marker", f"{marker}={sigma}", "--mode", mode)


# kind -> (extra cli arguments, expected answer of parameter m)
def _kinds(pinned: Dict) -> Dict[str, Tuple[Tuple[str, ...], object]]:
    a5 = pinned["a5"]
    psl = pinned["psl27"]

    def a5_count(marker):
        return lambda m: a5[str((m - 1) % inputs.A5_EXPONENT + 1)][marker]

    def psl_count(key):
        return lambda m: psl[str(m)][key]

    kinds = {"alex": (("alex",), inputs.family_alexander),
             "psl27_list": (("count", "--group", inputs.PSL27_SPEC, "--list"),
                            psl_count("homs"))}
    for marker in ("meridian_B", "meridian_G"):
        tag = marker[-1]
        for mode in ("backtrack", "naive"):
            kinds[f"a5_{tag}_{mode}"] = (
                ("count",) + _marker(inputs.A5_SPEC, inputs.A5_SIGMA, marker, mode),
                a5_count(marker))
        kinds[f"psl27_{tag}"] = (
            ("count",) + _marker(inputs.PSL27_SPEC, inputs.PSL27_SIGMA, marker, "backtrack"),
            psl_count(marker))
    return kinds


FULL = {
    w.name: w for w in (
        Workload(
            "alexander",
            (Stratified("alex", span(1, inputs.FAMILY_M_MAX), 45),),
            torus=inputs.WIRTINGER_N),
        Workload(
            "meridian_a5",
            (Stratified("a5_B_backtrack", span(1, inputs.FAMILY_M_MAX), 36),
             Stratified("a5_G_backtrack", span(1, 6), 6),
             Stratified("a5_B_naive", span(1, 6), 6),
             Stratified("a5_G_naive", span(1, 6), 6))),
        Workload(
            "homs_psl27",
            (Stratified("psl27_B", span(1, inputs.PSL27_M_MAX), 2 * inputs.PSL27_M_MAX),
             Stratified("psl27_G", span(1, 4), 4),
             Stratified("psl27_list", (1,), 1))),
    )
}

# The same kinds at the smallest parameters, for the benchmark's own checks.
TINY = {
    "alexander": Workload("alexander", (Stratified("alex", span(1, 9), 9),), torus=(3, 5)),
    "meridian_a5": Workload(
        "meridian_a5",
        tuple(Stratified(k, span(1, 3), 3) for k in
              ("a5_B_backtrack", "a5_G_backtrack", "a5_B_naive", "a5_G_naive"))),
    "homs_psl27": Workload(
        "homs_psl27",
        (Stratified("psl27_B", span(1, 3), 9), Stratified("psl27_G", (2,), 1),
         Stratified("psl27_list", (2,), 1))),
}

SIZES = {"full": FULL, "tiny": TINY}


def family_path(workdir: str, m: int) -> str:
    return os.path.join(workdir, f"family-{m}.txt")


def torus_path(workdir: str, n: int) -> str:
    return os.path.join(workdir, f"torus-2-{n}.txt")


def write_inputs(workload: Workload, workdir: str) -> None:
    """Write every presentation file the workload can draw."""
    ms = set()
    for d in workload.drawn:
        ms.update(d.values)
    for m in sorted(ms):
        with open(family_path(workdir, m), "w", encoding="utf-8") as fh:
            fh.write(inputs.family_text(m))
    for n in workload.torus:
        with open(torus_path(workdir, n), "w", encoding="utf-8") as fh:
            fh.write(inputs.wirtinger_torus_text(n))


class Schedule:
    """The seeded cycle of one workload's jobs, which a run repeats."""

    def __init__(self, workload: Workload, seed: int, workdir: str, pinned: Dict):
        self.workload = workload
        self.seed = seed
        kinds = _kinds(pinned)
        rng = random.Random(f"{workload.name}/{seed}")
        jobs = []
        for d in workload.drawn:
            args, answer = kinds[d.kind]
            count = len(d.values)
            for stratum in range(d.strata):
                lo = stratum * count // d.strata
                hi = max(lo + 1, (stratum + 1) * count // d.strata)
                m = d.values[rng.randrange(lo, hi)]
                argv = (args[0], family_path(workdir, m)) + args[1:] + ("--json",)
                jobs.append(Job(d.kind, m, argv, answer(m), listing="--list" in args))
        for n in workload.torus:
            jobs.append(Job("alex_torus", n, ("alex", torus_path(workdir, n), "--json"),
                            inputs.torus_alexander(n)))
        rng.shuffle(jobs)
        if len(jobs) < MIN_JOBS:
            raise ValueError(f"{workload.name}: a cycle of {len(jobs)} jobs is too short "
                             f"for a tail with ten jobs beyond it")
        self.jobs = jobs
