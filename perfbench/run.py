"""Benchmark of the ``knotgroups`` command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload alexander --seed 1 --seconds 20 --trace 0

Each job is one in-process call ``knotgroups.cli.main([..., "--json"])``,
exactly the arguments a user would type after ``knotgroups``; its stdout is
captured, parsed and checked against an answer that does not come from the
engines (closed forms, or counts pinned in ``pinned.json``).  One client
runs the jobs in a closed loop: the next job starts when the previous one
returns.  ``count`` jobs use the command's default ``--jobs``.

``--trace 0`` repeats the workload's seeded cycle of jobs until
``--seconds`` have passed and prints the end-to-end metrics.  ``--trace 1``
runs the same cycle alternately untraced and traced, with spans recorded
around the package's public functions (see ``tracing.py``), and prints the
per-layer metrics.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run in which any
job failed, or in which the traced counts did not repeat, exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed before the first job and again after the last, so that
# its median spans the run rather than one moment of a shared machine.
SETUP_REPEATS = (6, 5)

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "cli.self_s": "s",
    "presentations.parse_s": "s",
    "presentations.parse_letters": "count",
    "presentations.abelianize_s": "s",
    "fox.matrix_s": "s",
    "fox.fox_derivative_calls": "count",
    "fox.fox_derivative_s": "s",
    "fox.minors_s": "s",
    "laurent.gcd_calls": "count",
    "laurent.gcd_s": "s",
    "permgroups.group_build_s": "s",
    "permgroups.mul_calls": "count",
    "permgroups.pow_calls": "count",
    "permgroups.invert_calls": "count",
    "words.evaluate_calls": "count",
    "words.evaluate_s": "s",
    "homsearch.search_s": "s",
    "homsearch.self_s": "s",
    "homsearch.nodes": "count",
    "homsearch.relator_checks": "count",
    "homsearch.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# per-layer metric -> (span name, field of tracing.layer_times)
SPAN_METRICS = {
    "cli.self_s": ("cli", "self_s"),
    "presentations.parse_s": ("presentations.parse", "self_s"),
    "presentations.abelianize_s": ("presentations.abelianize", "self_s"),
    "fox.matrix_s": ("fox.matrix", "self_s"),
    "fox.fox_derivative_calls": ("fox.fox_derivative", "calls"),
    "fox.fox_derivative_s": ("fox.fox_derivative", "self_s"),
    "fox.minors_s": ("fox.alexander_polynomial", "self_s"),
    "laurent.gcd_calls": ("laurent.gcd", "calls"),
    "laurent.gcd_s": ("laurent.gcd", "self_s"),
    "permgroups.group_build_s": ("permgroups.group_build", "self_s"),
    "words.evaluate_calls": ("words.evaluate", "calls"),
    "words.evaluate_s": ("words.evaluate", "self_s"),
    "homsearch.search_s": ("homsearch.search", "total_s"),
    "homsearch.self_s": ("homsearch.search", "self_s"),
}

COUNTER_METRICS = {
    "presentations.parse_letters": "presentations.parse_letters",
    "permgroups.mul_calls": "permgroups.mul",
    "permgroups.pow_calls": "permgroups.pow",
    "permgroups.invert_calls": "permgroups.invert",
}


def is_count_metric(name: str) -> bool:
    return PER_LAYER[name] == "count"


# -- set-up ------------------------------------------------------------------


def import_package():
    """Import ``knotgroups.cli`` from this checkout's ``src``."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("knotgroups.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"knotgroups was imported from {cli.__file__}, not from {SRC}")
    return cli


# One cold set-up: a fresh interpreter imports the package, so that every
# module it pulls in at import time is counted, and writes the inputs.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import knotgroups.cli
if not knotgroups.cli.__file__.startswith({src!r}):
    sys.exit("knotgroups was imported from " + knotgroups.cli.__file__)
import workloads
workloads.write_inputs(workloads.SIZES[{size!r}][{workload!r}], {workdir!r})
print(time.perf_counter() - start)
"""


def set_up(size: str, workload: str, workdir: str, repeats: int) -> list:
    """Time ``repeats`` cold set-ups, each in its own interpreter."""
    code = SETUP_PROBE.format(src=SRC + os.sep, here=HERE, size=size,
                              workload=workload, workdir=workdir)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise ImportError(proc.stderr.strip()[-500:])
        times.append(float(proc.stdout))
    return times


# -- jobs ----------------------------------------------------------------------


def check_answer(job, code, stdout: str):
    """Whether a job exited 0 with the expected answer; also its report."""
    if code != 0:
        return False, None
    try:
        report = json.loads(stdout)
        results = report["results"]
        if job.kind.startswith("alex"):
            return inputs.parse_poly(results["alexander_polynomial"]) == job.expected, report
        count = results["count"]
        if count != job.expected:
            return False, report
        if job.listing:
            listed = results["assignments"]
            distinct = {tuple(sorted(a.items())) for a in listed}
            return len(listed) == count and len(distinct) == count, report
        return True, report
    except (ValueError, KeyError, TypeError, AttributeError):
        return False, None


def run_job(cli, job):
    """Run one job; return (latency in s, answer correct, parsed report)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:      # argparse rejects bad arguments this way
        code = exc.code
    except Exception:              # a crash is a failed job, not a failed run
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    ok, report = check_answer(job, code, out.getvalue())
    if not ok:
        print(f"FAILED {job.kind} param={job.param} exit={code}: "
              f"{err.getvalue().strip()[-500:]}", file=sys.stderr)
    return latency, ok, report


def run_cycle(cli, jobs, tracer=None):
    """Run jobs in order; return (latencies, failures, reports)."""
    latencies, failed, reports = [], 0, []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        latency, ok, report = run_job(cli, job)
        latencies.append(latency)
        failed += not ok
        reports.append(report)
    return latencies, failed, reports


# -- end-to-end run ----------------------------------------------------------


def tail(latencies, cycle_jobs: int):
    """(percentile, value): the highest whole percentile with at least ten
    of one cycle's jobs beyond it, taken over all the run's latencies by
    the nearest-rank rule.  The percentile depends on the cycle alone, so
    it picks the same job of the cycle however many cycles a run holds."""
    ordered = sorted(latencies)
    pct = (100 * (cycle_jobs - 10)) // cycle_jobs
    rank = max(1, -(-pct * len(ordered) // 100))
    return pct, ordered[rank - 1]


def end_to_end(cli, schedule, seconds: float, setup_times: list, set_up_again):
    """Repeat the cycle until ``seconds`` pass, with the machine's speed
    timed between every two jobs (``speed.reference``); the job times
    reported are scaled to the machine's nominal speed."""
    jobs = schedule.jobs
    latencies, spans, refs = [], [], [speed.reference()]
    failed, cycles, log = 0, 0, []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        for job in jobs:
            began = time.perf_counter()
            latency, ok, _ = run_job(cli, job)
            spans.append((began, began + latency))
            refs.append(speed.reference())
            latencies.append(latency)
            failed += not ok
            log.append((cycles, job.kind, job.param, began - start, latency, refs[-1][1]))
        cycles += 1
    with open(os.path.join(RUN_DIR, f"jobs-{schedule.workload.name}-{schedule.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(log, fh)
    setup_s = statistics.median(setup_times + set_up_again())
    n, pct = len(latencies), tail(latencies, len(jobs))[0]
    print(f"{schedule.workload.name}: {cycles} cycles, {n} jobs, "
          f"{time.perf_counter() - start:.1f} s; job_tail_ms is p{pct} of {n} jobs")
    measured = summary(latencies, len(jobs))
    print("job times as measured: " + "  ".join(f"{k}={v:.6g}" for k, v in measured.items()))
    metrics = {"setup_s": setup_s}
    metrics.update(summary(speed.scale(latencies, spans, refs), len(jobs)))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_ratio"] = (n - failed) / n
    return n, failed, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def summary(latencies: list, cycle_jobs: int) -> dict:
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * tail(latencies, cycle_jobs)[1],
    }


# -- traced run ----------------------------------------------------------------


def install(tracer):
    cli = sys.modules["knotgroups.cli"]
    fox = sys.modules["knotgroups.fox"]
    Word = sys.modules["knotgroups.words"].Word
    Permutation = sys.modules["knotgroups.permgroups"].Permutation

    def parsed_letters(counts, presentation):
        counts["presentations.parse_letters"] += sum(r.letter_length() for r in presentation.relators)

    tracer.span(cli, "main", "cli")
    tracer.span(cli, "parse", "presentations.parse", post=parsed_letters)
    tracer.span(fox, "abelianize", "presentations.abelianize")
    tracer.span(cli, "alexander_polynomial", "fox.alexander_polynomial")
    tracer.span(fox, "alexander_matrix", "fox.matrix")
    tracer.span(fox, "fox_derivative", "fox.fox_derivative")
    tracer.span(fox, "laurent_gcd", "laurent.gcd")
    tracer.span(cli, "group_from_spec", "permgroups.group_build")
    tracer.span(cli, "count_homs", "homsearch.search")
    tracer.span(cli, "meridian_search", "homsearch.search")
    tracer.span(Word, "evaluate", "words.evaluate")
    tracer.counter(Permutation, "__mul__", "permgroups.mul")
    tracer.counter(Permutation, "__pow__", "permgroups.pow")
    tracer.counter(Permutation, "__invert__", "permgroups.invert")


def layer_metrics(tracer, reports):
    """Per-layer numbers of one traced cycle (trace.overhead_ratio aside)."""
    times = tracing.layer_times(tracer.spans())
    counts = tracer.counts()
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = times.get(span, {}).get(field, 0)
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counts.get(counter, 0)
    stats = [r for r in reports if r and r.get("command") == "count"]
    nodes = sum(r["stats"]["nodes"] for r in stats)
    found = sum(r["results"]["count"] for r in stats)
    out["homsearch.nodes"] = nodes
    out["homsearch.relator_checks"] = sum(r["stats"]["relator_checks"] for r in stats)
    out["homsearch.hit_ratio"] = found / nodes if nodes else 0.0
    return out


def write_spans(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tthread\tjob\tstart\tend\n")
        for row in tracer.spans():
            fh.write("\t".join(str(x) for x in row) + "\n")


def per_layer(cli, schedule, seconds: float):
    """Alternate untraced and traced runs of the cycle until ``seconds`` pass."""
    jobs = schedule.jobs
    untraced, traced, reps = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        lat, fail, _ = run_cycle(cli, jobs)
        untraced.append(sum(lat))
        tracer = tracing.Tracer()
        try:
            install(tracer)
            tracer.bind_client()
            lat_t, fail_t, reports = run_cycle(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(lat_t))
        reps.append(layer_metrics(tracer, reports))
        attempted += 2 * len(jobs)
        failed += fail + fail_t
    write_spans(tracer, os.path.join(RUN_DIR, f"spans-{schedule.workload.name}.tsv"))
    counts_repeat = all(rep[k] == reps[0][k] for rep in reps for k in rep if is_count_metric(k))
    if not counts_repeat:
        print("count metrics differ between traced repetitions of one cycle", file=sys.stderr)
    metrics = {k: (reps[0][k] if is_count_metric(k) else statistics.median(r[k] for r in reps))
               for k in reps[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    print(f"{schedule.workload.name}: {len(reps)} traced and untraced runs of a "
          f"{len(jobs)}-job cycle, {time.perf_counter() - start:.1f} s")
    return (attempted, failed, counts_repeat,
            {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER})


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the knotgroups command line.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the same job kinds at the smallest parameters")
    args = ap.parse_args(argv)
    workload = workloads.SIZES[args.size][args.workload]
    setup = functools.partial(set_up, args.size, args.workload)

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"inputs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            cli = import_package()
            setup_times = setup(workdir, SETUP_REPEATS[0])
        except ImportError as exc:
            print(f"cannot import knotgroups from {SRC}: {exc}", file=sys.stderr)
            return 2
        schedule = workloads.Schedule(workload, args.seed, workdir, inputs.load_pinned())
        if args.trace:
            attempted, failed, repeat, metrics = per_layer(cli, schedule, args.seconds)
            correct = failed == 0 and repeat
        else:
            attempted, failed, metrics = end_to_end(
                cli, schedule, args.seconds, setup_times,
                functools.partial(setup, workdir, SETUP_REPEATS[1]))
            correct = failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
