"""The benchmark's own checks.  Run from the repository root:

    python3 perfbench/check.py

1. ``BENCHMARK.json`` names the same workloads and metrics, with the same
   units, as ``run.py`` prints.
2. The expected answers match their closed forms and pinned tables are
   consistent: (1 + t) * Delta = 1 + t^(k+1) for every alternating answer
   of degree k, PSL(2,7) counts repeat at m + 168, and the A5 row of
   m = 1 is the paper's 6 and 1.
3. Each workload runs at a tiny size, untraced and traced, with every
   answer right and every named metric present.
4. Every count metric repeats exactly across two traced runs with the
   same seed, in separate processes.
5. A wrong answer makes the run exit 1 with ``correct`` false, and the
   tracer refuses to wrap a function that is not there.
6. Without the package next to it, the benchmark exits nonzero and prints
   no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def check_declaration() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect({w["name"] for w in bench["workloads"]} == set(workloads.FULL),
           "BENCHMARK.json workloads are run.py's workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics and units are run.py's")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer metrics and units are run.py's")


def check_answers() -> None:
    one_plus_t = {0: 1, 1: 1}
    ok = all(poly_mul(one_plus_t, inputs.family_alexander(m)) == {0: 1, 2 * m + 1: 1}
             for m in range(1, inputs.FAMILY_M_MAX + 1))
    expect(ok, "family answers: (1 + t) * Delta_m = 1 + t^(2m+1) for m in [1, 181]")
    ok = all(poly_mul(one_plus_t, inputs.torus_alexander(n)) == {0: 1, n: 1}
             for n in inputs.WIRTINGER_N)
    expect(ok, "T(2,n) answers: (1 + t) * Delta = 1 + t^n")
    ok = all(inputs.parse_poly(text) == want for text, want in (
        ("1 - t + t^2", {0: 1, 1: -1, 2: 1}),
        ("t^-2 - t^-1 + 1", {-2: 1, -1: -1, 0: 1}),
        ("-2*t^3 + 7*t^5", {3: -2, 5: 7})))
    expect(ok, "the polynomial reader reads the package's text form")
    pinned = inputs.load_pinned()
    psl = pinned["psl27"]
    expect(all(psl[str(m)] == psl[str(m + inputs.PSL27_ORDER)]
               for m in range(1, inputs.PSL27_M_MAX + 1)),
           "PSL(2,7) counts at m and m + 168 agree for m in [1, 12]")
    expect(psl["3"]["meridian_B"] == 13 and psl["3"]["meridian_G"] == 7,
           "PSL(2,7) marker counts at m = 3 are 13 and 7")
    a5 = pinned["a5"]
    expect(sorted(map(int, a5)) == list(range(1, inputs.A5_EXPONENT + 1)),
           "A5 counts are pinned for every residue of m mod 30")
    expect(a5["1"] == {"meridian_B": 6, "meridian_G": 1},
           "A5 counts at m = 1 (so 61, 121, 181) are the paper's 6 and 1")


def bench(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_runs() -> None:
    for name in workloads.FULL:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, result = bench(name, trace)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in result["metrics"].items()} == table)
            expect(ok, f"{name} --trace {trace} at tiny size: correct, every metric present")
            if trace:
                _, again = bench(name, 1)
                counts = [k for k in run.PER_LAYER if run.is_count_metric(k)]
                ok = (result is not None and again is not None
                      and all(result["metrics"][k] == again["metrics"][k] for k in counts))
                expect(ok, f"{name}: count metrics repeat across two traced runs")


def check_refusals() -> None:
    right = inputs.torus_alexander
    inputs.torus_alexander = lambda n: {0: 1}
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "alexander", "--seed", "7", "--seconds", "0",
                             "--size", "tiny"])
    finally:
        inputs.torus_alexander = right
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code == 1 and not result["correct"] and result["failed"] == 2,
           "a wrong answer fails its job and the run exits 1")
    try:
        tracing.Tracer().span(tracing, "no_such_function", "missing")
        raised = False
    except AttributeError:
        raised = True
    expect(raised, "the tracer refuses to wrap a function that is not there")


def check_bare() -> None:
    bare = os.path.join(run.RUN_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".run", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result = bench("alexander", 0, cwd=bare)
        expect(code != 0 and result is None,
               "without the package the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_declaration()
    check_answers()
    check_runs()
    check_refusals()
    check_bare()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
