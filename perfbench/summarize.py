"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads alexander,...]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
workload and seed, one process at a time, and prints for every end-to-end
metric the median, the quartiles (``statistics.quantiles`` with n=4) and
the spread (q3 - q1) / median.  The last line of its output is the whole
report, every value included, as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(workloads.SIZES["full"]))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    report = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:      # a failed job or a failed run
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result["metrics"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        report[name] = {k: dict(summary([r[k]["value"] for r in runs]), unit=runs[0][k]["unit"])
                        for k in runs[0]}
        for metric, s in report[name].items():
            print(f"  {name:12s} {metric:28s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}", flush=True)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
