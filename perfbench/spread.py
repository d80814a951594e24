#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--out FILE]

For every workload it runs ``perfbench/run.py`` once per seed, one run at a
time, and prints for each metric its unit, median, quartiles and the
interquartile distance as a share of the median (the figure compared with the
metric's bound in BENCHMARK.json), plus the failed-operation share.  With
``--runs 1`` it is the one command that prints every end-to-end metric of
every workload.  ``--out`` writes the summary and the environment as JSON,
which is how perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    env = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env = run_once(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, failed_ops = {failed}/{attempted} = {failed / attempted:.4g}")
        rows = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / abs(median) if median else float("inf")
            bound = bounds.get(name)
            rows[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                          "spread": share, "values": values}
            mark = "" if bound is None else f"  bound {bound:g}{'  OVER a third' if share > bound / 3 else ''}"
            print(f"  {name:32s} {median:12.6g} {first['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f}{mark}")
        summary[workload] = {"runs": args.runs, "attempted": attempted, "failed": failed, "metrics": rows}
    if args.out:
        env.pop("workload", None)
        env.pop("seed", None)
        doc = {"environment": env, "run_seconds": spec["run_seconds"], "trace": args.trace,
               "first_seed": args.first_seed, "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
