#!/usr/bin/env python3
"""Self-test of the benchmark itself, at minimal sizes (a few seconds).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks, for every workload with tracing off and on, that the result object
has exactly the keys the contract names and that every metric BENCHMARK.json
lists is present with its unit; with tracing on, that every per-layer metric
the workload exercises (``run.APPLIES``) is measured and not n/a; that a
deliberately wrong expected value is
counted as a failed operation instead of aborting the run; and that in a
directory holding only BENCHMARK.json and perfbench/ the benchmark exits
non-zero without printing a result.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_shape(workload: str, trace: bool) -> None:
    result, lines = run.run_workload(workload, seed=7, seconds=0, trace=trace, small=True)
    expect(set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
           f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{workload} trace={trace}: metrics differ: "
                          f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
                          f"units {[(k, got[k]) for k in wanted if k in got and got[k] != wanted[k]]}")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{workload}: non-numeric metric value")
    if trace:
        unmeasured = [k for k in run.APPLIES[workload] if f"{k} = n/a" in lines]
        expect(not unmeasured, f"{workload}: exercised but not measured: {unmeasured}")
    print(f"ok  {workload} trace={int(trace)}: {len(got)} metrics, {result['attempted']} operations")


def check_wrong_expectation(workload: str, checks: dict) -> None:
    result, lines = run.run_workload(workload, seed=7, seconds=0, trace=False, small=True, checks=checks)
    expect(result["failed"] == result["attempted"] >= 1 and not result["correct"],
           f"{workload}: wrong expectation gave {result['failed']}/{result['attempted']} failed")
    expect(len(result["metrics"]) == len(SPEC["end_to_end"]), f"{workload}: metrics lost on failure")
    expect(any(line.startswith("failed_ops = ") for line in lines), f"{workload}: no failed_ops line")
    print(f"ok  {workload}: a wrong expected value fails {result['failed']}/{result['attempted']} operations")


def check_bare_directory() -> None:
    parent = Path.cwd() / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=parent))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare)
        try:
            parent.rmdir()
        except OSError:
            pass
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (False, True):
            check_shape(workload, trace)
    wrong_reference = {"op": lambda op, code, out, refs: run.op_ok(op, code, out, dict.fromkeys(refs, "2")),
                       "verify": run.check_verify}
    check_wrong_expectation("cold-constant", wrong_reference)
    too_many_digits = {"op": run.op_ok, "verify": lambda matched, digits: run.check_verify(matched, digits + 1000)}
    check_wrong_expectation("warm-verify", too_many_digits)
    bar, run.RESIDUAL_BAR = run.RESIDUAL_BAR, 0.0
    try:
        check_wrong_expectation("identity", {"op": run.op_ok, "verify": run.check_verify})
    finally:
        run.RESIDUAL_BAR = bar
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
