#!/usr/bin/env python3
"""oddzeta benchmark: time to a checked D-digit constant, cold and warm, plus
the Fourier-identity pass.  Standard library only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process (run.py) generates all load as a closed loop with one client: it
runs one child process at a time and starts the next only when the previous
one has exited.  The workloads and why each exists are in BENCHMARK.json;
perfbench/DESIGN.md maps every per-layer metric to the end-to-end metric it
should move.

A workload is a fixed list of operations.  The seed permutes their order in
every pass and picks the generic identity angles; it never changes how much
work a pass holds.  Passes repeat until ``--seconds`` have elapsed (at least
one).  End-to-end times use each operation's fastest repeat in the run (see
``end_to_end``); set-up time is the median of at least three set-ups.  The
oracle references the checks compare with are computed once, outside every
timed phase and every set-up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Lines before it name each metric with its unit, the failed-operation share and
the environment.  The exit code is 0 whenever a result line is printed, even
if some operations failed the correctness check; that is what ``correct``,
``attempted`` and ``failed`` report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_MIN = 3  # set-up samples per run at least; setup_s is their median
RUN_DEADLINE_S = 165.0  # the whole run must end well inside 180 s
RESIDUAL_BAR = 1e-8  # the README's acceptance bar for identity residuals
REFERENCE_EXTRA_DIGITS = 5

# (name, digits): low and high k and one closed form.  At 50 digits a constant
# needs about 280 of the 512 Bernoulli numbers the doubling policy builds, at
# 100 about 500.  150 and 200 digits take 2 to 3.5 s per cold process, too few
# repeats in a run to measure steadily on a shared machine.
CONSTANT_MIX = (
    ("catalan", 30),
    ("zeta_odd(3)", 30),
    ("zeta_odd(5)", 30),
    ("apery", 50),
    ("beta_even(5)", 50),
    ("zeta_odd(2)", 50),
    ("apery", 100),
    ("beta_even(5)", 100),
    ("zeta_odd(3)", 100),
    ("zeta_even(10)", 100),
)
WARM_LEVELS = (30, 100, 200)
GENERIC_THETAS = ("1/2", "1", "2")  # same cost; the seed picks one per operation
# (identity, k, theta or None for a seeded generic angle, Fourier terms, series terms).
# Half the 2e5 / 2e4 Fourier terms first planned, for more repeats in a run;
# fewer would add few repeats (a process costs 0.2 s before its Fourier
# pass) and leave the pass too small to see.
IDENTITY_MIX = (
    ("S1", 1, None, 100_000, 80),
    ("S2", 1, None, 100_000, 80),
    ("S1", 2, None, 10_000, 80),
    ("S2", 2, None, 10_000, 80),
    ("S1", 3, None, 10_000, 80),
    ("S2", 3, None, 10_000, 80),
    ("S1", 1, "pi/2", 100_000, 80),  # exact sin/cos branch
    ("S2", 2, "3", 10_000, 200),  # near pi the ladder needs more terms
    ("S1", 3, "3", 10_000, 200),
)
IDENTITY_DIGITS = 30

# Minimal sizes, used by selftest.py to exercise every code path quickly.
SMALL_MIX = (("catalan", 12), ("zeta_even(3)", 12))
SMALL_WARM_LEVELS = (8,)
SMALL_IDENTITY_MIX = (("S1", 2, None, 2_000, 40), ("S2", 1, "pi/2", 2_000, 40))

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("exact", "coeffs", "highprec", "constants", "oracle", "identities", "cli")

# Per-layer metrics each workload's own operations must exercise; selftest.py
# checks that each is measured.  A traced run reports any metric its
# operations never reach as 0 and marks it n/a.
_CONSTANT_PATH = (
    "exact.tangent_s", "exact.bernoulli_needed", "exact.bernoulli_built", "exact.bernoulli_useful",
    "exact.self_s", "coeffs.build_table_s", "coeffs.rows_built", "coeffs.rows_useful",
    "coeffs.self_s", "highprec.compute_pi_s", "highprec.sum_series_s", "highprec.terms_used",
    "highprec.self_s", "constants.compute_constant_s", "constants.self_s", "trace.overhead_s",
)
_CLI = ("cli.startup_s", "cli.process_overhead_s", "cli.self_s")
APPLIES = {
    "cold-constant": (*_CONSTANT_PATH, *_CLI),
    "warm-verify": (*_CONSTANT_PATH, "oracle.reference_s", "oracle.verify_s",
                    "oracle.matched_margin", "oracle.self_s"),
    "identity": ("exact.tangent_s", "exact.bernoulli_needed", "exact.bernoulli_built",
                 "exact.bernoulli_useful", "exact.self_s", "coeffs.self_s", "highprec.self_s",
                 "identities.fourier_lhs_s", "identities.fourier_terms_per_s",
                 "identities.rhs_eval_s", "identities.self_s", "trace.overhead_s", *_CLI),
}


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# --------------------------------------------------------------------------
# children


@dataclass
class Child:
    code: int
    lines: list[str]
    err: str
    wall: float
    cpu: float
    rss_mb: float
    ready_s: float | None = None

    def result(self) -> dict:
        """The worker's last JSON line; {} if it printed none."""
        try:
            return json.loads(self.lines[-1])
        except (IndexError, ValueError):
            return {}


@dataclass
class Context:
    root: Path
    env: dict
    tmp: Path
    deadline: float
    rng: random.Random
    small: bool
    checks: dict


def child_env(root: Path) -> dict:
    """A child environment built from nothing, so that no user setting leaks in.

    It drops ODDZETA_CACHE_DIR (a user's cache would turn cold runs warm) and
    PYTHONOPTIMIZE (-O strips the asserts the package relies on), and puts
    this checkout's src first on the path: the package is not installed.
    """
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
    }


def run_child(ctx: Context, argv: list[str], ready: bool = False) -> Child:
    """Run one child to completion and collect its output and resource use.

    ``os.wait4`` gives the child's own CPU time and peak resident set.  A
    child still running at the run's deadline is killed and reported as
    failed (a negative exit code).
    """
    t0 = time.perf_counter()
    timeout = max(1.0, ctx.deadline - t0)
    with tempfile.TemporaryFile(dir=ctx.tmp) as errf:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ctx.root, env=ctx.env,
            stdout=subprocess.PIPE, stderr=errf, text=True,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            ready_s = None
            head = []
            if ready:
                head.append(proc.stdout.readline())
                ready_s = time.perf_counter() - t0
            out = "".join(head) + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        errf.seek(0)
        err = errf.read().decode(errors="replace")
    return Child(
        code=proc.returncode,
        lines=out.splitlines(),
        err=err,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        ready_s=ready_s,
    )


def worker_argv(job: dict) -> list[str]:
    return [str(WORKER), json.dumps(job)]


# --------------------------------------------------------------------------
# operations and their checks


@dataclass(frozen=True)
class Op:
    kind: str  # "constant" or "identity"
    argv: tuple[str, ...]
    spec: tuple  # (name, digits) or (identity, k, theta, terms, series_terms)

    def label(self) -> str:
        return " ".join(self.argv)


def constant_ops(mix) -> list[Op]:
    return [Op("constant", ("constant", name, "--digits", str(d)), (name, d)) for name, d in mix]


def identity_ops(mix, rng: random.Random) -> list[Op]:
    ops = []
    for ident, k, theta, terms, series_terms in mix:
        theta = theta or rng.choice(GENERIC_THETAS)
        argv = ("identity", "--id", ident, "--k", str(k), "--theta", theta,
                "--terms", str(terms), "--series-terms", str(series_terms),
                "--digits", str(IDENTITY_DIGITS))
        ops.append(Op("identity", argv, (ident, k, theta, terms, series_terms)))
    return ops


def reference_key(name: str, digits: int) -> str:
    return f"{name}@{digits + REFERENCE_EXTRA_DIGITS}"


def check_constant(out: str, name: str, digits: int, refs: dict) -> bool:
    """The printed value equals the oracle at D+5 rounded to D digits, within 1 ulp."""
    try:
        printed = Fraction(out.strip()) * 10**digits
        expected = Fraction(refs[reference_key(name, digits)]) * 10**digits
    except (KeyError, ValueError, ZeroDivisionError):
        return False
    return printed.denominator == 1 and abs(printed - round(expected)) <= 1


def check_identity(out: str) -> bool:
    """The printed residual is below the README's bar."""
    for token in out.split():
        if token.startswith("residual="):
            try:
                return float(token.partition("=")[2]) < RESIDUAL_BAR
            except ValueError:
                return False
    return False


def check_verify(matched: int, digits: int) -> bool:
    return matched >= digits


def op_ok(op: Op, code: int, out: str, refs: dict) -> bool:
    if code != 0:
        return False
    if op.kind == "constant":
        return check_constant(out, *op.spec, refs)
    return check_identity(out)


# --------------------------------------------------------------------------
# tallies


@dataclass
class Tally:
    """Everything measured in one run."""

    setups: list[float] = field(default_factory=list)
    # operation label -> [(wall, cpu)] of its untraced and traced runs
    samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    traced_samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    passes: int = 0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # traced runs: one merged profile summary per traced pass
    traced: list[dict] = field(default_factory=list)
    setup_trace: dict | None = None
    overheads: list[float] = field(default_factory=list)

    def sample(self, label: str, wall: float, cpu: float, traced: bool) -> None:
        (self.traced_samples if traced else self.samples).setdefault(label, []).append((wall, cpu))

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(label)


def merge_traces(traces: list[dict]) -> dict:
    """Sum the profile summaries of one pass; the matched margin keeps its minimum."""
    merged: dict[str, dict] = {"spans": {}, "layers": {}, "counts": {}}
    for t in traces:
        for part, into in merged.items():
            for k, v in t.get(part, {}).items():
                if k == "oracle.matched_margin":
                    into[k] = min(into.get(k, v), v)
                else:
                    into[k] = into.get(k, 0) + v
    return merged


# --------------------------------------------------------------------------
# workloads


def check_package(ctx: Context, child: Child, package: str, where: str) -> None:
    """Fail the run unless ``child`` succeeded with oddzeta from this checkout."""
    if child.code != 0 or Path(package).resolve() != (ctx.root / "src" / "oddzeta").resolve():
        raise SetupError(f"{where} failed (exit {child.code}): {child.err.strip()[-400:]}")


def references(ctx: Context, constants) -> dict:
    """Oracle references at D+5 for every (name, D), computed once, untimed."""
    wanted = sorted({(n, d + REFERENCE_EXTRA_DIGITS) for n, d in constants})
    child = run_child(ctx, worker_argv({"job": "references", "constants": wanted}))
    doc = child.result()
    check_package(ctx, child, doc.get("package", ""), "computing the references")
    return doc["refs"]


def import_check(ctx: Context, tally: Tally) -> None:
    """One set-up sample of the CLI workloads: a fresh interpreter imports oddzeta.cli.

    The workloads have no set-up of their own; this is the check that the
    package comes from this checkout, and it is also what ``cli.startup_s``
    reports.  Work moved into import time shows here.
    """
    argv = ["-c", "import oddzeta.cli; print(oddzeta.cli.__file__.rpartition('/')[0])"]
    child = run_child(ctx, argv)
    check_package(ctx, child, child.lines[-1] if child.lines else "", "importing oddzeta.cli")
    tally.setups.append(child.wall)


def run_pass(ctx: Context, ops: list[Op], mode: str, refs: dict, tally: Tally) -> list[dict]:
    """One pass over ``ops`` in seeded order, one child at a time.

    mode "cli" runs ``python -m oddzeta.cli``; "wrapper" runs the same command
    through worker.py, which also reports the in-process ``cli.run`` time;
    "traced" runs it through worker.py under cProfile.
    """
    traces = []
    for op in ctx.rng.sample(ops, len(ops)):
        if time.perf_counter() > ctx.deadline:
            break
        if mode == "cli":
            child = run_child(ctx, ["-m", "oddzeta.cli", *op.argv])
            code, out = child.code, "\n".join(child.lines)
        else:
            job = {"job": "cli" if mode == "wrapper" else "trace", "argv": list(op.argv)}
            child = run_child(ctx, worker_argv(job))
            doc = child.result()
            code, out = (child.code or doc.get("code", 1)), doc.get("out", "")
            if mode == "wrapper" and "run_s" in doc:
                tally.overheads.append(child.wall - doc["run_s"])
            if mode == "traced" and "counts" in doc:
                if op.kind == "identity":
                    doc["counts"]["identities.fourier_terms"] = op.spec[3]
                traces.append(doc)
        tally.sample(op.label(), child.wall, child.cpu, mode == "traced")
        tally.rss_mb = max(tally.rss_mb, child.rss_mb)
        tally.record(f"{mode}: {op.label()}", ctx.checks["op"](op, code, out, refs))
    return traces


def cli_passes(ctx: Context, ops: list[Op], seconds: float, trace: bool,
               refs: dict, tally: Tally) -> None:
    """Closed loop over whole passes until ``seconds`` have elapsed.

    Traced runs alternate a wrapper pass (untraced) and a traced pass, and
    always make at least one of each.  An import check precedes every pass,
    so that the set-up samples spread over the run (the neighbours' load on
    a shared machine changes within it) instead of bunching at its start.
    """
    modes = ("wrapper", "traced") if trace else ("cli",)
    t0 = time.perf_counter()
    n = 0
    while n < len(modes) or (time.perf_counter() - t0 < seconds and time.perf_counter() < ctx.deadline):
        mode = modes[n % len(modes)]
        import_check(ctx, tally)
        traces = run_pass(ctx, ops, mode, refs, tally)
        if mode == "traced":
            tally.traced.append(merge_traces(traces))
        n += 1
    tally.passes += n
    while len(tally.setups) < SETUP_MIN:
        import_check(ctx, tally)


def workload_constant(ctx: Context, seconds: float, trace: bool, tally: Tally) -> None:
    """cold-constant: one fresh CLI process per constant, no cache directory."""
    mix = SMALL_MIX if ctx.small else CONSTANT_MIX
    refs = references(ctx, mix)
    cli_passes(ctx, constant_ops(mix), seconds, trace, refs, tally)


def workload_identity(ctx: Context, seconds: float, trace: bool, tally: Tally) -> None:
    """identity: one fresh CLI process per Fourier-identity residual."""
    ops = identity_ops(SMALL_IDENTITY_MIX if ctx.small else IDENTITY_MIX, ctx.rng)
    cli_passes(ctx, ops, seconds, trace, {}, tally)


def workload_warm(ctx: Context, seconds: float, trace: bool, tally: Tally) -> None:
    """warm-verify: one worker process calls verify() over the battery.

    Set-up is the time from starting a worker to the end of its untimed
    warm-up pass.  Extra workers stop there, so that it is sampled several
    times; the last worker goes on to the timed passes.
    """
    levels = list(SMALL_WARM_LEVELS if ctx.small else WARM_LEVELS)
    job = {"job": "warm", "levels": levels, "seed": ctx.rng.randrange(2**32),
           "seconds": seconds, "trace": trace}
    while len(tally.setups) < SETUP_MIN - 1:
        child = run_child(ctx, worker_argv({**job, "trace": False, "setup_only": True}), ready=True)
        if child.code != 0:
            raise SetupError(f"warm-up failed: {child.err.strip()[-400:]}")
        tally.setups.append(child.ready_s)
    child = run_child(ctx, worker_argv({**job, "setup_only": False}), ready=True)
    doc = child.result()
    if child.code != 0 or "calls" not in doc:
        raise SetupError(f"warm worker failed: {child.err.strip()[-400:]}")
    tally.setups.append(child.ready_s)
    tally.rss_mb = child.rss_mb
    ops = doc["ops"]
    for i, matched, wall, cpu, traced in doc["calls"]:
        name, d = ops[i]
        label = f"verify {name} --digits {d}"
        tally.sample(label, wall, cpu, traced)
        tally.record(label, ctx.checks["verify"](matched, d))
    tally.passes += doc["passes"]
    tally.traced += doc["traces"]
    tally.setup_trace = doc["setup"]


WORKLOADS = {
    "cold-constant": workload_constant,
    "warm-verify": workload_warm,
    "identity": workload_identity,
}


# --------------------------------------------------------------------------
# metrics


def fastest(samples: dict, index: int) -> list[float]:
    """Each operation's fastest wall (index 0) or CPU time (index 1) in the run."""
    return [min(s[index] for s in runs) for runs in samples.values()]


def end_to_end(tally: Tally) -> dict:
    """Times are taken per operation at its fastest, then combined.

    On a VM shared with other tenants the speed of pure-Python code can
    shift by 40% or more for seconds to minutes with the neighbours' load; a
    median over one run follows that load, the fastest repeat of each
    operation follows the code.  wall_s and cpu_s are one pass of the fixed
    list at that speed, op_p50_ms its median operation.
    """
    walls = fastest(tally.samples, 0)
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(fastest(tally.samples, 1)),
        "op_p50_ms": 1000 * statistics.median(walls),
        "setup_s": statistics.median(tally.setups),
        "peak_rss_mb": tally.rss_mb,
    }


def layer_values(trace: dict) -> dict:
    """Per-layer metrics from one merged profile summary.

    A function that was never called, a layer that never ran and a ratio
    over zero give no value: the metric is not exercised.  A name the
    package no longer exports gives none either.
    """
    spans, layers, counts = trace.get("spans", {}), trace.get("layers", {}), trace.get("counts", {})
    out = {}

    def put(name, value):
        if value:
            out[name] = value

    def ratio(a, b):
        return a / b if a and b else None

    put("exact.tangent_s", spans.get("exact.tangent"))
    put("exact.bernoulli_needed", counts.get("exact.bernoulli_needed"))
    put("exact.bernoulli_built", counts.get("exact.bernoulli_built"))
    put("exact.bernoulli_useful", ratio(counts.get("exact.bernoulli_needed"), counts.get("exact.bernoulli_built")))
    put("coeffs.build_table_s", spans.get("coeffs.build_table"))
    put("coeffs.rows_built", counts.get("coeffs.rows_built"))
    put("coeffs.rows_useful", ratio(counts.get("highprec.terms_used"), counts.get("coeffs.rows_built")))
    put("highprec.compute_pi_s", spans.get("highprec.compute_pi"))
    put("highprec.sum_series_s", spans.get("highprec.sum_series"))
    put("highprec.terms_used", counts.get("highprec.terms_used"))
    put("constants.compute_constant_s", spans.get("constants.compute_constant"))
    put("oracle.reference_s", spans.get("oracle.reference"))
    put("oracle.verify_s", spans.get("oracle.verify"))
    if "oracle.matched_margin" in counts:  # 0 is a valid margin
        out["oracle.matched_margin"] = counts["oracle.matched_margin"]
    put("identities.fourier_lhs_s", spans.get("identities.fourier_lhs"))
    put("identities.rhs_eval_s", spans.get("identities.rhs_eval"))
    put("identities.fourier_terms_per_s", ratio(counts.get("identities.fourier_terms"), spans.get("identities.fourier_lhs")))
    for layer in LAYERS:
        put(f"{layer}.self_s", layers.get(layer))
    return out


def median_layers(traces: list[dict]) -> dict:
    """Median over traced passes of every per-layer value."""
    per_pass = [layer_values(t) for t in traces]
    keys = {k for values in per_pass for k in values}
    return {k: statistics.median(v[k] for v in per_pass if k in v) for k in keys}


def per_layer(tally: Tally, warm_setup: bool) -> dict:
    values = median_layers(tally.traced)
    if warm_setup and tally.setup_trace is not None:
        # a warm process does its exact and coeffs work only while warming up
        setup = layer_values(tally.setup_trace)
        values = {k: v for k, v in values.items() if not k.startswith(("exact.", "coeffs."))}
        values.update({k: v for k, v in setup.items() if k.startswith(("exact.", "coeffs."))})
    if tally.overheads:
        values["cli.process_overhead_s"] = statistics.median(tally.overheads)
    if not warm_setup and tally.setups:  # the import checks
        values["cli.startup_s"] = statistics.median(tally.setups)
    if tally.traced_samples and tally.samples:
        values["trace.overhead_s"] = sum(fastest(tally.traced_samples, 0)) - sum(fastest(tally.samples, 0))
    return values


def load_metric_units() -> dict:
    """Units of every per-layer metric, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# --------------------------------------------------------------------------
# environment and entry point


def environment(root: Path, seed: int, workload: str, trace: bool) -> dict:
    """Commit, dirty flag, source digest, Python, CPUs and seed of this run."""
    commit = dirty = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": commit,
        "dirty": dirty,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
    }


def layer_report(workload: str, tally: Tally) -> tuple[dict, list[str]]:
    """Every per-layer metric; those the workload does not exercise are 0 and marked n/a."""
    units = load_metric_units()
    values = per_layer(tally, workload == "warm-verify")
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in units.items()}
    lines = [f"{k} = {values[k]:.6g} {units[k]}" if k in values else f"{k} = n/a"
             for k in units]
    unexpected = [k for k in APPLIES[workload] if k not in values]
    if unexpected:
        lines.append("not measured although the workload exercises it: " + ", ".join(unexpected))
    selfs = sorted(((values[f"{layer}.self_s"], layer) for layer in LAYERS if f"{layer}.self_s" in values), reverse=True)
    lines.append("self time by layer: " + ", ".join(f"{layer} {v:.4g} s" for v, layer in selfs))
    lines.append(f"passes: {tally.passes}, of which traced: {len(tally.traced)}")
    return metrics, lines


def end_to_end_report(tally: Tally) -> tuple[dict, list[str]]:
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(tally).items()}
    lines = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    runs = [len(v) for v in tally.samples.values()]
    lines.append(f"samples: {tally.passes} passes, {sum(runs)} operations "
                 f"({len(runs)} distinct, each run {min(runs)} to {max(runs)} times), "
                 f"{len(tally.setups)} set-ups")
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, checks: dict | None = None) -> tuple[dict, list[str]]:
    """Run one workload from the current directory, the root of a checkout.

    Returns the result object and the report lines that precede it.
    """
    root = Path.cwd().resolve()
    if not (root / "src" / "oddzeta" / "__init__.py").is_file():
        raise SetupError(f"no oddzeta package under {root / 'src'}; run from a checkout root")
    tmp_parent = root / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    ctx = Context(
        root=root, env=child_env(root), tmp=tmp,
        deadline=time.perf_counter() + RUN_DEADLINE_S, rng=random.Random(seed), small=small,
        checks=checks or {"op": op_ok, "verify": check_verify},
    )
    tally = Tally()
    lines = ["env " + json.dumps(environment(root, seed, workload, trace))]
    try:
        WORKLOADS[workload](ctx, seconds, trace, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass
    metrics, report = layer_report(workload, tally) if trace else end_to_end_report(tally)
    attempted, failed = tally.attempted, tally.failed
    lines += report
    lines.append(f"failed_ops = {failed}/{attempted} = {failed / attempted if attempted else 1.0:.4g}")
    lines += [f"failed: {label}" for label in tally.failures]
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
