"""In-process half of the benchmark: warm loops and profiled operations.

``run.py`` starts this file in a fresh interpreter for every job, with
``PYTHONPATH`` pointing at the checkout's ``src``.  The job is one JSON
object in ``argv[1]``; the answer is JSON lines on stdout, the last of which
holds the result.  Only names the package exports (``oddzeta.__all__`` and
each module's ``__all__``) are used, so that an internal rewrite shows up as
a missing metric instead of a crash.

Jobs:

* ``references``  oracle references for a list of (constant, digits)
* ``cli``         run ``oddzeta.cli.run`` once and report its in-process time
* ``trace``       run ``oddzeta.cli.run`` once under cProfile
* ``warm``        the warm-verify loop, optionally profiled

A profile is summarised per layer (a module of the package): its self time
is the time spent in the layer's own functions plus the time of the
non-package code they call directly (``fractions``, ``math``, ``argparse``
...), so the layers' self times add up to the profiled call.  A few named
exports also get their inclusive time, and hooks on three exported classes
count what a profile cannot see (Bernoulli numbers needed and built, table
rows, series terms).
"""

from __future__ import annotations

import cProfile
import inspect
import io
import json
import os
import random
import sys
import time
import traceback

import oddzeta
import oddzeta.cli

PACKAGE_DIR = os.path.dirname(os.path.abspath(oddzeta.__file__))

# span name -> exported function whose inclusive time (cProfile cumtime) it is
SPANS = {
    "exact.tangent": "tangent_coeff",
    "coeffs.build_table": "build_table",
    "highprec.compute_pi": "compute_pi",
    "highprec.sum_series": "sum_series",
    "constants.compute_constant": "compute_constant",
    "oracle.reference": "oracle.reference_for",
    "oracle.verify": "verify",
    "identities.fourier_lhs": "fourier_lhs",
    "identities.rhs_eval": "rhs_eval",
}


def export(path: str):
    """``oddzeta.<path>`` if the package exports it, else None."""
    module = oddzeta
    *parents, name = path.split(".")
    for part in parents:
        module = getattr(module, part, None)
    if module is None or name not in getattr(module, "__all__", ()):
        return None
    return getattr(module, name, None)


def code_key(fn) -> tuple:
    """The key cProfile files a Python function under."""
    code = inspect.unwrap(fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


_layers: dict[str, str | None] = {}


def layer_of(filename: str) -> str | None:
    """The package module a source file is, or None for code outside the package."""
    if filename not in _layers:
        path = os.path.abspath(filename)
        inside = os.path.dirname(path) == PACKAGE_DIR
        _layers[filename] = os.path.splitext(os.path.basename(path))[0] if inside else None
    return _layers[filename]


class Counts:
    """Counts taken by hooks on exported classes, for one process or pass.

    Bernoulli counts are high-water marks (a process shares one table);
    rows and terms are summed.
    """

    hook_key: tuple | None = None

    def __init__(self):
        self.values: dict[str, int] = {}

    def install(self) -> None:
        self.hook("BernoulliTable", "get", self.bernoulli)
        self.hook("CoefficientTable", "__init__", self.table)
        self.hook("SeriesResult", "__init__", self.series)

    def hook(self, cls_name: str, method: str, after) -> None:
        """Call ``after(obj, *args)`` after every ``obj.method(*args)``; skip if absent."""
        cls = export(cls_name)
        original = getattr(cls, method, None) if cls is not None else None
        if original is None:
            return

        def hooked(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            try:
                after(obj, *args, **kwargs)
            except (AttributeError, TypeError):  # a rewrite dropped what the count reads
                pass
            return result

        Counts.hook_key = code_key(hooked)
        setattr(cls, method, hooked)

    def high(self, name: str, value: int) -> None:
        self.values[name] = max(self.values.get(name, 0), value)

    def add(self, name: str, value: int) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def bernoulli(self, table, m: int) -> None:
        self.high("exact.bernoulli_needed", m + 1)
        self.high("exact.bernoulli_built", len(table))

    def table(self, table, *args, **kwargs) -> None:
        self.add("coeffs.rows_built", table.n_max)

    def series(self, result, *args, **kwargs) -> None:
        self.add("highprec.terms_used", result.terms_used)


def layer_times(stats: dict) -> dict:
    """Self time per layer from cProfile stats.

    A package function adds its own time (tottime) to its layer, and the
    inclusive time of each call it makes into code outside the package.
    Package code called back from such a call (``sum`` over a package
    generator) is taken out of the caller's share again, so nothing counts
    twice.  The counting hooks are transparent: what they call is counted
    where it lands, their own time nowhere.
    """
    own: dict[str, float] = {}
    charged: dict[tuple, dict[str, float]] = {}  # outside function -> layer -> time charged
    for key, (_, _, tottime, _, callers) in stats.items():
        layer = layer_of(key[0])
        if layer is not None:
            own[layer] = own.get(layer, 0.0) + tottime
        elif key != Counts.hook_key:
            for caller, (_, _, _, cumtime) in callers.items():
                caller_layer = layer_of(caller[0])
                if caller_layer is not None:
                    own[caller_layer] = own.get(caller_layer, 0.0) + cumtime
                    shares = charged.setdefault(key, {})
                    shares[caller_layer] = shares.get(caller_layer, 0.0) + cumtime
    for key, (_, _, _, _, callers) in stats.items():
        if layer_of(key[0]) is None:
            continue
        for caller, (_, _, _, cumtime) in callers.items():
            shares = charged.get(caller, {})
            total = sum(shares.values())
            for layer, share in shares.items():
                own[layer] -= cumtime * share / total
    return own


def summarize(profile: cProfile.Profile, counts: Counts) -> dict:
    """Spans, layer self times and counts of one profile."""
    profile.create_stats()
    spans = {}
    for span, path in SPANS.items():
        fn = export(path)
        if fn is not None:
            entry = profile.stats.get(code_key(fn))
            spans[span] = entry[3] if entry else 0.0
    return {"spans": spans, "layers": layer_times(profile.stats), "counts": dict(counts.values)}


def run_cli(argv: list[str], profile: cProfile.Profile | None = None) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        code = oddzeta.cli.run(argv, out=out, err=err)
    finally:
        if profile is not None:
            profile.disable()
    return code, out.getvalue(), time.perf_counter() - t0


def job_references(job: dict) -> dict:
    reference_for = export("oracle.reference_for")
    refs = {f"{name}@{digits}": reference_for(name, digits).to_decimal()
            for name, digits in job["constants"]}
    return {"package": PACKAGE_DIR, "refs": refs}


def job_cli(job: dict) -> dict:
    code, out, seconds = run_cli(job["argv"])
    return {"code": code, "out": out, "run_s": seconds}


def job_trace(job: dict) -> dict:
    counts = Counts()
    counts.install()
    profile = cProfile.Profile()
    code, out, _ = run_cli(job["argv"], profile)
    return {"code": code, "out": out, **summarize(profile, counts)}


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def job_warm(job: dict) -> dict:
    """Warm-up pass, then timed passes of verify() over (name, digits) pairs.

    Every call is reported as [op index, matched digits, wall, cpu, traced].
    With ``trace`` the warm-up is profiled, and timed passes alternate
    between plain and profiled, so that the difference of their times is the
    tracing overhead.
    """
    battery = export("oracle.default_battery")()
    ops = [(name, d) for d in job["levels"] for name in battery]
    trace = job["trace"]
    counts = Counts()
    if trace:
        counts.install()
    setup = cProfile.Profile()
    if trace:
        setup.enable()
    for name, d in ops:
        oddzeta.verify(name, d)
    setup.disable()
    setup_summary = summarize(setup, counts) if trace else None
    emit({"ready": True})
    if job["setup_only"]:
        return {}
    rng = random.Random(job["seed"])
    traces = []
    calls = []
    t0 = time.perf_counter()
    passes = 0
    while passes < (2 if trace else 1) or time.perf_counter() - t0 < job["seconds"]:
        traced = trace and passes % 2 == 1
        profile = cProfile.Profile()
        counts.values = {}
        for i in rng.sample(range(len(ops)), len(ops)):
            name, d = ops[i]
            c, s = time.process_time(), time.perf_counter()
            if traced:
                profile.enable()
            try:
                matched = oddzeta.verify(name, d).matched_digits
            except Exception:  # a failed call is counted, the loop goes on
                traceback.print_exc()
                matched = -1
            finally:
                profile.disable()
            calls.append([i, matched, time.perf_counter() - s, time.process_time() - c, traced])
            if traced:
                margin = counts.values.get("oracle.matched_margin", matched - d)
                counts.values["oracle.matched_margin"] = min(margin, matched - d)
        if traced:
            traces.append(summarize(profile, counts))
        passes += 1
    return {"ops": ops, "calls": calls, "passes": passes, "traces": traces, "setup": setup_summary}


JOBS = {"references": job_references, "cli": job_cli, "trace": job_trace, "warm": job_warm}

if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    emit(JOBS[request["job"]](request))
