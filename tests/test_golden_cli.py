"""Golden CLI output: stdout bytes and exit codes pinned for a fixed command set.

The expected values live in ``golden_cli.json``.  They are a record of what
the tool printed before the exact-coefficient core was rewritten, so a
refactor that changes a single output byte fails here.  Running the file

    PYTHONPATH=src python tests/test_golden_cli.py

adds a command newly listed in COMMANDS.  It writes nothing, and exits 1, if
the output of any entry already recorded has changed: an intended output
change edits that entry by hand.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddzeta.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

_CONSTANTS = [
    "catalan",
    "apery",
    "alt_harmonic",
    "beta_even(1)",
    "beta_even(2)",
    "eta_odd(1)",
    "eta_odd(2)",
    "zeta_odd(1)",
    "zeta_odd(2)",
    "zeta_odd(3)",
    "zeta_even(1)",
    "zeta_even(2)",
    "zeta_even(3)",
]

COMMANDS = [
    *(["constant", name, "--digits", "30"] for name in _CONSTANTS),
    ["constant", "apery", "--digits", "100"],
    ["constant", "catalan", "--digits", "40", "--format", "csv"],
    ["constant", "zeta_odd(2)", "--digits", "40", "--format", "json"],
    ["coeffs", "--k", "5", "--n", "12", "--format", "csv"],
    ["coeffs", "--k", "5", "--n", "12", "--format", "json"],
    ["coeffs", "--k", "5", "--n", "12", "--format", "plain"],
    ["verify", "--digits", "30"],
    ["verify", "--digits", "30", "--format", "csv"],
    # pin terms_used, computed= and reference= for the battery past 30 digits
    ["verify", "--digits", "100"],
    ["verify", "--digits", "300"],
    ["ratio", "--k", "2", "--n", "20"],
    ["ratio", "--k", "2", "--n", "20", "--format", "csv"],
    ["ratio", "--k", "2", "--n", "20", "--format", "json"],
    ["identity", "--id", "S1", "--k", "1", "--theta", "pi/2", "--terms", "2000"],
    ["identity", "--id", "S2", "--k", "1", "--theta", "1", "--terms", "2000"],
    # the benchmark's longest generic-angle runs
    ["identity", "--id", "S1", "--k", "1", "--theta", "1", "--terms", "100000"],
    ["identity", "--id", "S2", "--k", "1", "--theta", "2", "--terms", "100000"],
    # theta = 3 sits near pi, where 400 ladder terms keep the ladder tail below
    # the Fourier truncation, so the printed residual reads the Fourier pass
    *(
        ["identity", "--id", identity, "--k", str(k), "--theta", theta, "--terms", "10000",
         *(["--series-terms", "400"] if theta == "3" else [])]
        for identity in ("S1", "S2")
        for k in (1, 2, 3)
        for theta in ("1/2", "2", "3", "pi/3")
    ),
    ["identity", "--id", "S2", "--k", "2", "--theta", "1/2", "--terms", "10000", "--format", "csv"],
    ["identity", "--id", "S1", "--k", "3", "--theta", "2", "--terms", "10000", "--format", "json"],
    ["constant", "bogus"],
    ["constant", "catalan", "--digits", "2000"],
    # argv forms the parser accepts: =, a unique prefix, options before the positional,
    # the last repeat winning, -- before the positional and int()'s underscores
    ["constant", "catalan", "--digits=12"],
    ["constant", "catalan", "--dig", "12"],
    ["constant", "--digits", "12", "catalan"],
    ["constant", "catalan", "--digits", "12", "--digits", "13"],
    ["constant", "--", "catalan"],
    ["constant", "catalan", "--digits", "1_2"],
    ["identity", "--id", "S1", "--k", "1", "--theta=pi/2", "--terms=2000"],
    # argv forms it refuses with exit 2, each before any work
    [],
    ["nope"],
    ["constant"],
    ["constant", "catalan", "extra"],
    ["constant", "catalan", "--digits", "x"],
    ["constant", "catalan", "--digits"],
    ["constant", "catalan", "--format", "xml"],
    ["identity", "--id", "S3", "--k", "1", "--theta", "1"],
    ["constant", "catalan", "--bogus", "1"],
    ["identity", "--id", "S1", "--k", "1", "--t", "1"],
    # an empty name is an unknown constant, not the whole battery
    ["verify", "--name=", "--digits", "5"],
    # a trailing newline, or a digit outside ASCII (Arabic-Indic three), is no identifier
    ["constant", "zeta_odd(2)\n", "--digits", "5"],
    ["constant", "zeta_odd(\u0663)", "--digits", "5"],
    # a negative count parses, and the digit range refuses it with exit 3
    ["constant", "catalan", "--digits", "-5"],
    # the top column past the tangent ceiling refuses with exit 3 before any column is built
    ["coeffs", "--k", "121", "--n", "5001"],
    ["coeffs", "--k", "121", "--n", "16529"],
]


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out, err=io.StringIO())
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def _golden() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_output(argv):
    expected = _golden()[" ".join(argv)]
    assert invoke(argv) == expected


# a battery, the longest constant and a generic-angle identity, each run
# through `python -O -m oddzeta.cli`, which drops assert statements
OPTIMIZED_COMMANDS = [
    ["verify", "--digits", "30"],
    ["constant", "apery", "--digits", "100"],
    ["identity", "--id", "S2", "--k", "1", "--theta", "1", "--terms", "2000"],
]


@pytest.mark.parametrize("argv", OPTIMIZED_COMMANDS, ids=" ".join)
def test_golden_output_under_python_O(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("ODDZETA_CACHE_DIR", None)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "oddzeta.cli", *argv], env=env, capture_output=True, timeout=120
    )
    expected = _golden()[" ".join(argv)]
    assert (done.returncode, done.stdout.decode()) == (expected["code"], expected["stdout"])


def _regenerate() -> int:
    """Append the missing commands to the golden file; refuse if a recorded entry moved."""
    cases = json.loads(GOLDEN.read_text())
    recorded = {" ".join(case["argv"]): case for case in cases}
    changed = []
    for argv in COMMANDS:
        case, key = invoke(argv), " ".join(argv)
        if key not in recorded:
            cases.append(case)
        elif case != recorded[key]:
            changed.append(key)
    if changed:
        print("golden output changed, nothing written:", *changed, sep="\n  ", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(_regenerate())
