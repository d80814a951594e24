"""Smoke tests of the scripts under scripts/, each run as a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    """stdout lines of ``scripts/<name>`` run with the package on PYTHONPATH; exit 0 asserted."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_convergence_sweep_runs():
    lines = run_script("convergence_sweep.py", "--k-max", "2", "--n-max", "5")
    assert lines[0] == "# normalized coefficients F_n(k) = E_n(k)/D_n(1)"
    assert lines[1].split() == ["k", "n=1", "n=2", "n=5", "K(k)", "estimate"]
    assert lines[5] == "# term ratio |E_(n+1)(k)/E_n(k)| (pi/2)^2  (limit ~ 1/4)"
    assert [line.split()[0] for line in lines[7:]] == ["1", "2"]


def test_residual_sweep_runs():
    # reaches the Fourier pass and tan_half_residual through the package's public names
    lines = run_script("residual_sweep.py", "--fast")
    assert lines[0] == "identity,k,theta,fourier_terms,residual"
    assert len(lines) == 1 + 2 * 3 * 5  # two identities, k = 1..3, five angles
    assert lines[1].startswith("S1,1,1/2,100000,")
