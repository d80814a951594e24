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


def test_code_lines_counts_code_only(tmp_path):
    # docstrings, comments and blank lines are not counted; a string that is part of a
    # statement is, on every line it spans
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\nx = 1  # trailing\ny = """not\na docstring"""\n'
    )
    (tmp_path / "b.py").write_text("def f():\n    'docstring'\n\n    return (1,\n            2)\n")
    assert run_script("code_lines.py", str(tmp_path)) == ["    3 a.py", "    3 b.py", "    6 total"]
    lines = run_script("code_lines.py")  # the package by default
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total") and counts[-1] == sum(counts[:-1]) > 1000
    assert [line.split()[1] for line in lines[:-1]] == sorted(
        path.name for path in (ROOT / "src" / "oddzeta").glob("*.py")
    )
