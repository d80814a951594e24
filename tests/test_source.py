"""Source-level invariants of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddzeta

# modules a `constant` command never uses; importing them would only slow a cold process
UNUSED_BY_CONSTANT = ("dataclasses", "inspect", "json", "oddzeta.oracle", "oddzeta.identities")


def test_no_assert_in_package():
    # python -O strips assert statements, so no invariant may rest on one
    package = Path(oddzeta.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_shares_no_generation_code():
    # the oracle must not confirm the production coefficients with their own source
    source = Path(oddzeta.__file__).parent / "oracle.py"
    modules = {
        node.module
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.ImportFrom)
    }
    assert modules.isdisjoint({"exact", "coeffs", "oddzeta.exact", "oddzeta.coeffs"})


def run_fresh(script: str) -> list[str]:
    """stdout lines of ``script`` run in a new interpreter that imports this package."""
    src = str(Path(oddzeta.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_constant_command_imports_only_what_it_uses():
    lines = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import oddzeta.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
        "oddzeta.cli.run(['constant', 'catalan', '--digits', '10'])\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    after_import, value, after_run = lines
    assert value == "0.9159655942"
    for loaded in (after_import, after_run):
        assert set(ast.literal_eval(loaded)).isdisjoint(UNUSED_BY_CONSTANT)


def test_every_export_resolves_on_first_use():
    lines = run_fresh(
        "import sys\n"
        "import oddzeta\n"
        "print(sorted(m for m in sys.modules if m.startswith('oddzeta')))\n"
        "print(oddzeta.oracle.__name__, oddzeta.identities.__name__)\n"
        "namespace = {}\n"
        "exec('from oddzeta import *', namespace)\n"
        "print([n for n in oddzeta.__all__ if namespace.get(n) is not getattr(oddzeta, n)])\n"
    )
    assert lines == ["['oddzeta']", "oddzeta.oracle oddzeta.identities", "[]"]
    with pytest.raises(AttributeError):
        getattr(oddzeta, "no_such_name")
