"""Source-level invariants of the package."""

import ast
from pathlib import Path

import oddzeta


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
