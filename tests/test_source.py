"""Source-level invariants of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddzeta
from oddzeta.constants import compute_constant

# modules a series `constant` command never uses; importing them would only slow a cold process
UNUSED_BY_CONSTANT = (
    "argparse",
    "dataclasses",
    "decimal",
    "fractions",
    "gettext",
    "inspect",
    "json",
    "locale",
    "oddzeta.oracle",
    "oddzeta.identities",
    "tempfile",
)


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
    # the oracle must not confirm the production coefficients with their own source,
    # nor production pi or series terms with theirs: its pi is its own arctangent series
    source = Path(oddzeta.__file__).parent / "oracle.py"
    imports = [
        node
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.ImportFrom)
    ]
    modules = {node.module for node in imports}
    assert modules.isdisjoint({"exact", "coeffs", "oddzeta.exact", "oddzeta.coeffs"})
    names = {alias.name for node in imports for alias in node.names}
    assert names.isdisjoint({"compute_pi", "_series_terms"})


def test_only_exact_and_coeffs_size_the_tangent_list():
    # the list grows one index at a time as coefficients are read, so a module that
    # asks for an index ahead of its use only duplicates what exact and coeffs know
    package = Path(oddzeta.__file__).parent
    sizing = {"tangent_number", "MAX_TANGENT_INDEX"}
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        if path.stem not in ("exact", "coeffs")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id in sizing)
        or (isinstance(node, ast.Attribute) and node.attr in sizing)
        or (isinstance(node, ast.alias) and node.name in sizing)
    )
    assert found == []


def parameter_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = fn.args
    return {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}


def test_no_function_takes_pi():
    # each series and identity side computes pi at its own scale; a pi threaded
    # through saves microseconds and leaves every callee a scale its caller must match
    package = Path(oddzeta.__file__).parent
    found = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "pi" in parameter_names(node)
    )
    assert found == []


def test_no_lru_cache_in_package():
    # every result is computed once per call or kept in one explicit store;
    # a memo cache would only hide a duplicate pass
    package = Path(oddzeta.__file__).parent
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "lru_cache")
        or (isinstance(node, ast.Attribute) and node.attr == "lru_cache")
        or (isinstance(node, ast.alias) and node.name == "lru_cache")
    )
    assert found == []


# where the name Fraction may appear, by module: functions that take or return one,
# parse an angle, or are oracle references built on their own rational loop.  No module
# imports it at its top ("import"), where every cold start would pay for it, and every
# computation path applies its exact factors with Ball.mul_ratio on integer pairs
# instead.  highprec never names it: the exact bounds of a ball are read in the tests.
FRACTION_PLACES = {
    "coeffs": {"d_coeff", "e_coeff", "f_ratio"},
    "exact": {"bernoulli"},
    "identities": {"canonical_theta_token"},
    "oracle": {"reference_ln2", "reference_pi"},
}


def fraction_places(tree: ast.Module):
    """(place, line) of every use of the name Fraction: place is the enclosing top-level
    function or method, "import" for a module-level import, the name a module-level
    assignment binds, or "module"."""
    for top in tree.body:
        blocks = top.body if isinstance(top, ast.ClassDef) else [top]
        for block in blocks:
            for node in ast.walk(block):
                if (
                    (isinstance(node, ast.Name) and node.id == "Fraction")
                    or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                    or (isinstance(node, ast.alias) and node.name == "Fraction")
                ):
                    if isinstance(block, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield block.name, node.lineno
                    elif isinstance(node, ast.alias):
                        yield "import", node.lineno
                    elif isinstance(block, ast.Assign):
                        yield ast.unparse(block.targets[0]), node.lineno
                    else:
                        yield "module", node.lineno


def test_fraction_only_where_allowed():
    # one way for an exact factor to enter a value: a second ratio path would show here
    package = Path(oddzeta.__file__).parent
    found = sorted(
        f"{path.name}:{line} in {place}"
        for path in package.glob("*.py")
        for place, line in fraction_places(ast.parse(path.read_text()))
        if place not in FRACTION_PLACES.get(path.stem, ())
    )
    assert found == []


def holds_power_of_ten(node: ast.AST, tens: set[str]) -> bool:
    """True where ``node`` holds 10 ** e with e not a constant, or a name in ``tens``,
    outside a ``.bit_length()`` call, which reads a size and not a value."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bit_length":
        return False
    if isinstance(node, ast.Name):
        return node.id in tens
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 10
        and not isinstance(node.right, ast.Constant)
    ):
        return True
    return any(holds_power_of_ten(sub, tens) for sub in ast.iter_child_nodes(node))


def decimal_roundings(path: Path):
    """``module.function`` (``module.Class.method``) of every rounding in ``path`` whose
    dividend holds a power of ten: a floor division, a right shift, or a call of
    _divround, _ceil_div or divmod, where the dividend holds 10 ** e or a name that
    function binds to an expression holding one.  That is how a value in some other unit
    becomes a decimal mantissa."""
    tree = ast.parse(path.read_text())
    for top in tree.body:
        inner = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in inner:
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = f"{top.name}.{fn.name}" if fn is not top else fn.name
            pairs = [
                pair
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign)
                for target in node.targets
                for pair in (
                    zip(target.elts, node.value.elts)
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    else [(target, node.value)]
                )
            ]
            tens = {t.id for t, v in pairs if isinstance(t, ast.Name) and holds_power_of_ten(v, set())}
            for node in ast.walk(fn):
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.RShift)):
                    dividend = node.left
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("_divround", "_ceil_div", "divmod")
                ):
                    dividend = node.args[0]
                else:
                    continue
                if holds_power_of_ten(dividend, tens):
                    yield f"{path.stem}.{name}"


def test_decimal_digits_are_made_in_one_place():
    # every layer computes on binary balls; a second place that turns a value into a
    # decimal mantissa would round twice, and the printed digit would no longer be the
    # one the ball's midpoint rounds to
    package = Path(oddzeta.__file__).parent
    found = {site for path in package.glob("*.py") for site in decimal_roundings(path)}
    assert found == {"highprec.Ball.rounded"}


def test_the_decimal_rounding_check_sees_a_second_site():
    source = (
        "def f(x, scale, bits):\n"
        "    one = 10**scale\n"
        "    return _divround(x * one, 1 << bits)\n"
        "def g(x, scale, bits):\n"
        "    bits = (10**scale).bit_length()\n"
        "    return (x << bits) // 10**scale\n"
    )
    path = Path(sys.prefix) / "not_a_file.py"  # only read through the patched read_text
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Path, "read_text", lambda self: source)
        assert list(decimal_roundings(path)) == ["not_a_file.f"]


def run_fresh(script: str) -> list[str]:
    """stdout lines of ``script`` run in a new interpreter that imports this package.

    The interpreter runs without ``site`` (``-S``), which may itself import modules
    such as ``tempfile``, and without a cache directory, so a module loaded only by
    the package shows.
    """
    src = str(Path(oddzeta.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("ODDZETA_CACHE_DIR", None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "name",
    ["catalan", "apery", "alt_harmonic", "beta_even(2)", "eta_odd(1)", "zeta_odd(2)", "zeta_even(3)"],
)
def test_constant_command_imports_only_what_it_uses(name):
    lines = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import oddzeta.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
        f"oddzeta.cli.run(['constant', {name!r}, '--digits', '10'])\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    after_import, value, after_run = lines
    assert value == compute_constant(name, 10).value.to_decimal()
    for loaded in (after_import, after_run):
        assert set(ast.literal_eval(loaded)).isdisjoint(UNUSED_BY_CONSTANT)


def test_verify_command_loads_no_fraction_module():
    # the oracle's sums run on integer pairs; only two references it never calls build a Fraction
    lines = run_fresh(
        "import sys\n"
        "import oddzeta.cli\n"
        "code = oddzeta.cli.run(['verify', '--digits', '10'])\n"
        "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    assert lines[-1] == "0 []"
    assert lines[-2] == "result: ok (required 10 digits)"


@pytest.mark.parametrize("fmt", ["csv", "plain"])
def test_coeffs_command_loads_no_fraction_module(fmt):
    # the cells are printed from the integer store, each reduced by one gcd
    lines = run_fresh(
        "import sys\n"
        "import oddzeta.cli\n"
        f"code = oddzeta.cli.run(['coeffs', '--k', '2', '--n', '3', '--format', {fmt!r}])\n"
        "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    assert lines[-1] == "0 []"
    assert lines[-2] in ("2,3,13,20160", "k=2 n=3 E=13/20160")


@pytest.mark.parametrize("theta", ["1/2", "0.5", "2", "1e0", "pi/3"])
def test_identity_command_loads_no_fraction_module_or_argparse(theta):
    # the command line reads argv from its own table and the angle in integers
    lines = run_fresh(
        "import sys\n"
        "import oddzeta.cli\n"
        f"code = oddzeta.cli.run(['identity', '--id', 'S1', '--k', '1', '--theta', {theta!r},"
        " '--terms', '1000'])\n"
        "print(code, sorted({'fractions', 'decimal', 'argparse'} & set(sys.modules)))\n"
    )
    assert lines[-1] == "0 []"
    assert lines[-2].startswith("identity=S1 k=1 theta=")


# stdlib modules that cost a cold -S start about 10 ms together and that nothing in the
# package needs: the records are collections.namedtuple classes, and argv and constant
# names are read with str methods
NOT_IMPORTED = ("enum", "re", "typing")


@pytest.mark.parametrize(
    "argv",
    [
        ["constant", "catalan", "--digits", "10"],
        ["constant", "zeta_even(3)", "--digits", "10", "--format", "csv"],
        ["verify", "--digits", "10"],
        ["coeffs", "--k", "2", "--n", "3"],
        ["coeffs", "--k", "2", "--n", "3", "--format", "plain"],
        ["ratio", "--k", "2", "--n", "3"],
        ["identity", "--id", "S2", "--k", "2", "--theta", "1/2", "--terms", "1000"],
        ["identity", "--id", "S1", "--k", "1", "--theta", "pi/3", "--terms", "1000"],
    ],
    ids=" ".join,
)
def test_command_loads_no_re_typing_or_enum(argv):
    lines = run_fresh(
        "import io, sys\n"
        "import oddzeta.cli\n"
        f"print(sorted(set({NOT_IMPORTED!r}) & set(sys.modules)))\n"
        f"code = oddzeta.cli.run({argv!r}, out=io.StringIO())\n"
        f"print(code, sorted(set({NOT_IMPORTED!r}) & set(sys.modules)))\n"
    )
    assert lines == ["[]", "0 []"]


RECORDS = {
    "highprec.Ball": (("mid", "rad", "bits", "scale"), {}),
    "constants.ConstantValue": (
        ("name", "value", "method", "k", "terms_used"), {"k": None, "terms_used": None}
    ),
    "oracle.VerificationReport": (
        ("name", "computed", "reference", "matched_digits", "terms_used", "elapsed"), {}
    ),
    "identities.IdentityResidual": (
        ("identity", "k", "theta_token", "fourier_terms", "series_terms", "residual"), {}
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_slotted_named_tuples(name):
    # each record keeps a named tuple's fields, defaults, repr and _replace, and has no
    # per-instance __dict__
    module, _, cls_name = name.partition(".")
    cls = getattr(getattr(oddzeta, module), cls_name)
    fields, defaults = RECORDS[name]
    assert (cls.__name__, cls._fields, cls._field_defaults) == (cls_name, fields, defaults)
    record = cls(*range(len(fields)))
    assert not hasattr(record, "__dict__")
    assert repr(record) == f"{cls_name}({', '.join(f'{f}={i}' for i, f in enumerate(fields))})"
    changed = record._replace(**{fields[0]: -1})
    assert type(changed) is cls and changed == (-1, *range(1, len(fields)))


def test_only_cli_main_ends_the_process():
    # os._exit skips every finally block and buffer flush of the host process, so no
    # library call may reach it: only the command line's main, after its own flushes
    package = Path(oddzeta.__file__).parent
    found = sorted(
        f"{path.name} {top.name if isinstance(top, ast.FunctionDef) else 'module'}"
        for path in package.glob("*.py")
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "_exit")
        or (isinstance(node, ast.Name) and node.id == "_exit")
        or (isinstance(node, ast.alias) and node.name == "_exit")
    )
    assert found == ["cli.py main"]


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


# one call per exported function that takes ``digits``, with that argument left open
DIGITS_TAKERS = {
    "constants.alt_harmonic": lambda d: oddzeta.constants.alt_harmonic(d),
    "constants.apery": lambda d: oddzeta.constants.apery(d),
    "constants.beta_even": lambda d: oddzeta.constants.beta_even(1, d),
    "constants.catalan": lambda d: oddzeta.constants.catalan(d),
    "constants.compute_constant": lambda d: oddzeta.constants.compute_constant("apery", d),
    "constants.eta_odd": lambda d: oddzeta.constants.eta_odd(1, d),
    "constants.zeta_even_closed": lambda d: oddzeta.constants.zeta_even_closed(1, d),
    "constants.zeta_odd": lambda d: oddzeta.constants.zeta_odd(1, d),
    "highprec.compute_pi": lambda d: oddzeta.highprec.compute_pi(d),
    "highprec.estimate_terms": lambda d: oddzeta.highprec.estimate_terms(d, 1),
    "highprec.sum_series": lambda d: oddzeta.highprec.sum_series(1, d),
    "highprec.term_ratio_sequence": lambda d: oddzeta.highprec.term_ratio_sequence(1, 3, d),
    "identities.check_identity": lambda d: oddzeta.identities.check_identity(
        "S1", 1, "1", 100, 20, d
    ),
    "identities.fourier_lhs": lambda d: oddzeta.identities.fourier_lhs("S2", 1, "pi/2", 100, d),
    "identities.residual_sweep": lambda d: oddzeta.identities.residual_sweep(
        [1], ["1"], lambda k: 100, 20, d
    ),
    "identities.rhs_eval": lambda d: oddzeta.identities.rhs_eval("S1", 1, "1", 20, d),
    "identities.tan_half_residual": lambda d: oddzeta.identities.tan_half_residual("1", 100, d),
    "oracle.accelerated_alternating": lambda d: oddzeta.oracle.accelerated_alternating(1, 3, 10, d),
    "oracle.reference_beta": lambda d: oddzeta.oracle.reference_beta(2, d),
    "oracle.reference_eta": lambda d: oddzeta.oracle.reference_eta(3, d),
    "oracle.reference_for": lambda d: oddzeta.oracle.reference_for("catalan", d),
    "oracle.reference_ln2": lambda d: oddzeta.oracle.reference_ln2(d),
    "oracle.reference_pi": lambda d: oddzeta.oracle.reference_pi(d),
    "oracle.reference_zeta_even": lambda d: oddzeta.oracle.reference_zeta_even(1, d),
    "oracle.reference_zeta_odd": lambda d: oddzeta.oracle.reference_zeta_odd(1, d),
    "oracle.verify": lambda d: oddzeta.oracle.verify("apery", d),
}


def test_every_exported_digits_taker_has_a_case():
    import inspect

    found = set()
    for module in ("cli", "coeffs", "constants", "exact", "highprec", "identities", "oracle"):
        namespace = getattr(oddzeta, module)
        for name in namespace.__all__:
            obj = getattr(namespace, name)
            if inspect.isfunction(obj) and "digits" in inspect.signature(obj).parameters:
                found.add(f"{module}.{name}")
    assert found == set(DIGITS_TAKERS)


@pytest.mark.parametrize("digits", [0, -1])
@pytest.mark.parametrize("name", sorted(DIGITS_TAKERS))
def test_exported_digits_takers_refuse_digits_below_one(name, digits):
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        DIGITS_TAKERS[name](digits)
