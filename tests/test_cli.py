"""Command-line behavior: formats, determinism, exit codes."""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exact_reference import tan_number
import oddzeta
from oddzeta import cli
from oddzeta.cli import (
    COMMANDS,
    DIGITS_CEILING,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    run,
)
from oddzeta.coeffs import MAX_COLUMN_INDEX, MAX_TABLE_CELLS
from oddzeta.exact import MAX_TANGENT_INDEX
from oddzeta.identities import MAX_FOURIER_TERMS, MAX_THETA_DIGITS


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_constant_plain_thirty_digits():
    code, out, _ = invoke(["constant", "catalan", "--digits", "30"])
    assert code == EXIT_OK
    assert out == "0.915965594177219015054603514932\n"


def test_constant_json_schema():
    code, out, _ = invoke(["constant", "apery", "--digits", "12", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["name"] == "apery"
    assert doc["value"] == "1.202056903160"
    assert doc["terms_used"] > 0


def test_coeffs_csv_single_cell():
    code, out, _ = invoke(["coeffs", "--k", "1", "--n", "1", "--format", "csv"])
    assert code == EXIT_OK
    assert out == "k,n,numerator,denominator\n1,1,1,4\n"


def test_coeffs_json():
    code, out, _ = invoke(["coeffs", "--k", "2", "--n", "1", "--format", "json"])
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["entries"] == [
        {"k": 1, "n": 1, "value": "1/4"},
        {"k": 2, "n": 1, "value": "5/24"},
    ]


def test_coeffs_plain():
    code, out, _ = invoke(["coeffs", "--k", "2", "--n", "1", "--format", "plain"])
    assert code == EXIT_OK
    assert out.splitlines() == ["k=1 n=1 E=1/4", "k=2 n=1 E=5/24"]


def test_verify_smoke_battery():
    code, out, _ = invoke(["verify", "--digits", "5"])
    assert code == EXIT_OK
    assert "result: ok" in out
    lines = [line for line in out.splitlines() if ":" in line and "result" not in line]
    names = [line.split(":")[0] for line in lines]
    assert names == sorted(names)


def test_verify_single_name_json():
    code, out, _ = invoke(["verify", "--name", "catalan", "--digits", "10", "--format", "json"])
    assert code == EXIT_OK
    assert re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out) == (
        '{"schema":1,"command":"verify","digits":10,"all_passed":true,"reports":[{'
        '"name":"catalan","computed":"0.915965594177","reference":"0.915965594177",'
        '"matched_digits":11,"terms_used":32,"elapsed_ms":0}]}\n'
    )


def test_verify_exit_code_on_failure(monkeypatch):
    from oddzeta import oracle
    from oddzeta.oracle import VerificationReport

    fake = VerificationReport("catalan", "0.9", "0.8", 0, 5, 0.0)
    monkeypatch.setattr(oracle, "verify", lambda name, digits: fake)
    code, _, _ = invoke(["verify", "--name", "catalan", "--digits", "10"])
    assert code == EXIT_VERIFY_FAILED


def test_identity_choices_are_the_identity_tags():
    from oddzeta import cli, identities

    assert cli.IDENTITY_CHOICES == identities.IDENTITY_TAGS


def test_ratio_csv():
    code, out, _ = invoke(["ratio", "--k", "1", "--n", "3", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,ratio"
    assert lines[1].startswith("1,0.1028")
    assert len(lines) == 4


def test_identity_plain_and_csv():
    argv = ["identity", "--id", "S2", "--k", "1", "--theta", "pi/2", "--terms", "2000", "--digits", "15"]
    code, out, _ = invoke(argv)
    assert code == EXIT_OK
    assert out.startswith("identity=S2 k=1 theta=pi/2 fourier_terms=2000")
    code, out, _ = invoke(argv + ["--format", "csv"])
    assert out.splitlines()[0] == "identity,k,theta,fourier_terms,residual"


def test_unknown_constant_usage_error():
    code, _, err = invoke(["constant", "bogus"])
    assert code == EXIT_USAGE
    assert "valid identifiers" in err
    assert "catalan" in err


def test_verify_empty_name_is_an_unknown_constant():
    # an empty --name names no constant; it must not fall back to the whole battery
    code, out, err = invoke(["verify", "--name=", "--digits", "5"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "unknown constant ''" in err


def test_bad_theta_usage_error():
    for theta in ("9", "pi/3.0", "pi/"):
        code, out, err = invoke(["identity", "--id", "S1", "--k", "1", "--theta", theta])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: theta={theta}")
    assert "needs an integer q >= 2" in err


@pytest.mark.parametrize("theta", ["1/0", "2/0", "1/00"])
def test_zero_denominator_theta_usage_error(theta):
    argv = ["identity", "--id", "S1", "--k", "1", "--theta", theta, "--terms", "10"]
    code, out, err = invoke(argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: theta={theta} is not a finite number\n"


def test_k_past_the_tangent_ceiling_exits_before_the_lower_eta_sums():
    # the ladder's eta sums run from the top r down, so the one past the ceiling fails
    # before the thousands of lower columns, or the D sum's (2k + 1)!, are built
    argv = ["identity", "--id", "S1", "--k", "100000", "--theta", "1", "--terms", "10"]
    start = time.perf_counter()
    code, out, err = invoke([*argv, "--digits", "5"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "exceeds configured maximum" in err


def test_theta_too_close_to_pi_for_the_ladder_tail_usage_error():
    # 3.1415 is below pi, but (theta/pi)^2 is too near 1 to bound the ladder's tail
    argv = ["identity", "--id", "S1", "--k", "1", "--theta", "3.1415", "--terms", "100"]
    code, out, err = invoke(argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "too close to pi for a usable ladder tail bound" in err


def test_theta_too_close_to_pi_is_refused_before_the_ladder_reads_its_column():
    # reading column 1 to 5000 rows would first generate tangent numbers to 5000
    argv = ["identity", "--id", "S1", "--k", "1", "--theta", "314159264/100000000"]
    start = time.perf_counter()
    code, out, err = invoke([*argv, "--terms", "10", "--series-terms", "5000", "--digits", "1000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_USAGE, "")
    assert "too close to pi for a usable ladder tail bound" in err


@pytest.mark.parametrize("theta", ["1e-30000000", "1e-5000"])
def test_huge_theta_exponent_is_rejected_at_once(theta):
    start = time.perf_counter()
    code, _, err = invoke(["identity", "--id", "S1", "--k", "1", "--theta", theta, "--terms", "100"])
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE
    assert "theta has more than 4000 digits" in err


def test_theta_within_one_ulp_of_zero_is_refused():
    # 1e-400 passes the digit limit but rounds to 0 at the working scale, where both
    # sides would vanish and agree; more digits resolve it, as 30 digits resolve 1e-20
    argv = ["identity", "--id", "S1", "--k", "1", "--terms", "100", "--theta"]
    code, _, err = invoke([*argv, "1e-400"])
    assert code == EXIT_USAGE
    assert "raise --digits" in err
    code, out, _ = invoke([*argv, "1e-400", "--digits", "400"])
    assert code == EXIT_OK
    assert out.startswith("identity=S1 k=1 theta=1/1" + "0" * 400 + " ")
    code, out, _ = invoke([*argv, "1e-20"])
    assert code == EXIT_OK
    assert out.startswith("identity=S1 k=1 theta=1/1" + "0" * 20 + " ")


@pytest.mark.parametrize("digits", ["0", "2000"])
def test_digit_ceiling_resource_error(digits):
    code, _, err = invoke(["constant", "catalan", "--digits", digits])
    assert code == EXIT_RESOURCE
    assert "digits" in err


def test_missing_subcommand_usage():
    code, _, _ = invoke([])
    assert code == EXIT_USAGE


# argv -> the phrase its usage error names
USAGE_ERRORS = {
    (): "a command is required",
    ("nope",): "unknown command 'nope'",
    ("constant",): "missing <name>",
    ("constant", "catalan", "extra"): "unrecognized arguments: extra",
    ("constant", "catalan", "--digits", "x"): "--digits expects an integer, got 'x'",
    ("constant", "catalan", "--digits"): "--digits expects a value",
    ("constant", "catalan", "--format", "xml"): "--format must be one of plain, csv, json",
    ("identity", "--id", "S3", "--k", "1", "--theta", "1"): "--id must be one of S1, S2, got 'S3'",
    ("constant", "catalan", "--bogus", "1"): "unrecognized arguments: --bogus 1",
    ("identity", "--id", "S1", "--k", "1", "--t", "1"): "--t: could match --theta, --terms",
    ("coeffs", "--k", "1"): "missing --n",
    ("constant", "catalan", "--digits", "5", "--"): "unrecognized arguments: --",
    ("constant", "catalan", "-hx"): "-h/--help takes no value",
}


@pytest.mark.parametrize(
    "argv,phrase", USAGE_ERRORS.items(), ids=[" ".join(a) or "no command" for a in USAGE_ERRORS]
)
def test_usage_error_reaches_the_err_stream(argv, phrase, capsys):
    code, out, err = invoke(list(argv))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: oddzeta")
    assert phrase in err
    assert "\nusage: oddzeta" in err
    assert capsys.readouterr() == ("", "")  # nothing on the process's own streams


HELP_ARGV = [["-h"], ["--help"], ["--he"], ["constant", "catalan", "--he"], ["constant", "-h", "x"]]


@pytest.mark.parametrize("argv", [*HELP_ARGV, *([c, "-h"] for c in COMMANDS)], ids=" ".join)
def test_help_prints_a_synopsis_to_the_out_stream(argv, capsys):
    code, out, err = invoke(argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: oddzeta")
    command = argv[0] if argv[0] in COMMANDS else None
    if command is None:
        assert all(f"  {name}  " in out for name in COMMANDS)
    else:
        assert all(f"{option[0]} " in out for option in COMMANDS[command][3])
    assert capsys.readouterr() == ("", "")


def argparse_reference(argv):
    """("ok", namespace dict), ("help",) or ("error",): what the argparse tree that the
    command table replaced made of ``argv``."""
    import argparse

    parser = argparse.ArgumentParser(prog="oddzeta")
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("plain", "csv", "json")
    p = sub.add_parser("constant")
    p.add_argument("name")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", dest="fmt", choices=formats, default="plain")
    p = sub.add_parser("coeffs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=("csv", "json", "plain"), default="csv")
    p = sub.add_parser("verify")
    p.add_argument("--name", default=None)
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", dest="fmt", choices=formats, default="plain")
    p = sub.add_parser("ratio")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=formats, default="plain")
    p = sub.add_parser("identity")
    p.add_argument("--id", dest="identity_id", choices=("S1", "S2"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--terms", dest="fourier_terms", type=int, default=10_000)
    p.add_argument("--series-terms", dest="series_terms", type=int, default=80)
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", dest="fmt", choices=formats, default="plain")
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return "ok", vars(parser.parse_args(argv))
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("error",)


def table_parse(argv):
    try:
        parsed = cli._parse(argv)
    except cli.UsageError:
        return ("error",)
    return ("help",) if isinstance(parsed, str) else ("ok", vars(parsed))


ARGV_TOKENS = [
    "catalan", "x", "-", "--", "-h", "--help", "--he", "--h", "-hx", "--help=x", "-5", "-1.5",
    "-x", "--digits", "--dig", "--d", "--digits=7", "--dig=1_2", "--digits=", "12", "1_2",
    " 4 ", "-1 2", "--format", "--fo=json", "json", "xml", "--name", "--id", "S1", "S3",
    "--k", "--n", "--t", "--theta", "--theta=pi/2", "--terms=5", "--series", "--bogus",
]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.sampled_from([*COMMANDS, "nope"]), st.sampled_from(ARGV_TOKENS)),
    st.lists(st.sampled_from([*COMMANDS, *ARGV_TOKENS]), max_size=7),
)
def test_argv_parses_as_the_argparse_tree_did(first, rest):
    # every form argparse accepted gives the same namespace, help stays help, and every
    # form it refused is refused
    argv = [first, *rest]
    assert table_parse(argv) == argparse_reference(argv)


# the pieces of a negative number, the characters next to them, and any decimal digit,
# other digits (superscripts, circled numbers) and spaces
NUMBER_PIECES = st.one_of(
    st.sampled_from([*"0123456789.-", "\n", "e"]),
    st.characters(categories=["Nd", "No", "Zs"]),
)


@settings(max_examples=400, deadline=None)
@given(st.text(NUMBER_PIECES, max_size=6) | st.text(max_size=4))
def test_negative_number_test_is_the_regex_argparse_used(body):
    # the regex, kept here as the reference, is what _is_option once compiled; its \d is
    # any Unicode decimal digit
    for token in (body, f"-{body}"):
        number = re.fullmatch(r"-\d+|-\d*\.\d+", token)
        option = token.startswith("-") and token != "-" and not number and " " not in token
        assert cli._is_option(token) == option


def test_plain_output_deterministic():
    argv = ["verify", "--name", "alt_harmonic", "--digits", "15"]
    first = invoke(argv)[1]
    second = invoke(argv)[1]
    assert first == second


def test_coeffs_past_int_str_limit():
    limit = sys.get_int_max_str_digits()
    code, out, _ = invoke(["coeffs", "--k", "1", "--n", "800"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 801
    assert lines[800].startswith("1,800,")
    assert len(lines[800].rpartition(",")[2]) > limit
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "terms,series_terms",
    [(MAX_FOURIER_TERMS + 1, MAX_TANGENT_INDEX), (MAX_FOURIER_TERMS, MAX_TANGENT_INDEX + 1)],
)
def test_identity_term_ceilings_exit_before_either_side(terms, series_terms):
    # near pi at 1000 digits the Fourier side takes the direct loop, about 20 s for 10^6
    # terms, and the ladder's tangent numbers to 5000 take about a minute
    argv = ["identity", "--id", "S1", "--k", "1", "--theta", "3.14", "--digits", "1000"]
    start = time.perf_counter()
    code, out, err = invoke([*argv, "--terms", str(terms), "--series-terms", str(series_terms)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "exceed" in err


def ceiling_names() -> list[str]:
    """Every module-level ``MAX_*`` or ``*_CEILING`` name assigned in the package."""
    package = Path(oddzeta.__file__).parent
    return sorted(
        target.id
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and (target.id.startswith("MAX_") or target.id.endswith("_CEILING"))
    )


IDENTITY_S1 = ["identity", "--id", "S1", "--k", "1"]

# ceiling name -> (argv one past it, expected exit code)
CEILING_CASES = {
    "DIGITS_CEILING": (["constant", "catalan", "--digits", str(DIGITS_CEILING + 1)], EXIT_RESOURCE),
    "MAX_FOURIER_TERMS": (
        [*IDENTITY_S1, "--theta", "1", "--terms", str(MAX_FOURIER_TERMS + 1)],
        EXIT_RESOURCE,
    ),
    "MAX_COLUMN_INDEX": (
        ["constant", f"beta_even({(MAX_COLUMN_INDEX + 1) // 2})", "--digits", "10"],
        EXIT_RESOURCE,
    ),
    # the widest table whose columns are all served, one row too long
    "MAX_TABLE_CELLS": (
        ["coeffs", "--k", str(MAX_COLUMN_INDEX), "--n", str(MAX_TABLE_CELLS // MAX_COLUMN_INDEX + 1)],
        EXIT_RESOURCE,
    ),
    "MAX_TANGENT_INDEX": (["coeffs", "--k", "1", "--n", str(MAX_TANGENT_INDEX + 1)], EXIT_RESOURCE),
    "MAX_THETA_DIGITS": (
        [*IDENTITY_S1, "--theta", "1" * (MAX_THETA_DIGITS + 1), "--terms", "100"],
        EXIT_USAGE,
    ),
}
# ceilings no command can reach: compute_pi's digits stay far below MAX_PI_DIGITS, and
# the oracle's depth at the digit ceiling far below MAX_ACCELERATION_DEPTH (test_oracle.py)
LIBRARY_ONLY_CEILINGS = {"MAX_ACCELERATION_DEPTH", "MAX_PI_DIGITS"}


@pytest.mark.parametrize("name", ceiling_names())
def test_every_ceiling_plus_one_exits_at_once(name):
    assert name in CEILING_CASES or name in LIBRARY_ONLY_CEILINGS, f"{name} has no CLI case"
    if name in LIBRARY_ONLY_CEILINGS:
        return
    argv, expected = CEILING_CASES[name]
    env = {**os.environ, "PYTHONPATH": str(Path(oddzeta.__file__).resolve().parent.parent)}
    env.pop("ODDZETA_CACHE_DIR", None)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "oddzeta.cli", *argv], env=env, capture_output=True, timeout=60
    )
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (expected, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--k", str(MAX_COLUMN_INDEX + 1), "--n", "1"],
        ["ratio", "--k", str(MAX_COLUMN_INDEX + 1), "--n", "2"],
        ["identity", "--id", "S2", "--k", str(MAX_COLUMN_INDEX // 2 + 1), "--theta", "1"],
    ],
    ids=["coeffs", "ratio", "identity"],
)
def test_column_past_the_ceiling_exits_at_once(argv):
    # coeffs would build columns 1..MAX_COLUMN_INDEX before it reached the next one, and
    # the S2 ladder sums its highest eta value, column 2k + 1, first
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_RESOURCE, "")
    assert f"exceeds configured maximum {MAX_COLUMN_INDEX}" in err


def test_ratio_past_tangent_ceiling_is_resource_error():
    # the column is sized once, so the ceiling is hit before any coefficient is built
    code, out, err = invoke(["ratio", "--k", "1", "--n", "5000"])
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "tangent index 5001" in err


def test_wrong_cached_value_is_not_trusted(tmp_path, cold_store, monkeypatch):
    from oddzeta import exact

    values = [tan_number(n) for n in range(1, 201)]
    values[1] = 3  # T_2 is 2
    exact._save_cache(str(tmp_path / "tangent.tsv"), values)
    monkeypatch.setenv(exact.CACHE_DIR_ENV, str(tmp_path))
    code, out, _ = invoke(["constant", "catalan", "--digits", "15"])
    assert (code, out) == (EXIT_OK, "0.915965594177219\n")


COEFFS_PLAIN = ["coeffs", "--k", "1", "--n", "200", "--format", "plain"]


@pytest.mark.parametrize(
    "argv,unbuffered,lines",
    [
        # 138 kB in 200 lines cannot all wait in a 64 kB pipe, so writing goes on after
        # the reader has closed its end, whether stdout is buffered or not
        (COEFFS_PLAIN, "", 1),
        (COEFFS_PLAIN, "1", 1),
        # the battery's few lines wait in the stdout buffer until the last flush
        (["verify", "--digits", "30"], "", 0),
    ],
    ids=["buffered", "unbuffered", "flush-at-exit"],
)
def test_reader_closing_the_pipe_ends_quietly(argv, unbuffered, lines):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env["PYTHONUNBUFFERED"] = unbuffered
    env.pop("ODDZETA_CACHE_DIR", None)
    child = subprocess.Popen(
        [sys.executable, "-m", "oddzeta.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert [child.stdout.readline() for _ in range(lines)] == [b"k=1 n=1 E=1/4\n"] * lines
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=60) == EXIT_OK
    assert stderr == b""


# a -c wrapper of main whose oracle reports a mismatch, so that verify exits 1
FAILING_ORACLE = (
    "from oddzeta import cli, oracle\n"
    "report = oracle.VerificationReport('catalan', '0.9', '0.8', 0, 5, 0.0)\n"
    "oracle.verify = lambda name, digits: report\n"
    "cli.main()\n"
)


def cli_process(args, cache_dir=None, **streams):
    """The finished ``python <args>``, with this checkout's package on the path and a cache
    directory only where ``cache_dir`` names one; stdout and stderr are pipes unless
    ``streams`` says otherwise."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("ODDZETA_CACHE_DIR", None)
    if cache_dir is not None:
        env["ODDZETA_CACHE_DIR"] = str(cache_dir)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **streams)


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "pipe"])
@pytest.mark.parametrize(
    "argv,expected",
    [
        (["constant", "catalan", "--digits", "30"], EXIT_OK),
        (["verify", "--digits", "30"], EXIT_OK),
        (["constant", "-h"], EXIT_OK),
        (["verify", "--name", "catalan", "--digits", "10"], EXIT_VERIFY_FAILED),
        (["constant", "bogus"], EXIT_USAGE),
        (["constant", "catalan", "--digits", "2000"], EXIT_RESOURCE),
    ],
    ids=["constant", "battery", "help", "failed", "usage", "resource"],
)
def test_main_prints_what_run_returns(argv, expected, to_file, tmp_path, monkeypatch):
    # main ends the process with os._exit, so whatever waits in a stream's buffer
    # arrives only through main's own flushes: a file's block buffer holds all of it
    if expected == EXIT_VERIFY_FAILED:
        from oddzeta import oracle

        fake = oracle.VerificationReport("catalan", "0.9", "0.8", 0, 5, 0.0)
        monkeypatch.setattr(oracle, "verify", lambda name, digits: fake)
        args = ["-c", FAILING_ORACLE, *argv]
    else:
        args = ["-m", "oddzeta.cli", *argv]
    code, out, err = invoke(argv)
    assert code == expected
    path = tmp_path / "stdout"
    with open(path, "wb") if to_file else contextlib.nullcontext(subprocess.PIPE) as stdout:
        done = cli_process(args, stdout=stdout)
    written = path.read_bytes() if to_file else done.stdout
    assert (done.returncode, written, done.stderr) == (code, out.encode(), err.encode())


COEFFS_CSV = ["coeffs", "--k", "1", "--n", "1500", "--format", "csv"]


def test_main_writes_a_long_table_whole_to_a_file(tmp_path):
    # 11.6 MB of CSV, flushed block by block and once more by main before it exits
    path = tmp_path / "table.csv"
    with open(path, "wb") as stdout:
        done = cli_process(["-m", "oddzeta.cli", *COEFFS_CSV], stdout=stdout)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    data = path.read_bytes()
    # what run() prints for the same argv, recorded: building it again takes seconds
    assert len(data) == 11_605_581
    assert hashlib.sha256(data).hexdigest() == (
        "7124648ea98301d1f1e9ae4fe8702b260699f5888d1faf5d30252b93615b86d3"
    )


def test_main_leaves_a_complete_cache_file(tmp_path, cold_store):
    from oddzeta import exact

    argv = ["constant", "apery", "--digits", "100"]
    done = cli_process(["-m", "oddzeta.cli", *argv], cache_dir=tmp_path)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert invoke(argv)[:2] == (EXIT_OK, done.stdout.decode())
    path = tmp_path / exact.CACHE_FILENAME
    lines = path.read_text().splitlines(keepends=True)
    # every index the run read is there, every line whole, and every value checks out
    assert len(lines) == len(exact._tangents) > 0
    assert exact._load_cache(str(path)) == exact._tangents


def test_an_exception_escaping_run_takes_the_normal_exit():
    script = (
        "from oddzeta import cli\n"
        "def fail(name, digits):\n"
        "    raise RuntimeError('boom')\n"
        "cli.compute_constant = fail\n"
        "cli.main()\n"
    )
    done = cli_process(["-c", script, "constant", "catalan"])
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"Traceback (most recent call last):\n")
    assert done.stderr.endswith(b"RuntimeError: boom\n")


@pytest.mark.parametrize("closed", [1, 2], ids=["stdout", "stderr"])
@pytest.mark.parametrize(
    "argv", [["constant", "catalan", "--digits", "12"], ["constant", "bogus"]], ids=["ok", "usage"]
)
def test_a_stream_closed_at_the_start_is_discarded(argv, closed):
    # ``>&-`` or ``2>&-`` leaves the interpreter no such stream (sys.stdout or sys.stderr
    # is None): what would go there is lost, and the run's exit code and the other
    # stream are what run gives
    code, out, err = invoke(argv)
    streams = {"stdout": None} if closed == 1 else {"stderr": None}
    done = cli_process(["-m", "oddzeta.cli", *argv], preexec_fn=lambda: os.close(closed), **streams)
    kept = done.stderr if closed == 1 else done.stdout
    assert (done.returncode, kept) == (code, (err if closed == 1 else out).encode())
