"""Command-line behavior: formats, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from exact_reference import tan_number
from oddzeta.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    run,
)
from oddzeta.exact import MAX_TANGENT_INDEX
from oddzeta.identities import MAX_FOURIER_TERMS


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
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["reports"][0]["name"] == "catalan"
    assert "elapsed_ms" in doc["reports"][0]


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


def test_bad_theta_usage_error():
    code, _, err = invoke(["identity", "--id", "S1", "--k", "1", "--theta", "9"])
    assert code == EXIT_USAGE
    assert "theta" in err


def test_theta_too_close_to_pi_for_the_ladder_tail_usage_error():
    # 3.1415 is below pi, but (theta/pi)^2 is too near 1 to bound the ladder's tail
    argv = ["identity", "--id", "S1", "--k", "1", "--theta", "3.1415", "--terms", "100"]
    code, out, err = invoke(argv)
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
