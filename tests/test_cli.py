"""Command-line behavior: formats, determinism, exit codes."""

import io
import json
import os
import sys

import pytest

from oddzeta.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    run,
)


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


def test_cache_dir_flag(tmp_path, monkeypatch):
    from oddzeta import exact
    from oddzeta.exact import CACHE_DIR_ENV

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(exact, "_tangents", [])
    environ = dict(os.environ)
    code, out, _ = invoke(
        ["--cache-dir", str(tmp_path), "constant", "zeta_even(1)", "--digits", "10"]
    )
    assert code == EXIT_OK
    assert out == "1.6449340668\n"
    assert (tmp_path / "tangent.tsv").exists()
    # the flag is not left behind for library callers in the same process
    assert dict(os.environ) == environ
    assert exact._cache_path() is None


def test_coeffs_past_int_str_limit():
    limit = sys.get_int_max_str_digits()
    code, out, _ = invoke(["coeffs", "--k", "1", "--n", "800"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 801
    assert lines[800].startswith("1,800,")
    assert len(lines[800].rpartition(",")[2]) > limit
    assert sys.get_int_max_str_digits() == limit


def test_ratio_past_tangent_ceiling_is_resource_error():
    # the column is sized once, so the ceiling is hit before any coefficient is built
    code, out, err = invoke(["ratio", "--k", "1", "--n", "5000"])
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "tangent index 5001" in err


def test_wrong_cached_value_is_not_trusted(tmp_path, cold_store):
    from oddzeta import exact

    exact.tangent_coeff(200)
    values = list(exact._tangents)
    values[1] = 3  # T_2 is 2
    exact._save_cache(str(tmp_path / "tangent.tsv"), values)
    exact._tangents.clear()
    code, out, _ = invoke(["--cache-dir", str(tmp_path), "constant", "catalan", "--digits", "15"])
    assert (code, out) == (EXIT_OK, "0.915965594177219\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--id", "S2", "--k", "2", "--theta", "1", "--terms", "2000"],
        ["verify", "--digits", "30"],
    ],
)
def test_command_builds_tangents_once(cold_store, argv):
    # the ladder and its eta values, or every constant of the battery, read one tangent list
    assert invoke(argv)[0] == EXIT_OK
    assert len(cold_store) == 1
