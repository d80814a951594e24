"""Tangent numbers, tangent coefficients, Bernoulli numbers, and the on-disk cache."""

import io
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, strategies as st

from exact_reference import tan_fraction, tan_number
from oddzeta import coeffs, oracle
from oddzeta import exact as exact_module
from oddzeta.cli import EXIT_OK, run
from oddzeta.errors import ResourceLimitError
from oddzeta.exact import (
    CACHE_DIR_ENV,
    MAX_TANGENT_INDEX,
    bernoulli,
    tangent_number,
)
from oddzeta.highprec import term_ratio_sequence
from oddzeta.identities import rhs_eval


def tangent_coeff(n):
    """Maclaurin coefficient c_n = T_n / (2n-1)! of tan x = sum_{n>=1} c_n x^(2n-1)."""
    return Fraction(tangent_number(n), factorial(2 * n - 1))


def invoke(*argv):
    """Exit code of one CLI command, its output discarded."""
    return run(list(argv), out=io.StringIO(), err=io.StringIO())


def command(*argv):
    """An entry point that runs one CLI command, which must succeed."""

    def entry():
        assert invoke(*argv) == EXIT_OK

    return entry


def reset_store(monkeypatch):
    """Empty tangent list, step column and coefficient store, as a new process has."""
    monkeypatch.setattr(exact_module, "_tangents", [])
    monkeypatch.setattr(exact_module, "_step_column", [])
    monkeypatch.setattr(coeffs, "_columns", {})


def test_bernoulli_base_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    # hand evaluation of C(3,0)B0 + C(3,1)B1 + 3 B2 = 0 gives B2 = 1/6
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)


@pytest.mark.parametrize("m", range(1, 41))
def test_bernoulli_defining_recurrence(m):
    total = sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
    assert total == 0


def test_odd_indices_vanish_and_even_signs_alternate():
    for m in range(3, 61, 2):
        assert bernoulli(m) == 0
    for n in range(1, 31):
        value = bernoulli(2 * n)
        assert (value > 0) == (n % 2 == 1)


@given(st.integers(min_value=0, max_value=60))
def test_bernoulli_canonical_form(m):
    value = bernoulli(m)
    assert value.denominator > 0
    assert gcd(abs(value.numerator), value.denominator) == 1


def test_table_extension_is_append_only():
    tangent_number(10)
    before = list(exact_module._tangents)
    tangent_number(len(before) + 40)
    assert exact_module._tangents[: len(before)] == before


def warm_verify_warm_up():
    for d in (30, 100, 200):
        for name in oracle.default_battery():
            oracle.verify(name, d)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(command("verify", "--digits", "30"), id="verify"),
        pytest.param(
            command("identity", "--id", "S2", "--k", "2", "--theta", "1", "--terms", "2000"),
            id="identity",
        ),
        pytest.param(lambda: rhs_eval("S1", 3, "3", 200), id="rhs_eval"),
        pytest.param(lambda: term_ratio_sequence(1, 300), id="term_ratio_sequence"),
        pytest.param(
            lambda: [exact_module.tangent_number(n) for n in range(1, 201)], id="tangent_number"
        ),
        pytest.param(warm_verify_warm_up, id="warm_verify"),
    ],
)
def test_no_tangent_index_is_computed_twice(cold_store, monkeypatch, entry):
    # exact and coeffs are the only modules that ask for a tangent index
    requests = []
    for module in (exact_module, coeffs):
        ask = module.tangent_number
        monkeypatch.setattr(
            module, "tangent_number", lambda n, ask=ask: requests.append(n) or ask(n)
        )
    entry()
    assert cold_store == list(range(1, len(exact_module._tangents) + 1))
    assert len(exact_module._tangents) == max(requests)


def test_resource_limit_on_index(monkeypatch):
    with pytest.raises(ResourceLimitError):
        bernoulli(2 * MAX_TANGENT_INDEX + 1)
    monkeypatch.setattr(exact_module, "MAX_TANGENT_INDEX", 5)
    assert bernoulli(10) == Fraction(5, 66)
    for m in (11, 12):
        with pytest.raises(ResourceLimitError):
            bernoulli(m)


def test_cache_roundtrip(tmp_path, cold_store, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert tangent_number(12) == tan_number(12)
    lines = (tmp_path / "tangent.tsv").read_text().splitlines()
    assert lines[:4] == ["1\t1", "2\t2", "3\t10", "4\t110"]  # 16 and 272 in hex
    assert all("\t" in line and " " not in line for line in lines)
    saved = list(exact_module._tangents)
    reset_store(monkeypatch)
    monkeypatch.setattr(exact_module, "_step", None)  # reload, never compute
    assert tangent_number(12) == tan_number(12)
    assert exact_module._tangents == saved


def count_loads(monkeypatch):
    """The paths ``_load_cache`` reads from now on, one entry per read."""
    loads = []
    load = exact_module._load_cache
    monkeypatch.setattr(exact_module, "_load_cache", lambda path: loads.append(path) or load(path))
    return loads


def test_short_cache_seeds_the_list_and_the_step_catches_up(tmp_path, cold_store, monkeypatch):
    path = str(tmp_path / "tangent.tsv")
    exact_module._save_cache(path, [tan_number(n) for n in range(1, 51)])
    loads = count_loads(monkeypatch)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert invoke("verify", "--digits", "30") == EXIT_OK
    grown = list(exact_module._tangents)
    assert loads == [path] and len(grown) > 50
    # the step ran from its own last index, so every index was computed once
    assert cold_store == list(range(1, len(grown) + 1))
    assert exact_module._load_cache(path) == grown
    reset_store(monkeypatch)
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert invoke("verify", "--digits", "30") == EXIT_OK
    assert exact_module._tangents == grown


def test_cache_holding_enough_is_read_once_and_steps_nothing(tmp_path, cold_store, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    argv = ("constant", "apery", "--digits", "100")
    assert invoke(*argv) == EXIT_OK
    computed = len(cold_store)
    assert computed == len(exact_module._tangents)
    reset_store(monkeypatch)
    loads = count_loads(monkeypatch)
    assert invoke(*argv) == EXIT_OK
    assert len(cold_store) == computed
    assert loads == [str(tmp_path / "tangent.tsv")]


def test_cache_holds_values_past_int_str_limit(tmp_path):
    path = str(tmp_path / "tangent.tsv")
    tangent_number(840)
    values = exact_module._tangents[:840]
    assert values[-1] > 10**4300  # past the default int-to-str digit limit
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values
    assert [p.name for p in tmp_path.iterdir()] == ["tangent.tsv"]


@pytest.mark.parametrize("wrong", [1, 2, 100, 200])
def test_cache_prefix_ends_before_a_wrong_value(tmp_path, wrong):
    # every line is well formed; the tan' = 1 + tan^2 check alone rejects the value
    path = str(tmp_path / "tangent.tsv")
    tangent_number(200)
    values = exact_module._tangents[:200]
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values
    values[wrong - 1] += 1
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values[: wrong - 1]


def test_cache_is_read_no_further_than_the_ceiling(tmp_path, monkeypatch):
    # a file written under a higher ceiling: the lines past it are neither parsed nor checked
    path = str(tmp_path / "tangent.tsv")
    values = [tangent_number(n) for n in range(1, 13)]
    exact_module._save_cache(path, values)
    monkeypatch.setattr(exact_module, "MAX_TANGENT_INDEX", 10)
    assert exact_module._load_cache(path) == values[:10]


@pytest.mark.parametrize("failure", [OSError, RuntimeError])
def test_failed_cache_save_leaves_no_temp_file(tmp_path, monkeypatch, failure):
    def refuse(src, dst):
        raise failure("refused")

    monkeypatch.setattr(exact_module.os, "replace", refuse)
    path = str(tmp_path / "tangent.tsv")
    if failure is OSError:
        exact_module._save_cache(path, [1, 2])
    else:
        with pytest.raises(RuntimeError):
            exact_module._save_cache(path, [1, 2])
    assert list(tmp_path.iterdir()) == []


def test_corrupt_cache_is_ignored(tmp_path, cold_store, monkeypatch):
    path = tmp_path / "tangent.tsv"
    path.write_text("1\t1\n2\tnot-hex\n3\t10\n")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert tangent_number(3) == 16
    assert exact_module._tangents[:3] == [1, 2, 16]
    # only the canonical prefix of a file is trusted
    for text, prefix in [
        ("1\t1\n2\t02\n", [1]),
        ("1\t1\n2\t-2\n", [1]),
        ("1\t1\n2\t2", [1]),
        ("2\t2\n", []),
    ]:
        path.write_text(text)
        assert exact_module._load_cache(str(path)) == prefix


def test_env_cache_dir_used_by_default_table(tmp_path, cold_store, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert bernoulli(8) == Fraction(-1, 30)
    assert (tmp_path / "tangent.tsv").exists()


def test_tangent_coeff_small_values():
    assert tangent_coeff(1) == 1
    assert tangent_coeff(2) == Fraction(1, 3)
    assert tangent_coeff(3) == Fraction(2, 15)
    assert tangent_coeff(4) == Fraction(17, 315)


def test_tangent_coeff_matches_derivative_recurrence(tmp_path, cold_store):
    # the column scaled by factorials steps T_1..T_1060 from an empty store: the first
    # 500 equal the integer derivative recurrence, and all pass the cache's independent
    # tan' = 1 + tan^2 check
    tangent_number(1060)
    assert cold_store == list(range(1, 1061))
    assert exact_module._tangents[:500] == [tan_number(n) for n in range(1, 501)]
    path = str(tmp_path / "tangent.tsv")
    values = exact_module._tangents
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values


def test_tangent_coeffs_positive():
    assert all(tangent_number(n) > 0 for n in range(1, 31))


def test_tangent_partial_sum_matches_direct_tangent():
    x = Fraction(1, 2)
    partial = sum(tangent_coeff(n) * x ** (2 * n - 1) for n in range(1, 41))
    direct = tan_fraction(x, terms=60)
    assert abs(partial - direct) < Fraction(1, 10**20)


def test_tangent_coeff_rejects_bad_index():
    with pytest.raises(ValueError):
        tangent_number(0)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_tangent_coeff_propagates_resource_limit(monkeypatch):
    monkeypatch.setattr(exact_module, "MAX_TANGENT_INDEX", 5)
    assert tangent_number(5) == tan_number(5)
    with pytest.raises(ResourceLimitError):
        tangent_number(6)
