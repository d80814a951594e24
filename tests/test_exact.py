"""Tangent numbers, tangent coefficients, Bernoulli numbers, and the on-disk cache."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

from exact_reference import tan_coeff, tan_fraction
from oddzeta import exact as exact_module
from oddzeta.errors import ResourceLimitError
from oddzeta.exact import (
    CACHE_DIR_ENV,
    MAX_TANGENT_INDEX,
    bernoulli,
    cache_dir,
    tangent_coeff,
)


@pytest.fixture
def fresh_tangents(monkeypatch):
    """An empty tangent list for one test; the shared one is restored afterwards."""
    monkeypatch.setattr(exact_module, "_tangents", [])
    return exact_module


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
    tangent_coeff(10)
    before = list(exact_module._tangents)
    tangent_coeff(len(before) + 40)
    assert exact_module._tangents[: len(before)] == before


def test_growth_never_passes_five_quarters_of_request(fresh_tangents, monkeypatch):
    builds = []
    compute = fresh_tangents._tangent_numbers
    monkeypatch.setattr(
        fresh_tangents, "_tangent_numbers", lambda count: builds.append(count) or compute(count)
    )
    for n in range(1, 201):
        tangent_coeff(n)
        assert len(fresh_tangents._tangents) <= n * 5 // 4
    assert builds == sorted(set(builds)) and len(builds) <= 25


def test_resource_limit_on_index(monkeypatch):
    with pytest.raises(ResourceLimitError):
        bernoulli(2 * MAX_TANGENT_INDEX + 1)
    monkeypatch.setattr(exact_module, "MAX_TANGENT_INDEX", 5)
    assert bernoulli(10) == Fraction(5, 66)
    for m in (11, 12):
        with pytest.raises(ResourceLimitError):
            bernoulli(m)


def test_cache_roundtrip(tmp_path, fresh_tangents, monkeypatch):
    with cache_dir(str(tmp_path)):
        assert tangent_coeff(12) == tan_coeff(12)
    lines = (tmp_path / "tangent.tsv").read_text().splitlines()
    assert lines[:4] == ["1\t1", "2\t2", "3\t10", "4\t110"]  # 16 and 272 in hex
    assert all("\t" in line and " " not in line for line in lines)
    saved = list(fresh_tangents._tangents)
    monkeypatch.setattr(fresh_tangents, "_tangents", [])
    monkeypatch.setattr(fresh_tangents, "_tangent_numbers", None)  # reload, never recompute
    with cache_dir(str(tmp_path)):
        assert tangent_coeff(12) == tan_coeff(12)
    assert fresh_tangents._tangents == saved


def test_cache_holds_values_past_int_str_limit(tmp_path):
    path = str(tmp_path / "tangent.tsv")
    tangent_coeff(840)
    values = exact_module._tangents[:840]
    assert values[-1] > 10**4300  # past the default int-to-str digit limit
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values
    assert [p.name for p in tmp_path.iterdir()] == ["tangent.tsv"]


@pytest.mark.parametrize("wrong", [1, 2, 100, 200])
def test_cache_prefix_ends_before_a_wrong_value(tmp_path, wrong):
    # every line is well formed; the tan' = 1 + tan^2 check alone rejects the value
    path = str(tmp_path / "tangent.tsv")
    tangent_coeff(200)
    values = exact_module._tangents[:200]
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values
    values[wrong - 1] += 1
    exact_module._save_cache(path, values)
    assert exact_module._load_cache(path) == values[: wrong - 1]


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


def test_corrupt_cache_is_ignored(tmp_path, fresh_tangents):
    path = tmp_path / "tangent.tsv"
    path.write_text("1\t1\n2\tnot-hex\n3\t10\n")
    with cache_dir(str(tmp_path)):
        assert tangent_coeff(3) == Fraction(2, 15)
    assert fresh_tangents._tangents[:3] == [1, 2, 16]
    # only the canonical prefix of a file is trusted
    for text, prefix in [
        ("1\t1\n2\t02\n", [1]),
        ("1\t1\n2\t-2\n", [1]),
        ("1\t1\n2\t2", [1]),
        ("2\t2\n", []),
    ]:
        path.write_text(text)
        assert exact_module._load_cache(str(path)) == prefix


def test_env_cache_dir_used_by_default_table(tmp_path, fresh_tangents, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert bernoulli(8) == Fraction(-1, 30)
    assert (tmp_path / "tangent.tsv").exists()


def test_tangent_coeff_small_values():
    assert tangent_coeff(1) == 1
    assert tangent_coeff(2) == Fraction(1, 3)
    assert tangent_coeff(3) == Fraction(2, 15)
    assert tangent_coeff(4) == Fraction(17, 315)


def test_tangent_coeff_matches_derivative_recurrence():
    for n in range(1, 101):
        assert tangent_coeff(n) == tan_coeff(n)


def test_tangent_coeffs_positive():
    assert all(tangent_coeff(n) > 0 for n in range(1, 31))


def test_tangent_partial_sum_matches_direct_tangent():
    x = Fraction(1, 2)
    partial = sum(tangent_coeff(n) * x ** (2 * n - 1) for n in range(1, 41))
    direct = tan_fraction(x, terms=60)
    assert abs(partial - direct) < Fraction(1, 10**20)


def test_tangent_coeff_rejects_bad_index():
    with pytest.raises(ValueError):
        tangent_coeff(0)


def test_tangent_coeff_propagates_resource_limit(monkeypatch):
    monkeypatch.setattr(exact_module, "MAX_TANGENT_INDEX", 5)
    assert tangent_coeff(5) == Fraction(62, 2835)
    with pytest.raises(ResourceLimitError):
        tangent_coeff(6)
