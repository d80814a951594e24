"""Fourier-identity residuals, specializations, and angle handling."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddzeta.constants import beta_even, eta_odd
from oddzeta.highprec import _divround
from oddzeta.identities import (
    ANCHOR_INTERVAL,
    _AngleEngine,
    _rotation_pair,
    canonical_theta_token,
    check_identity,
    eta_from_half_pi_identity,
    fourier_lhs,
    resolve_theta,
    residual_sweep,
    rhs_eval,
    sweep_to_csv,
    tan_half_residual,
)


def residual_fraction(result):
    return result.residual.as_fraction()


def test_canonical_theta_tokens():
    assert canonical_theta_token("pi/2") == "pi/2"
    assert canonical_theta_token(" pi/4 ") == "pi/4"
    assert canonical_theta_token("0.5") == "1/2"
    assert canonical_theta_token(0.5) == "1/2"
    assert canonical_theta_token(1.0) == "1"
    assert canonical_theta_token(Fraction(3, 2)) == "3/2"
    with pytest.raises(ValueError):
        canonical_theta_token("pi/1")
    with pytest.raises(TypeError):
        canonical_theta_token([1])


def test_theta_open_interval_enforced():
    for bad in ("0", "-0.5", "3.1415927", "4"):
        with pytest.raises(ValueError):
            resolve_theta(bad)
    resolve_theta("3")  # close to pi but inside
    resolve_theta("pi/2")


@given(st.floats(min_value=3.15, max_value=100, allow_nan=False))
def test_theta_rejects_above_pi(value):
    with pytest.raises(ValueError):
        resolve_theta(value)


def test_rhs_at_half_pi_matches_beta():
    # the sine identity specialized at pi/2 is exactly the beta-value series
    for k in (1, 2, 3):
        rhs = rhs_eval("S1", k, "pi/2", 80, digits=30)
        beta = beta_even(k, 30).value
        assert abs((rhs - beta).as_fraction()) < Fraction(1, 10**28)


def test_rhs_cosine_theta_to_zero_limit():
    # as theta -> 0 the cosine identity's right side tends to eta(2k+1)
    rhs = rhs_eval("S2", 1, Fraction(1, 10**6), 10, digits=20)
    eta = eta_odd(1, 20).value
    assert abs((rhs - eta).as_fraction()) < Fraction(1, 10**11)


def test_rhs_stability_in_series_terms():
    a = rhs_eval("S1", 2, "1", 60, digits=30)
    b = rhs_eval("S1", 2, "1", 120, digits=30)
    assert abs((a - b).as_fraction()) < Fraction(1, 10**20)


def test_fourier_lhs_stable_under_doubling():
    a = fourier_lhs("S1", 2, "1", 10_000, digits=20)
    b = fourier_lhs("S1", 2, "1", 20_000, digits=20)
    assert abs((a - b).as_fraction()) < Fraction(1, 10**10)


def test_fourier_lhs_half_pi_converges_to_catalan():
    lhs = fourier_lhs("S1", 1, "pi/2", 50_000, digits=25)
    cat = beta_even(1, 25).value
    assert abs((lhs - cat).as_fraction()) < Fraction(1, 10**8)


def test_fast_and_general_paths_agree():
    # pi/2 uses exact trig values; a nearby rational angle must land close
    fast = fourier_lhs("S2", 2, "pi/2", 4_000, digits=25)
    near = fourier_lhs("S2", 2, Fraction(15707963267948966, 10**16), 4_000, digits=25)
    assert abs((fast - near).as_fraction()) < Fraction(1, 10**14)


@pytest.mark.parametrize(
    "identity,k,theta,terms,bound_exp",
    [
        ("S1", 1, "1", 50_000, 10),
        ("S1", 2, "pi/2", 10_000, 10),
        ("S2", 1, "2", 10_000, 8),
    ],
)
def test_residuals_within_spec_bounds(identity, k, theta, terms, bound_exp):
    result = check_identity(identity, k, theta, terms, 80, digits=25)
    assert residual_fraction(result) < Fraction(1, 10**bound_exp)


def test_residual_near_upper_angle():
    # theta = 3 sits near the ladder's convergence edge and needs more
    # series terms; the Fourier side still dominates the residual
    result = check_identity("S1", 1, "3", 20_000, 200, digits=25)
    assert residual_fraction(result) < Fraction(1, 10**6)


@pytest.mark.parametrize(
    "identity,k,theta",
    [("S1", 1, "1"), ("S2", 1, "3/2"), ("S1", 2, "2")],
)
def test_residual_shrinks_with_more_terms(identity, k, theta):
    small = check_identity(identity, k, theta, 2_000, 80, digits=25)
    large = check_identity(identity, k, theta, 8_000, 80, digits=25)
    assert residual_fraction(large) < residual_fraction(small)


def test_eta_from_half_pi_identity_matches_series_path():
    for k in (1, 2):
        via_identity = eta_from_half_pi_identity(k, 30)
        via_series = eta_odd(k, 30).value
        assert abs((via_identity - via_series).as_fraction()) < Fraction(1, 10**20)


def test_tan_half_informational_check():
    residual = tan_half_residual("1", 50_000, digits=15)
    assert residual.as_fraction() < Fraction(1, 10**3)


def test_residual_record_fields():
    result = check_identity("S2", 1, "pi/2", 2_000, 40, digits=20)
    assert result.identity == "S2"
    assert result.k == 1
    assert result.theta_token == "pi/2"
    assert result.fourier_terms == 2_000
    assert result.series_terms == 40
    assert float(result.theta.as_fraction()) == pytest.approx(1.5707963267948966)


def rotation_pair_reference(k, token, fourier_terms, scale):
    """The rotation loop with a sign multiply and two _divround calls per step."""
    engine = _AngleEngine(token, scale)
    one = 10**scale
    s1, c1, e1 = engine.sin_cos(1)
    s, c = s1, c1
    a = b = a_prev = b_prev = 0
    sign = 1
    for m in range(1, fourier_terms + 1):
        if m == fourier_terms:
            a_prev, b_prev = a, b
        p = m ** (2 * k)
        a += sign * (s // p)
        b += sign * (c // (p * m))
        if (m + 1) % ANCHOR_INTERVAL == 0:
            s, c, _ = engine.sin_cos(m + 1)
        else:
            s, c = _divround(s * c1 + c * s1, one), _divround(c * c1 - s * s1, one)
        sign = -sign
    err = 2 * (3 * ANCHOR_INTERVAL + e1 + 4) + fourier_terms + 8
    return a_prev, a, b_prev, b, err


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("token", ["1", "3", "1/2"])
def test_rotation_pair_equals_reference_loop(k, token):
    assert _rotation_pair(k, token, 3_001, 30) == rotation_pair_reference(k, token, 3_001, 30)


def test_rotation_pair_equals_reference_loop_across_an_anchor():
    terms = ANCHOR_INTERVAL + 3
    assert _rotation_pair(1, "1", terms, 20) == rotation_pair_reference(1, "1", terms, 20)


def test_sweep_csv_format():
    rows = residual_sweep(
        ks=(1,), thetas=("1", "pi/2"), fourier_terms_for_k=500, series_terms=40, digits=15
    )
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "identity,k,theta,fourier_terms,residual"
    assert len(lines) == 5  # two identities x two angles
    assert lines[1].startswith("S1,1,1,500,")
    assert lines[2].startswith("S1,1,pi/2,500,")
    assert lines[3].startswith("S2,1,1,500,")


def test_identity_validation():
    with pytest.raises(ValueError):
        fourier_lhs("S3", 1, "1", 100)
    with pytest.raises(ValueError):
        fourier_lhs("S1", 0, "1", 100)
    with pytest.raises(ValueError):
        fourier_lhs("S1", 1, "1", 1)
    with pytest.raises(ValueError):
        rhs_eval("S1", 1, "1", 0)


def test_rhs_eval_builds_tangents_once(cold_store):
    rhs_eval("S1", 3, "3", 200)
    assert len(cold_store) == 1
