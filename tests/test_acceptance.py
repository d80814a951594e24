"""Acceptance suite: every shipping criterion, one test each, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure surfaces as a normal pytest assertion.
"""

from fractions import Fraction

import pytest

from exact_reference import E_STEPWISE, bounds, midpoint
from oddzeta.coeffs import e_coeff
from oddzeta.constants import compute_constant, zeta_even_closed
from oddzeta.highprec import compute_pi
from oddzeta.identities import check_identity
from oddzeta.oracle import (
    default_battery,
    matched_digit_count,
    reference_zeta_even,
    verify,
)

ACCEPT_THETAS = ("1/2", "1", "pi/2", "2")


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_catalan_thirty_digits():
    r = verify("catalan", 30)
    assert r.matched_digits >= 30
    assert r.terms_used <= 150
    assert r.elapsed < 5.0
    report(
        "criterion 1 (catalan)",
        f"matched={r.matched_digits} terms={r.terms_used} elapsed={r.elapsed:.2f}s",
    )


def test_criterion_2_apery_thirty_digits():
    r = verify("apery", 30)
    assert r.matched_digits >= 30
    assert r.terms_used <= 150
    assert r.elapsed < 5.0
    report(
        "criterion 2 (apery)",
        f"matched={r.matched_digits} terms={r.terms_used} elapsed={r.elapsed:.2f}s",
    )


@pytest.mark.parametrize("k,label", [(2, "zeta(5)"), (3, "zeta(7)")])
def test_criterion_3_higher_odd_zetas(k, label):
    r = verify(f"zeta_odd({k})", 25)
    assert r.matched_digits >= 25
    assert r.elapsed < 10.0
    report(
        f"criterion 3 ({label})",
        f"matched={r.matched_digits} terms={r.terms_used} elapsed={r.elapsed:.2f}s",
    )


def test_criterion_4_alt_harmonic_thirty_digits():
    r = verify("alt_harmonic", 30)
    assert r.matched_digits >= 30
    report("criterion 4 (alt_harmonic)", f"matched={r.matched_digits} terms={r.terms_used}")


def test_criterion_5_even_zeta_closed_form():
    worst = 99
    for n in range(1, 6):
        closed = zeta_even_closed(n, 32).value.to_decimal()
        direct = reference_zeta_even(n, 32).to_decimal()
        matched = matched_digit_count(closed, direct)
        worst = min(worst, matched)
        assert matched >= 30, f"zeta({2 * n}): only {matched} digits"
    report("criterion 5 (even zeta closed form)", f"n=1..5 matched>=30 (worst {worst})")


def test_criterion_6_stepwise_equals_general():
    checked = 0
    for k in (2, 3, 4, 5):
        step = E_STEPWISE[k]
        for n in range(1, 51):
            assert e_coeff(n, k) == step(n), (n, k)
            checked += 1
    report("criterion 6 (exact recurrence consistency)", f"{checked} exact equalities")


def test_criterion_7_identity_residuals():
    bound = Fraction(1, 10**8)
    worst = Fraction(0)
    for identity in ("S1", "S2"):
        for k in (1, 2, 3):
            terms = 1_000_000 if k == 1 else 10_000
            for theta in ACCEPT_THETAS:
                res = check_identity(identity, k, theta, terms, 80, digits=25)
                value = midpoint(res.residual)
                worst = max(worst, value)
                assert value < bound, (identity, k, theta, res.residual.to_sci(4))
    report(
        "criterion 7 (identity residuals)",
        f"24 checks < 1e-8 (worst {float(worst):.2e})",
    )


def test_criterion_8_term_ratio_convergence():
    pi_lo, pi_hi = (end / 2 for end in bounds(compute_pi(40)))
    band_lo, band_hi = Fraction(2, 10), Fraction(3, 10)
    for k in range(1, 7):
        for n in range(10, 61):
            q = abs(e_coeff(n + 1, k) / e_coeff(n, k))
            assert q * pi_hi * pi_hi < Fraction(9, 10), (k, n)
            if n >= 40:
                assert band_lo < q * pi_lo * pi_lo, (k, n)
                assert q * pi_hi * pi_hi < band_hi, (k, n)
    report(
        "criterion 8 (term-ratio convergence)",
        "k<=6: ratios < 0.9 on 10<=n<=60 and within [0.2, 0.3] for n>=40",
    )


def test_criterion_9_precision_monotonicity():
    for name in default_battery():
        coarse = compute_constant(name, 15).value.to_decimal()
        fine = compute_constant(name, 40).value.to_decimal()
        matched = matched_digit_count(coarse, fine)
        assert matched >= 13, (name, coarse, fine)
    report(
        "criterion 9 (precision monotonicity)",
        "15- vs 40-digit runs agree on >= 13 digits for the full battery",
    )
