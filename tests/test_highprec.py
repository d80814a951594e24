"""Fixed-point arithmetic soundness, pi, and the series summation engine."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddzeta.errors import TailRatioError
from oddzeta.highprec import (
    FixedDecimal,
    compute_pi,
    estimate_terms,
    half_pi,
    sum_series,
    term_ratio_sequence,
)

mantissas = st.integers(min_value=-(10**25), max_value=10**25)
scales = st.integers(min_value=0, max_value=20)
errs = st.integers(min_value=0, max_value=1000)


def enclosure_contains(fd: FixedDecimal, exact: Fraction) -> bool:
    lo, hi = fd.bounds()
    return lo <= exact <= hi


@given(mantissas, scales, errs, mantissas, scales, errs)
def test_add_sub_mul_enclosures(ma, sa, ea, mb, sb, eb):
    a = FixedDecimal(ma, sa, ea)
    b = FixedDecimal(mb, sb, eb)
    for exact_a in a.bounds():
        for exact_b in b.bounds():
            assert enclosure_contains(a + b, exact_a + exact_b)
            assert enclosure_contains(a - b, exact_a - exact_b)
            assert enclosure_contains(a.mul(b), exact_a * exact_b)


@given(mantissas, scales, errs, st.integers(min_value=0, max_value=25))
def test_rescale_enclosure(m, s, e, target):
    fd = FixedDecimal(m, s, e)
    for exact in fd.bounds():
        assert enclosure_contains(fd.rescale(target), exact)


@given(
    mantissas,
    scales,
    errs,
    st.fractions(
        min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
    ),
)
def test_mul_fraction_enclosure(m, s, e, q):
    fd = FixedDecimal(m, s, e)
    for exact in fd.bounds():
        assert enclosure_contains(fd.mul_fraction(q), exact * q)


@given(st.fractions(max_denominator=10**9), st.integers(min_value=0, max_value=25))
def test_from_fraction_enclosure(q, scale):
    assert enclosure_contains(FixedDecimal.from_fraction(q, scale), q)


def test_decimal_rendering():
    assert FixedDecimal(1234, 3).to_decimal() == "1.234"
    assert FixedDecimal(-1234, 3).to_decimal() == "-1.234"
    assert FixedDecimal(7, 3).to_decimal() == "0.007"
    assert FixedDecimal(5, 0).to_decimal() == "5"


def test_sci_rendering():
    assert FixedDecimal(123456789, 12).to_sci(4) == "1.235e-4"
    assert FixedDecimal(-5, 8).to_sci(3) == "-5e-8"
    assert FixedDecimal(0, 8).to_sci() == "0e+0"
    assert FixedDecimal(999999999, 4).to_sci(3) == "1e+5"


def test_pow_int():
    x = FixedDecimal.from_fraction(Fraction(3, 2), 20)
    assert enclosure_contains(x.pow_int(5), Fraction(243, 32))
    assert x.pow_int(0).as_fraction() == 1


def test_pi_coarse_bracket():
    p = compute_pi(1)
    assert p.to_decimal() == "3.1"
    assert p.err_ulp <= 1


def test_pi_bound_breach_raises(monkeypatch):
    from oddzeta import highprec

    monkeypatch.setattr(highprec, "_arctan_recip", lambda x, scale: (0, 10**scale))
    with pytest.raises(ArithmeticError):
        compute_pi(5)


def test_pi_twenty_digits():
    assert compute_pi(20).to_decimal() == "3.14159265358979323846"


def test_pi_against_independent_series():
    # Machin arctangents vs the transformed arctangent series in the oracle
    from oddzeta.oracle import reference_pi

    assert compute_pi(40).to_decimal() == reference_pi(40).to_decimal()


@given(
    st.integers(min_value=-(10**8), max_value=10**8),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=5),
)
def test_pow_int_enclosure(m, s, e, exponent):
    fd = FixedDecimal(m, s, e)
    for exact in fd.bounds():
        assert enclosure_contains(fd.pow_int(exponent), exact**exponent)


@pytest.mark.parametrize("digits", [15, 30, 50])
def test_pi_precision_monotone(digits):
    wide = compute_pi(digits).rescale(digits - 5)
    narrow = compute_pi(digits - 5)
    assert abs(wide.mantissa - narrow.mantissa) <= 1


def test_half_pi():
    assert half_pi(20).to_decimal() == "1.57079632679489661923"


def test_estimate_terms_cases():
    assert 55 <= estimate_terms(30, 3) <= 120
    assert estimate_terms(1, 1) >= 3


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=12))
def test_estimate_terms_monotone(digits, k):
    assert estimate_terms(digits + 10, k) > estimate_terms(digits, k)


def test_sum_series_values():
    assert sum_series(1, 15).value.to_decimal() == "0.693147180559945"
    assert sum_series(2, 15).value.to_decimal() == "0.915965594177219"
    assert sum_series(3, 15).value.to_decimal() == "0.901542677369696"


@pytest.mark.parametrize("k", [*range(1, 13), 15, 20, 21, 30])
def test_sum_series_stops_before_its_column_ends(k):
    # rows are sized from the 1/4 term ratio; the cutoff must still end the loop, not the column
    for digits in (1, 2, 5, 10, 30, 57, 100, 300):
        assert sum_series(k, digits).terms_used < estimate_terms(digits, k)


def test_sum_series_reports_tail_and_terms():
    result = sum_series(2, 20)
    assert result.k == 2
    assert result.terms_used >= 5
    assert result.tail_bound.mantissa >= 0
    # the tail bound was folded into the error bound before rescaling
    assert result.value.err_ulp >= 1


def test_sum_series_doubling_agreement():
    for k in (1, 2, 3):
        low = sum_series(k, 15).value
        high = sum_series(k, 30).value.rescale(15)
        assert abs(low.mantissa - high.mantissa) <= 100  # first 13 digits agree


def test_sum_series_tail_ratio_guard(monkeypatch):
    # a synthetic column whose entries stop decaying (E_n(k) = 1) must trip the runtime check
    from oddzeta import highprec
    from oddzeta.coeffs import e_denominator

    monkeypatch.setattr(
        highprec, "e_column", lambda k, rows: [e_denominator(n, k) for n in range(1, rows + 1)]
    )
    with pytest.raises(TailRatioError):
        sum_series(1, 5)


def test_term_ratio_sequence_near_quarter():
    for k in range(1, 7):
        ratios = dict(term_ratio_sequence(k, 60, digits=12))
        value = ratios[59].as_fraction()
        assert Fraction(2, 10) < value < Fraction(3, 10)


def test_term_ratio_sequence_builds_tangents_once(cold_store):
    term_ratio_sequence(1, 300)
    assert cold_store == [301]


def test_validation_errors():
    with pytest.raises(ValueError):
        compute_pi(0)
    with pytest.raises(ValueError):
        estimate_terms(0, 1)
    with pytest.raises(ValueError):
        sum_series(0, 10)
    with pytest.raises(ValueError):
        sum_series(1, 0)
