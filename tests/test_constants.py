"""Named constants: frozen digit strings, bridges, and bracketing bounds."""

from fractions import Fraction

import pytest

from oddzeta.constants import (
    alt_harmonic,
    apery,
    beta_even,
    catalan,
    compute_constant,
    eta_odd,
    parse_constant_name,
    tangent_index,
    zeta_even_closed,
    zeta_odd,
)
from oddzeta.errors import UnknownConstantError
from oddzeta.highprec import FixedDecimal, sum_series


def test_fifteen_digit_values():
    assert catalan(15).value.to_decimal() == "0.915965594177219"
    assert apery(15).value.to_decimal() == "1.202056903159594"
    assert alt_harmonic(15).value.to_decimal() == "0.693147180559945"
    assert beta_even(2, 15).value.to_decimal() == "0.988944551741105"
    assert eta_odd(1, 15).value.to_decimal() == "0.901542677369696"
    assert eta_odd(2, 15).value.to_decimal() == "0.972119770446909"
    assert zeta_odd(2, 15).value.to_decimal() == "1.036927755143370"
    assert zeta_odd(3, 15).value.to_decimal().startswith("1.00834927738192")


def test_zeta_even_closed_values():
    assert zeta_even_closed(1, 15).value.to_decimal() == "1.644934066848226"
    assert zeta_even_closed(2, 15).value.to_decimal() == "1.082323233711138"
    # pi^2/6 and pi^4/90 exactly, within the tracked enclosures
    from oddzeta.highprec import compute_pi

    p = compute_pi(40)
    lo, hi = zeta_even_closed(1, 30).value.bounds()
    exact_lo, exact_hi = (b * b / 6 for b in p.bounds())
    assert lo <= exact_hi and exact_lo <= hi


def test_beta_even_delegates_to_series():
    direct = sum_series(2, 15)
    wrapped = beta_even(1, 15)
    assert wrapped.value == direct.value
    assert wrapped.terms_used == direct.terms_used
    assert alt_harmonic(15).value == sum_series(1, 15).value


def test_value_records_are_immutable():
    value = catalan(10)
    with pytest.raises(AttributeError):
        value.name = "other"
    renamed = value._replace(name="other")
    assert (renamed.name, value.name, renamed.value) == ("other", "catalan", value.value)
    assert FixedDecimal(7, 2) == FixedDecimal(mantissa=7, scale=2, err_ulp=0)
    assert hash(FixedDecimal(7, 2)) == hash(FixedDecimal(mantissa=7, scale=2))
    assert repr(FixedDecimal(7, 2)) == "FixedDecimal(mantissa=7, scale=2, err_ulp=0)"


def test_constant_builds_only_the_columns_it_sums(cold_store):
    # beta(10) sums column 10, whose recurrence reads only the odd columns below it
    from oddzeta import coeffs

    compute_constant("beta_even(5)", 30)
    assert sorted(coeffs._columns) == [1, 3, 5, 7, 9, 10]


@pytest.mark.parametrize("digits", [30, 57])
def test_tangent_index_is_what_a_constant_reads(cold_store, monkeypatch, digits):
    # a cold list grows to exactly the largest index asked for
    from oddzeta import coeffs, exact
    from oddzeta.oracle import default_battery

    for name in [*default_battery(), "beta_even(5)", "zeta_even(9)"]:
        monkeypatch.setattr(exact, "_tangents", [])
        monkeypatch.setattr(coeffs, "_columns", {})
        compute_constant(name, digits)
        assert len(exact._tangents) == tangent_index(name, digits), name


def test_alt_harmonic_thirty_digits_vs_log_oracle():
    from oddzeta.oracle import reference_ln2

    assert alt_harmonic(30).value.to_decimal() == reference_ln2(30).to_decimal()


def test_eta_to_apery_bridge():
    digits = 20
    eta = eta_odd(1, digits).value.as_fraction()
    ap = apery(digits).value.as_fraction()
    assert abs(eta * Fraction(4, 3) - ap) <= Fraction(3, 10**digits)


def test_eta_zeta_bridge():
    digits = 20
    for k in (1, 2, 3):
        factor = 1 - Fraction(1, 1 << (2 * k))
        z = zeta_odd(k, digits).value.as_fraction()
        e = eta_odd(k, digits).value.as_fraction()
        assert abs(z * factor - e) <= Fraction(3, 10**digits)


def test_bracketing_bounds():
    assert Fraction(91, 100) < catalan(15).value.as_fraction() < Fraction(92, 100)
    assert Fraction(120, 100) < apery(15).value.as_fraction() < Fraction(121, 100)
    for k in range(1, 6):
        value = zeta_odd(k, 15).value.as_fraction()
        assert 1 < value < Fraction(125, 100)


def test_zeta_odd_monotone_decreasing():
    values = [zeta_odd(k, 15).value.as_fraction() for k in range(1, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_provenance_fields():
    c = catalan(15)
    assert c.name == "catalan"
    assert c.method == "pi-power-series"
    assert c.k == 2 and c.terms_used > 0
    z = zeta_even_closed(2, 15)
    assert z.method == "closed-form"
    assert z.k is None and z.terms_used is None


def test_parse_constant_name():
    assert parse_constant_name("catalan") == ("catalan", None)
    assert parse_constant_name("zeta_odd(3)") == ("zeta_odd", 3)
    for bad in ("zeta", "zeta_odd(0)", "zeta_odd(-1)", "beta_even", "catalan(2)", ""):
        with pytest.raises(UnknownConstantError):
            parse_constant_name(bad)


def test_unknown_name_lists_identifier_set():
    with pytest.raises(UnknownConstantError) as excinfo:
        compute_constant("nope", 10)
    message = str(excinfo.value)
    for expected in ("catalan", "apery", "alt_harmonic", "zeta_odd(k)"):
        assert expected in message


def test_compute_constant_dispatch():
    assert compute_constant("catalan", 15).value == catalan(15).value
    assert compute_constant("zeta_even(1)", 15).value == zeta_even_closed(1, 15).value
    assert compute_constant("eta_odd(2)", 15).value == eta_odd(2, 15).value


def test_argument_validation():
    for fn in (beta_even, eta_odd, zeta_odd, zeta_even_closed):
        with pytest.raises(ValueError):
            fn(0, 15)
