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
    zeta_even_closed,
    zeta_odd,
)
from exact_reference import bounds, midpoint
from oddzeta.errors import UnknownConstantError
from oddzeta.highprec import Ball, sum_series


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
    lo, hi = bounds(zeta_even_closed(1, 30).value)
    exact_lo, exact_hi = (b * b / 6 for b in bounds(p))
    assert lo <= exact_hi and exact_lo <= hi


@pytest.mark.parametrize("digits", [1, 30, 301])
def test_zeta_even_closed_equals_bernoulli_fraction_form(digits):
    # the multiplier read from column 1 is the Bernoulli one, so every integer agrees
    from math import factorial

    from oddzeta.exact import bernoulli
    from oddzeta.highprec import GUARD_DIGITS, compute_pi

    for n in range(1, 41):
        rational = bernoulli(2 * n) * (-1) ** (n + 1) * (1 << (2 * n - 1)) / factorial(2 * n)
        power = compute_pi(digits + GUARD_DIGITS).pow_int(2 * n)
        expected = power.mul_ratio(rational.numerator, rational.denominator)._replace(scale=digits)
        assert zeta_even_closed(n, digits).value == expected, n


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
    assert Ball(7, 0, 4, 2) == Ball(mid=7, rad=0, bits=4, scale=2)
    assert hash(Ball(7, 0, 4, 2)) == hash(Ball(mid=7, rad=0, bits=4, scale=2))
    assert repr(Ball(7, 0, 4, 2)) == "Ball(mid=7, rad=0, bits=4, scale=2)"


def test_constant_builds_only_the_columns_it_sums(cold_store):
    # beta(10) sums column 10, the only one whose rows are built; the odd columns below it
    # store only the weights that column 10's weight reads
    from oddzeta import coeffs

    compute_constant("beta_even(5)", 30)
    assert sorted(coeffs._columns) == [1, 3, 5, 7, 9, 10]
    assert [k for k, (column, _) in coeffs._columns.items() if column] == [10]


def test_alt_harmonic_thirty_digits_vs_log_oracle():
    from oddzeta.oracle import reference_ln2

    assert alt_harmonic(30).value.to_decimal() == reference_ln2(30).to_decimal()


def test_eta_to_apery_bridge():
    digits = 20
    eta = midpoint(eta_odd(1, digits).value)
    ap = midpoint(apery(digits).value)
    assert abs(eta * Fraction(4, 3) - ap) <= Fraction(3, 10**digits)


def test_eta_zeta_bridge():
    digits = 20
    for k in (1, 2, 3):
        factor = 1 - Fraction(1, 1 << (2 * k))
        z = midpoint(zeta_odd(k, digits).value)
        e = midpoint(eta_odd(k, digits).value)
        assert abs(z * factor - e) <= Fraction(3, 10**digits)


def test_bracketing_bounds():
    assert Fraction(91, 100) < midpoint(catalan(15).value) < Fraction(92, 100)
    assert Fraction(120, 100) < midpoint(apery(15).value) < Fraction(121, 100)
    for k in range(1, 6):
        value = midpoint(zeta_odd(k, 15).value)
        assert 1 < value < Fraction(125, 100)


def test_zeta_odd_monotone_decreasing():
    values = [midpoint(zeta_odd(k, 15).value) for k in range(1, 7)]
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
    assert parse_constant_name("zeta_odd(02)") == ("zeta_odd", 2)
    # a trailing newline, and digits outside ASCII, are not the identifier's digits
    bad_forms = ("zeta_odd(2)\n", "catalan\n", "zeta_odd(\u0663)", "zeta_odd(\u00b2)", "zeta_odd(2")
    for bad in ("zeta", "zeta_odd(0)", "zeta_odd(-1)", "beta_even", "catalan(2)", "", *bad_forms):
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
