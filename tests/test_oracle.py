"""Oracle self-consistency, closed-form anchors, and the verify harness."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exact_reference import accelerated_alternating_fractions
from oddzeta import oracle as oracle_module
from oddzeta.constants import compute_constant
from oddzeta.errors import UnknownConstantError
from oddzeta.highprec import FixedDecimal
from oddzeta.oracle import (
    accelerated_alternating,
    default_battery,
    matched_digit_count,
    reference_beta,
    reference_eta,
    reference_for,
    reference_ln2,
    reference_pi,
    reference_zeta_even,
    reference_zeta_odd,
    verify,
)


def test_eta_one_equals_log_series():
    assert reference_eta(1, 30).to_decimal() == reference_ln2(30).to_decimal()
    assert reference_ln2(15).to_decimal() == "0.693147180559945"


def test_closed_form_anchor_eta_two():
    # eta(2) = pi^2 / 12, with pi from the transformed-arctangent series
    digits = 30
    eta2 = reference_eta(2, digits)
    p = reference_pi(digits + 5)
    exact_lo, exact_hi = (b * b / 12 for b in p.bounds())
    lo, hi = eta2.bounds()
    assert lo <= exact_hi and exact_lo <= hi
    assert eta2.to_decimal() == "0.822467033424113218236207583323"


def test_closed_form_anchor_beta_three():
    # beta(3) = pi^3 / 32
    digits = 30
    beta3 = reference_beta(3, digits)
    p = reference_pi(digits + 5)
    exact_lo, exact_hi = (b**3 / 32 for b in p.bounds())
    lo, hi = beta3.bounds()
    assert lo <= exact_hi and exact_lo <= hi


def test_reference_pi_digits():
    assert reference_pi(30).to_decimal() == "3.141592653589793238462643383280"


@pytest.mark.parametrize(
    "fn,arg",
    [(reference_eta, 3), (reference_eta, 5), (reference_beta, 2), (reference_beta, 4)],
)
def test_acceleration_depth_doubling_stability(fn, arg):
    from oddzeta.oracle import acceleration_depth

    digits = 30
    base = fn(arg, digits)
    deeper = fn(arg, digits, extra_depth=acceleration_depth(digits + 3))
    assert base.to_decimal() == deeper.to_decimal()


def test_accelerated_alternating_bound_is_sound():
    # eta(2) has the independent closed form pi^2/12 to pin the truth
    pairs = accelerated_alternating(lambda j: (1, (j + 1) ** 2), 25)
    value, bound = (Fraction(*pair) for pair in pairs)
    p = reference_pi(40)
    truth = p.as_fraction() ** 2 / 12
    assert abs(value - truth) < bound


ALTERNATING_FAMILIES = {
    "eta": lambda s: lambda j: (1, (j + 1) ** s),
    "beta": lambda s: lambda j: (1, (2 * j + 1) ** s),
}


@pytest.mark.parametrize("depth", [2, 3, 10, 50, 277, 600])
@pytest.mark.parametrize("family", sorted(ALTERNATING_FAMILIES))
def test_integer_weights_equal_fraction_loop(family, depth):
    for s in range(1, 9):
        term = ALTERNATING_FAMILIES[family](s)
        value, bound = accelerated_alternating(term, depth)
        assert (Fraction(*value), Fraction(*bound)) == accelerated_alternating_fractions(
            term, depth
        )


def test_reference_strings_equal_fraction_loop(monkeypatch):
    levels = (1, 2, 3, 4, 5, 8, 12, 17, 32, 42, 102, 202)
    points = [(name, digits) for name in default_battery() for digits in levels]
    now = [reference_for(name, digits) for name, digits in points]

    def fraction_loop(term, depth):
        # the independent loop's reduced value and bound, handed over as pairs
        return tuple(q.as_integer_ratio() for q in accelerated_alternating_fractions(term, depth))

    monkeypatch.setattr(oracle_module, "accelerated_alternating", fraction_loop)
    assert now == [reference_for(name, digits) for name, digits in points]


def test_acceleration_makes_constant_fractions(monkeypatch):
    made = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    counts = []
    for depth in (10, 600):
        terms = [(1, (j + 1) ** 3) for j in range(depth)]
        monkeypatch.setattr(Fraction, "__new__", spy)
        accelerated_alternating(terms.__getitem__, depth)
        monkeypatch.undo()
        counts.append(len(made))
        made.clear()
    assert counts == [0, 0]


@pytest.mark.parametrize("fn,arg", [(reference_eta, 3), (reference_beta, 2), (reference_zeta_even, 1)])
def test_references_make_no_fraction_per_term(monkeypatch, fn, arg):
    made = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    counts = []
    for digits in (10, 300):
        monkeypatch.setattr(Fraction, "__new__", spy)
        fn(arg, digits)
        monkeypatch.undo()
        counts.append(len(made))
        made.clear()
    assert counts[0] == counts[1]


def test_reference_zeta_even_against_closed_form():
    # zeta(2) = pi^2/6: the accelerated eta(2) sum must land on the same digits
    z2 = reference_zeta_even(1, 30)
    p = reference_pi(40)
    assert abs(z2.as_fraction() - p.as_fraction() ** 2 / 6) < Fraction(1, 10**29)
    assert reference_zeta_even(3, 15).to_decimal() == "1.017343061984449"


def test_reference_zeta_odd_values():
    assert reference_zeta_odd(1, 15).to_decimal() == "1.202056903159594"
    assert reference_zeta_odd(2, 15).to_decimal() == "1.036927755143370"


def test_reference_for_dispatch():
    assert reference_for("catalan", 15).to_decimal() == "0.915965594177219"
    assert reference_for("beta_even(2)", 15).to_decimal() == "0.988944551741105"
    assert reference_for("eta_odd(1)", 15).to_decimal() == "0.901542677369696"
    assert reference_for("alt_harmonic", 15).to_decimal() == "0.693147180559945"
    assert reference_for("zeta_even(1)", 15).to_decimal() == "1.644934066848226"
    with pytest.raises(UnknownConstantError):
        reference_for("nope", 15)


def test_matched_digit_count_cases():
    assert matched_digit_count("0.12345", "0.12345") == 4  # final digit excluded
    assert matched_digit_count("0.123456", "0.12345") == 4
    assert matched_digit_count("0.12399", "0.12345") == 3
    assert matched_digit_count("1.234", "0.234") == 0
    assert matched_digit_count("-0.5", "0.5") == 0
    assert matched_digit_count("2.000", "2.001") == 2
    assert matched_digit_count("5", "5") == 0


def test_verify_report_fields_and_json():
    report = verify("catalan", 12)
    assert report.matched_digits >= 12
    assert report.terms_used > 0
    assert report.computed.startswith("0.915965594177")
    doc = report.to_json_dict()
    assert set(doc) == {
        "name",
        "computed",
        "reference",
        "matched_digits",
        "terms_used",
        "elapsed_ms",
    }
    json.dumps(doc)


def test_verify_never_raises_on_mismatch(monkeypatch):
    fake = FixedDecimal(5, 1, 0)  # deliberately wrong reference (0.5)
    monkeypatch.setattr(oracle_module, "reference_for", lambda name, digits: fake)
    report = oracle_module.verify("catalan", 10)
    assert report.matched_digits == 0


def test_default_battery_sorted_and_supported():
    battery = default_battery()
    assert battery == sorted(battery)
    for name in battery:
        reference_for(name, 5)


def test_zeta_even_series_matches_bernoulli_form():
    # the production zeta(2n) is the Bernoulli closed form, evaluated from column 1's
    # N_n(1) = 2 T_n; the accelerated eta(2n) sum shares neither and must agree
    from oddzeta.constants import zeta_even_closed

    for n in (1, 2, 3):
        closed = zeta_even_closed(n, 25).value
        direct = reference_zeta_even(n, 25)
        assert abs(closed.mantissa - direct.mantissa) <= closed.err_ulp + direct.err_ulp


@given(st.integers(min_value=1, max_value=200), st.sampled_from(default_battery()))
def test_constant_equals_oracle_rounded(digits, name):
    # the oracle at digits + 5, rounded to digits, lies within 1/2 ulp plus 10^-5 of its
    # own bound of the true value, so a mantissa distance above err_ulp is a wrong result
    value = compute_constant(name, digits).value
    expected = reference_for(name, digits + 5).rescale(digits)
    assert value.scale == digits
    assert abs(value.mantissa - expected.mantissa) <= value.err_ulp
