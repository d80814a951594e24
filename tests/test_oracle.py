"""Oracle self-consistency, closed-form anchors, and the verify harness."""

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from exact_reference import (
    accelerated_alternating_fractions,
    bounds,
    midpoint,
    printed_err_ulp,
    round_div,
)
from oddzeta import oracle as oracle_module
from oddzeta.cli import DIGITS_CEILING
from oddzeta.constants import compute_constant, parse_constant_name
from oddzeta.errors import ResourceLimitError, UnknownConstantError
from oddzeta.highprec import Ball
from oddzeta.oracle import (
    MAX_ACCELERATION_DEPTH,
    VERIFY_EXTRA_DIGITS,
    accelerated_alternating,
    acceleration_depth,
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
    exact_lo, exact_hi = (b * b / 12 for b in bounds(p))
    lo, hi = bounds(eta2)
    assert lo <= exact_hi and exact_lo <= hi
    assert eta2.to_decimal() == "0.822467033424113218236207583323"


def test_closed_form_anchor_beta_three():
    # beta(3) = pi^3 / 32
    digits = 30
    beta3 = reference_beta(3, digits)
    p = reference_pi(digits + 5)
    exact_lo, exact_hi = (b**3 / 32 for b in bounds(p))
    lo, hi = bounds(beta3)
    assert lo <= exact_hi and exact_lo <= hi


def test_reference_pi_digits():
    assert reference_pi(30).to_decimal() == "3.141592653589793238462643383280"


@pytest.mark.parametrize(
    "fn,arg",
    [(reference_eta, 3), (reference_eta, 5), (reference_beta, 2), (reference_beta, 4)],
)
def test_acceleration_depth_doubling_stability(fn, arg):
    digits = 30
    stride = 1 if fn is reference_eta else 2
    deeper = accelerated_alternating(stride, arg, 2 * acceleration_depth(digits + 3), digits)
    assert fn(arg, digits).to_decimal() == deeper.to_decimal()


def rounded(value, bound, digits):
    """(mantissa, err_ulp): ``value`` rounded half up at ``digits``, and ``bound`` in ulp
    plus half an ulp, the error of the rounded value taken up to the next integer."""
    unit = 10**digits
    mantissa = round_div(value.numerator * unit, value.denominator)
    return mantissa, math.ceil(bound * unit + Fraction(1, 2))


def exact_rounding(stride, s, depth, digits, factor=(1, 1)):
    """The fraction loop's accelerated sum, times ``factor``, rounded at ``digits``."""
    value, bound = accelerated_alternating_fractions(lambda j: (1, (1 + stride * j) ** s), depth)
    return rounded(value * Fraction(*factor), bound * Fraction(*factor), digits)


def test_accelerated_alternating_bound_is_sound():
    # eta(2) has the independent closed form pi^2/12 to pin the truth; the value is
    # within half an ulp of the mantissa, so the mantissa's distance to the truth plus
    # that half ulp must stay below the loop's bound 4 term(0) / d
    digits = 40
    value = accelerated_alternating(1, 2, 25, digits)
    _, bound = accelerated_alternating_fractions(lambda j: (1, (j + 1) ** 2), 25)
    p = reference_pi(40)
    truth = midpoint(p) ** 2 / 12
    assert abs(Fraction(value.rounded(), 10**digits) - truth) + Fraction(1, 2 * 10**digits) < bound


def test_doubled_chebyshev_equals_the_recurrence():
    # d_depth = T_depth(3) by doubling, against depth - 1 steps of d' = 6 d - d_prev
    d_prev, d = 1, 3
    for depth in range(2, 2001):
        d_prev, d = d, 6 * d - d_prev
        assert oracle_module._chebyshev_at_3(depth) == d


# stride of the eta and beta sums, 1/(1 + stride j)^s
ALTERNATING_FAMILIES = {"eta": 1, "beta": 2}


def assert_rounds_or_encloses(value, bound, stride, s, depth, digits, factor=(1, 1)):
    """``accelerated_alternating`` against the fraction loop's ``value`` and ``bound``.

    At every depth the returned ball holds the loop's value widened by the acceleration's
    own error ``bound``; at the oracle's own depth for ``digits`` it prints the loop's
    rounding, with the loop's error bound.
    """
    got = accelerated_alternating(stride, s, depth, digits, factor)
    value, bound = value * Fraction(*factor), bound * Fraction(*factor)
    lo, hi = bounds(got)
    assert lo <= value - bound and value + bound <= hi
    if depth >= acceleration_depth(digits + 3):
        assert (got.rounded(), printed_err_ulp(got)) == rounded(value, bound, digits)


@pytest.mark.parametrize("depth", [2, 3, 10, 50, 277, 600])
@pytest.mark.parametrize("family", sorted(ALTERNATING_FAMILIES))
def test_integer_weights_equal_fraction_loop(family, depth):
    stride = ALTERNATING_FAMILIES[family]
    for s in range(1, 9):
        value, bound = accelerated_alternating_fractions(
            lambda j: (1, (1 + stride * j) ** s), depth
        )
        for digits in (1, 12, 60, 250):
            assert_rounds_or_encloses(value, bound, stride, s, depth, digits)


@st.composite
def digits_and_depth(draw):
    digits = draw(st.integers(min_value=1, max_value=80))
    return digits, draw(st.integers(min_value=2, max_value=acceleration_depth(digits + 3) + 30))


@given(
    st.sampled_from(sorted(ALTERNATING_FAMILIES)),
    st.integers(min_value=1, max_value=9),
    digits_and_depth(),
    st.booleans(),
)
@example("eta", 3, (40, 5), False).via("d_5 2^64 < 10^40: the enclosure spans many ulp")
def test_accelerated_alternating_equals_exact_rounding(family, s, digits_depth, zeta):
    digits, depth = digits_depth
    f = 1 << (s - 1)
    factor = (f, f - 1) if zeta and s > 1 else (1, 1)
    stride = ALTERNATING_FAMILIES[family]
    value, bound = accelerated_alternating_fractions(lambda j: (1, (1 + stride * j) ** s), depth)
    assert_rounds_or_encloses(value, bound, stride, s, depth, digits, factor)


# stride, s and whether the zeta factor applies, by base name and parameter k
REFERENCE_SUMS = {
    "alt_harmonic": lambda k: (1, 1, False),
    "catalan": lambda k: (2, 2, False),
    "apery": lambda k: (1, 3, True),
    "beta_even": lambda k: (2, 2 * k, False),
    "eta_odd": lambda k: (1, 2 * k + 1, False),
    "zeta_odd": lambda k: (1, 2 * k + 1, True),
    "zeta_even": lambda k: (1, 2 * k, True),
}


def test_reference_strings_equal_fraction_loop():
    # every reference as the fraction loop rounds it, at the depth the oracle picks
    levels = (1, 2, 3, 4, 5, 8, 12, 17, 32, 42, 102, 202)
    for name in default_battery() + ["eta_odd(5)", "beta_even(7)", "zeta_even(8)"]:
        base, k = parse_constant_name(name)
        stride, s, zeta = REFERENCE_SUMS[base](k)
        factor = (1 << (s - 1), (1 << (s - 1)) - 1) if zeta else (1, 1)
        for digits in levels:
            expected = exact_rounding(stride, s, acceleration_depth(digits + 3), digits, factor)
            reference = reference_for(name, digits)
            assert (reference.rounded(), printed_err_ulp(reference)) == expected, (name, digits)


def test_acceleration_makes_constant_fractions(monkeypatch):
    made = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    counts = []
    # a shallow enclosure, many ulp wide, and a deep one
    for depth, digits in ((10, 60), (600, 100)):
        monkeypatch.setattr(Fraction, "__new__", spy)
        accelerated_alternating(1, 3, depth, digits)
        monkeypatch.undo()
        counts.append(len(made))
        made.clear()
    assert counts == [0, 0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: reference_eta(0, 30),
        lambda: reference_beta(1, 30),
        lambda: reference_zeta_odd(0, 30),
        lambda: reference_zeta_even(0, 30),
        lambda: accelerated_alternating(1, 2, 1, 30),
    ],
    ids=["eta_0", "beta_1", "zeta_odd_0", "zeta_even_0", "depth_1"],
)
def test_references_refuse_arguments_outside_their_series(call):
    with pytest.raises(ValueError):
        call()


def test_depth_ceiling_refused_before_the_weights():
    # depth 40 506 is past the 40 000 ceiling; the refusal must come before any weight
    assert acceleration_depth(31_003) == 40_506 > MAX_ACCELERATION_DEPTH
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        reference_eta(3, 31_000)
    assert time.perf_counter() - start < 1.0
    # the CLI's 1000-digit ceiling, verified two digits past, stays well inside it
    assert acceleration_depth(DIGITS_CEILING + VERIFY_EXTRA_DIGITS + 3) < MAX_ACCELERATION_DEPTH


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
    assert abs(midpoint(z2) - midpoint(p) ** 2 / 6) < Fraction(1, 10**29)
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


def matched_digit_count_loop(computed, reference):
    """:func:`matched_digit_count` as a character loop over the window, as it ran before
    it took os.path.commonprefix."""
    if (computed.startswith("-")) != (reference.startswith("-")):
        return 0
    c_int, _, c_frac = computed.lstrip("-").partition(".")
    r_int, _, r_frac = reference.lstrip("-").partition(".")
    if c_int != r_int:
        return 0
    window = min(len(c_frac), len(r_frac) - 1)
    count = 0
    while count < window and c_frac[count] == r_frac[count]:
        count += 1
    return count


_DECIMALS = st.builds(
    lambda sign, whole, frac: sign + whole + ("" if frac is None else "." + frac),
    st.sampled_from(["", "-"]),
    st.sampled_from(["0", "1", "12"]),
    st.none() | st.text("0123456789", max_size=14),
)


@given(_DECIMALS, _DECIMALS, st.integers(0, 18))
@example("0.12345", "0.12345", 0)  # the reference's last digit is outside the window
@example("-0.5", "0.5", 0)  # signs differ
@example("1.234", "0.234", 0)  # integer parts differ
@example("0.123", "0.1234", 0)  # the computed string is the shorter
@example("5", "5.1", 0)  # no computed fraction
@example("5.1", "5", 0)  # no reference fraction
@example("-0.", "-0.", 0)  # empty fractions
def test_matched_digit_count_equals_character_loop(computed, other, shared):
    # the reference shares the computed string's first characters, so long matches occur
    for reference in (other, computed[:shared] + other[shared:]):
        for pair in ((computed, reference), (reference, computed)):
            assert matched_digit_count(*pair) == matched_digit_count_loop(*pair)


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
    fake = Ball(1, 0, 1, 1)  # deliberately wrong reference (0.5)
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
        (closed_lo, closed_hi), (direct_lo, direct_hi) = (
            bounds(zeta_even_closed(n, 25).value),
            bounds(reference_zeta_even(n, 25)),
        )
        assert closed_lo <= direct_hi and direct_lo <= closed_hi


@given(st.integers(min_value=1, max_value=200), st.sampled_from(default_battery()))
def test_constant_equals_oracle_rounded(digits, name):
    # the oracle at digits + 5, rounded to digits, lies within 1/2 ulp plus 10^-5 of its
    # own bound of the true value, so a mantissa distance above the printed bound is a
    # wrong result
    value = compute_constant(name, digits).value
    expected = reference_for(name, digits + 5)._replace(scale=digits)
    assert value.scale == digits
    assert abs(value.rounded() - expected.rounded()) <= printed_err_ulp(value)
