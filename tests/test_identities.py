"""Fourier-identity residuals, specializations, and angle handling."""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from exact_reference import (
    ANCHOR_INTERVAL,
    AngleEngine,
    machin_pi,
    midpoint,
    printed_err_ulp,
    sin_cos_enclosure,
    tan_fraction,
)
from oddzeta import identities
from oddzeta.coeffs import d_denominator, denominator_step, e_column
from oddzeta.constants import alt_harmonic, beta_even, eta_odd
from oddzeta.highprec import GUARD_DIGITS, Ball, _divround, _series_terms, compute_pi
from oddzeta.identities import (
    canonical_theta_token,
    check_identity,
    fourier_lhs,
    residual_sweep,
    rhs_eval,
    sweep_to_csv,
    tan_half_residual,
)


def residual_fraction(result):
    return midpoint(result.residual)


def working_theta(theta, digits=30):
    """The angle's ball as the identities read it, at working precision and range-checked."""
    return identities._angle(theta, digits + GUARD_DIGITS)[1]


def test_canonical_theta_tokens():
    assert canonical_theta_token("pi/2") == "pi/2"
    assert canonical_theta_token(" pi/4 ") == "pi/4"
    assert canonical_theta_token("0.5") == "1/2"
    assert canonical_theta_token(0.5) == "1/2"
    assert canonical_theta_token(1.0) == "1"
    assert canonical_theta_token(Fraction(3, 2)) == "3/2"
    for bad in ("pi/1", "pi/3.0", "pi/"):
        with pytest.raises(ValueError, match=r"a pi/<q> angle needs an integer q >= 2"):
            canonical_theta_token(bad)
    for infinite in ("1/0", "2/0", "1/00", float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="not a finite number"):
            canonical_theta_token(infinite)
    with pytest.raises(TypeError):
        canonical_theta_token([1])


def digit_run(group_size=4, max_groups=3):
    """Digits in groups joined by "_", as Fraction and int() read them, or a malformed
    run: an empty group, a stray letter or a doubled, leading or trailing "_"."""
    group = st.text("0123456789", min_size=1, max_size=group_size)
    return st.one_of(
        st.lists(group, min_size=1, max_size=max_groups).map("_".join),
        st.sampled_from(["", "_", "1__2", "_1", "1_", "d", "1d", "x"]),
    )


sign = st.sampled_from(["", "+", "-"])
decimal_angle = st.tuples(
    sign,
    digit_run(),
    st.sampled_from(["", "."]),
    st.one_of(st.just(""), digit_run()),
    st.sampled_from(["", "e", "E", "e+", "e-", "E-"]),
    # at most three exponent digits, below the MAX_THETA_DIGITS ceiling
    st.one_of(st.just(""), digit_run(group_size=1)),
).map("".join)
ratio_angle = st.tuples(sign, digit_run(), st.just("/"), digit_run()).map("".join)
junk_angle = st.text("0123456789_.eE+-/ d", max_size=5)


@given(st.one_of(decimal_angle, ratio_angle, junk_angle))
def test_theta_token_is_the_reduced_fraction(text):
    # read in integers, a string angle gives the token str(Fraction(text)) gives, and is
    # refused with a ValueError naming theta= wherever Fraction refuses it
    try:
        expected = str(Fraction(text.strip().replace(" ", "")))
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None:
        with pytest.raises(ValueError, match="^theta="):
            canonical_theta_token(text)
    else:
        assert canonical_theta_token(text) == expected


def test_theta_token_refuses_a_malformed_angle_by_name():
    for bad in ("", ".", "1.2.3", "1e", "1/2e3", "1/-2", "1__0", "one"):
        with pytest.raises(ValueError, match=rf"^theta={re.escape(bad)} is not a number"):
            canonical_theta_token(bad)


def test_theta_open_interval_enforced():
    for bad in ("0", "-0.5", "3.1415927", "4"):
        with pytest.raises(ValueError):
            working_theta(bad)
    working_theta("3")  # close to pi but inside
    working_theta("pi/2")


@given(st.floats(min_value=3.15, max_value=100, allow_nan=False))
def test_theta_rejects_above_pi(value):
    with pytest.raises(ValueError):
        working_theta(value)


def test_rhs_at_half_pi_matches_beta():
    # the sine identity specialized at pi/2 is exactly the beta-value series
    for k in (1, 2, 3):
        rhs = rhs_eval("S1", k, "pi/2", 80, digits=30)
        beta = beta_even(k, 30).value
        assert abs(midpoint(rhs) - midpoint(beta)) < Fraction(1, 10**28)


def test_rhs_cosine_theta_to_zero_limit():
    # as theta -> 0 the cosine identity's right side tends to eta(2k+1)
    rhs = rhs_eval("S2", 1, Fraction(1, 10**6), 10, digits=20)
    eta = eta_odd(1, 20).value
    assert abs(midpoint(rhs) - midpoint(eta)) < Fraction(1, 10**11)


@pytest.mark.parametrize("d_index", [2, 3, 6, 7])
def test_ladder_terms_equal_method_calls(d_index):
    # the D-sum loop as it ran with one mul_ratio, one addition and one mul per row
    th = Ball((123_456_789_012_345_678_901_234_567 << 100) // 10**27, 1, 100, 27)
    th2 = th.mul(th)
    power = th.pow_int(d_index + 1)
    column = e_column(1, 120)
    den = d_denominator(1, d_index)
    acc = th._replace(mid=0, rad=0)
    terms = []
    for n, num in enumerate(column, 1):
        term = power.mul_ratio(num, den)
        acc = acc + term
        terms.append((term.mid, term.rad))
        power = power.mul(th2)
        den *= denominator_step(n, d_index)
    start = th.pow_int(d_index + 1)
    assert list(_series_terms(start, th2, column, d_denominator(1, d_index), d_index)) == terms
    assert (acc.mid, acc.rad) == tuple(map(sum, zip(*terms)))


def ladder_reference(identity, k, theta, series_terms, digits):
    """:func:`rhs_eval` by ball methods, as it ran on FixedDecimals: one mul_ratio and
    one mul per row on the power, and the eta values from the constants module."""
    th = working_theta(theta, digits)
    th2 = th.mul(th)
    d_index = 2 * k if identity == "S1" else 2 * k + 1
    power, den = th.pow_int(d_index + 1), d_denominator(1, d_index)
    total = th._replace(mid=0, rad=0)
    for n, num in enumerate(e_column(1, series_terms), 1):
        last = power.mul_ratio(num, den)
        total += last
        power = power.mul(th2)
        den *= denominator_step(n, d_index)
    acc = total.mul_ratio((-1) ** k if identity == "S1" else (-1) ** (k + 1), 2)
    a, b = (th.rounded() + 2) ** 2, (compute_pi(th.scale).rounded() - 2) ** 2
    acc = acc._replace(rad=acc.rad + (abs(last.mid) + last.rad) * a // (2 * (b - a)) + 1)
    offset = 1 if identity == "S1" else 0
    for r in range(k + 1 - offset):
        exponent = 2 * (k - r) - offset
        a_val = (eta_odd(r, digits + 6) if r else alt_harmonic(digits + 6)).value
        term = a_val.shift(th.bits).mul(th.pow_int(exponent))
        acc += term.mul_ratio((-1) ** (k - r - offset), factorial(exponent))
    return acc


@pytest.mark.parametrize("theta", ["1/2", "2", "3", "pi/2"])
@pytest.mark.parametrize("identity,k", [("S1", 1), ("S1", 2), ("S2", 1), ("S2", 2)])
def test_rhs_equals_fixed_decimal_ladder(identity, k, theta):
    # the ladder's power of theta, carried as a binary quotient over its denominator,
    # changes no mantissa, and moves the bound by at most one ulp
    for digits, series_terms in ((30, 80), (100, 200), (300, 400)):
        expected = ladder_reference(identity, k, theta, series_terms, digits)
        got = rhs_eval(identity, k, theta, series_terms, digits)
        assert got._replace(rad=0) == expected._replace(rad=0)
        assert abs(got.rad - expected.rad) <= 1


@pytest.mark.parametrize("theta", ["1/2", "pi/2", "pi/3", "3"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("identity", ["S1", "S2"])
def test_check_identity_is_rhs_eval_against_fourier_lhs(monkeypatch, identity, k, theta):
    calls = []
    for name in ("rhs_eval", "fourier_lhs"):
        original = getattr(identities, name)
        monkeypatch.setattr(
            identities, name, lambda *a, name=name, f=original: calls.append(name) or f(*a)
        )
    result = check_identity(identity, k, theta, 1000, 80, digits=30)
    assert calls == ["rhs_eval", "fourier_lhs"]
    lhs = fourier_lhs(identity, k, theta, 1000, 30)
    assert result.residual == abs(lhs - rhs_eval(identity, k, theta, 80, 30))


def test_check_identity_reads_each_angle_once(monkeypatch):
    # a pi/q angle costs one pi for each side's reading of it and one for the ladder's
    # tail bound, all from compute_pi, so a count of 0 would mean pi came from elsewhere;
    # the residual is the one the two sides give
    expected = check_identity("S1", 1, "pi/3", 1000, 80, 30)
    scales = []
    original = identities.compute_pi
    monkeypatch.setattr(
        identities, "compute_pi", lambda scale: scales.append(scale) or original(scale)
    )
    assert check_identity("S1", 1, "pi/3", 1000, 80, 30) == expected
    assert 1 <= len(scales) <= 3


def test_rhs_stability_in_series_terms():
    a = rhs_eval("S1", 2, "1", 60, digits=30)
    b = rhs_eval("S1", 2, "1", 120, digits=30)
    assert abs(midpoint(a) - midpoint(b)) < Fraction(1, 10**20)


def test_top_rhs_builds_each_odd_weight_once(cold_store, monkeypatch):
    # the ladder at the top k sums every odd column up to 121, and each reads the odd
    # weights below it: every one is built once and shared
    from oddzeta import coeffs

    built = []
    weight = coeffs._weight

    def spy(k):
        if k not in coeffs._columns:
            built.append(k)
        return weight(k)

    monkeypatch.setattr(coeffs, "_weight", spy)
    rhs_eval("S1", 61, "1", 80)
    assert sorted(built) == list(range(1, coeffs.MAX_COLUMN_INDEX + 1, 2))


def test_fourier_lhs_stable_under_doubling():
    a = fourier_lhs("S1", 2, "1", 10_000, digits=20)
    b = fourier_lhs("S1", 2, "1", 20_000, digits=20)
    assert abs(midpoint(a) - midpoint(b)) < Fraction(1, 10**10)


def test_fourier_lhs_half_pi_converges_to_catalan():
    lhs = fourier_lhs("S1", 1, "pi/2", 50_000, digits=25)
    cat = beta_even(1, 25).value
    assert abs(midpoint(lhs) - midpoint(cat)) < Fraction(1, 10**8)


def test_fourier_side_judges_the_angle_at_the_working_scale():
    # the Fourier side holds the angle in binary 64 bits finer, where 1e-45 is still
    # far above its unit; at the 40 working digits it is within 1 ulp of 0, as the
    # ladder side finds
    for theta in ("1e-45", "pi/" + str(10**45)):
        for side in (fourier_lhs, rhs_eval):
            with pytest.raises(ValueError, match="raise --digits"):
                side("S1", 1, theta, 100, 30)
    assert fourier_lhs("S1", 1, "1e-20", 100, 30).rounded() > 0


def test_fast_and_general_paths_agree():
    # pi/2 uses exact trig values; a nearby rational angle must land close
    fast = fourier_lhs("S2", 2, "pi/2", 4_000, digits=25)
    near = fourier_lhs("S2", 2, Fraction(15707963267948966, 10**16), 4_000, digits=25)
    assert abs(midpoint(fast) - midpoint(near)) < Fraction(1, 10**14)


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


def test_tan_half_informational_check():
    residual = tan_half_residual("1", 50_000, digits=15)
    assert midpoint(residual) < Fraction(1, 10**3)


def test_residual_record_fields():
    result = check_identity("S2", 1, "pi/2", 2_000, 40, digits=20)
    assert result.identity == "S2"
    assert result.k == 1
    assert result.theta_token == "pi/2"
    assert result.fourier_terms == 2_000
    assert result.series_terms == 40
    theta = working_theta(result.theta_token, 20)
    assert float(midpoint(theta)) == pytest.approx(1.5707963267948966)


def rotation_pair_reference(k, token, counts, scale):
    """The decimal rotation loop, with a sign multiply and two _divround calls per step.

    Yields (count, a_prev, a, b_prev, b, err) at each term count in ``counts``:
    the sine and cosine partial sums to count - 1 and count, and their error
    bound in ulp.
    """
    engine = AngleEngine(token, scale)
    one = 10**scale
    s1, c1, e1 = engine.sin_cos(1)
    s, c = s1, c1
    a = b = a_prev = b_prev = 0
    sign = 1
    for m in range(1, max(counts) + 1):
        a_prev, b_prev = a, b
        p = m ** (2 * k)
        a += sign * (s // p)
        b += sign * (c // (p * m))
        if m in counts:
            yield m, a_prev, a, b_prev, b, 2 * (3 * ANCHOR_INTERVAL + e1 + 4) + m + 8
        if (m + 1) % ANCHOR_INTERVAL == 0:
            s, c, _ = engine.sin_cos(m + 1)
        else:
            s, c = _divround(s * c1 + c * s1, one), _divround(c * c1 - s * s1, one)
        sign = -sign


BOUND_COUNTS = (2, 9_999, 10_000, 10_003, 30_000)


def assert_within_bound_of_rotation_loop(k, token, counts):
    # the rotation loop 15 digits finer is the reference; its own bound is
    # below 10^-9 ulp at the tested scale, and the new bound must be a few ulp
    digits, extra = 20, 15
    scale = digits + GUARD_DIGITS
    ref_ulp = Fraction(1, 10 ** (scale + extra))
    for count, a_prev, a, b_prev, b, err in rotation_pair_reference(
        k, token, counts, scale + extra
    ):
        for identity, reference in (("S1", a_prev + a), ("S2", b_prev + b)):
            lhs = fourier_lhs(identity, k, token, count, digits)
            gap = abs(midpoint(lhs) - reference * ref_ulp / 2)
            assert gap <= Fraction(lhs.rad, 1 << lhs.bits) + (err + 1) * ref_ulp, (identity, count)
            assert printed_err_ulp(lhs) <= 3, (identity, count)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("token", ["1/2", "1", "3", "1/1000000", "314159264/100000000"])
def test_fourier_sum_within_bound_of_rotation_loop(k, token):
    # 10^5 terms, the benchmark's longest generic run, at one angle
    counts = BOUND_COUNTS + (100_000,) if token == "1" else BOUND_COUNTS
    assert_within_bound_of_rotation_loop(k, token, counts)


def test_generic_angle_takes_one_taylor_sin_cos(monkeypatch):
    # the recurrence starts from the exact z_0 and one Taylor z_1, and a
    # rational angle needs no pi
    calls = []
    for name, tag in (("_sin_cos", "sin_cos"), ("compute_pi", "pi"), ("_chudnovsky", "pi")):
        original = getattr(identities, name)
        spy = lambda *a, t=tag, f=original: calls.append(t) or f(*a)  # noqa: E731
        monkeypatch.setattr(identities, name, spy)
    for identity in ("S1", "S2"):
        fourier_lhs(identity, 1, "1", 25_000, digits=20)
    assert calls == ["sin_cos"] * 2


@pytest.mark.parametrize("digits", [1, 30, 300, 1000])
@pytest.mark.parametrize(
    "token", ["1/2", "1", "3", "1/1000000", "314159264/100000000", "pi/2", "pi/3"]
)
def test_sin_cos_within_its_bound_of_a_rational_enclosure(token, digits):
    # the enclosure is far narrower than 2^-bits, so it must lie inside the bound
    bits = (10 ** (digits + GUARD_DIGITS)).bit_length() + 8
    s, c, err = identities._sin_cos(token, bits)
    assert err <= 1
    if token.startswith("pi/"):
        scale, q = digits + GUARD_DIGITS + 10, int(token[3:])
        pi = machin_pi(scale)  # within a unit of 10^-scale
        angle = (Fraction(pi - 1, q * 10**scale), Fraction(pi + 1, q * 10**scale))
    else:
        angle = (Fraction(token), Fraction(token))
    cos_range, sin_range = sin_cos_enclosure(*angle, bits + 20)
    for value, (lo, hi) in ((s, sin_range), (c, cos_range)):
        assert value - err <= lo * 2**bits and hi * 2**bits <= value + err, (token, value)


def test_generic_angle_past_the_int_to_str_limit():
    # the binary and decimal scales of 4400 digits lie past the 4300-digit
    # default limit on int-to-str conversion
    assert printed_err_ulp(fourier_lhs("S1", 1, "1", 10, 4400)) <= 3
    assert midpoint(tan_half_residual("1", 10, 4400)) < 1


def half_pi_pair_reference(k, fourier_terms, scale):
    """Both raw partial-sum pairs at pi/2 from one loop over every m."""
    one = 10**scale
    a = b = a_prev = b_prev = 0
    for m in range(1, fourier_terms + 1):
        a_prev, b_prev = a, b
        if m & 1:
            t = one // m ** (2 * k)
            a += t if (m - 1) // 2 % 2 == 0 else -t
        else:
            t = one // m ** (2 * k + 1)
            b += -t if m // 2 % 2 == 0 else t
    return a_prev, a, b_prev, b


@pytest.mark.parametrize("terms", [2, 3, 1_000, 1_001, 100_000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_pi_single_sums_equal_pair_halves(k, terms):
    # the pair loop 15 digits finer is the reference; its floors cost it at
    # most terms / 2 of its own ulp, far below one ulp of the sums tested
    digits, extra = 20, 15
    scale = digits + GUARD_DIGITS
    ref_ulp = Fraction(1, 10 ** (scale + extra))
    a_prev, a, b_prev, b = half_pi_pair_reference(k, terms, scale + extra)
    for identity, reference in (("S1", a_prev + a), ("S2", b_prev + b)):
        lhs = fourier_lhs(identity, k, "pi/2", terms, digits)
        gap = abs(midpoint(lhs) - reference * ref_ulp / 2)
        assert gap <= Fraction(lhs.rad, 1 << lhs.bits) + terms * ref_ulp, (identity, terms)
        assert printed_err_ulp(lhs) <= 3, (identity, terms)


def cesaro_reference(token, fourier_terms, scale):
    """The (C, 1) mean of the alternating sine partial sums on the rotation loop, and its bound."""
    engine = AngleEngine(token, scale)
    one = 10**scale
    s1, c1, _ = engine.sin_cos(1)
    s, c = s1, c1
    running = acc = 0
    sign = 1
    for m in range(1, fourier_terms + 1):
        running += sign * s
        acc += running
        if (m + 1) % ANCHOR_INTERVAL == 0:
            s, c, _ = engine.sin_cos(m + 1)
        else:
            s, c = _divround(s * c1 + c * s1, one), _divround(c * c1 - s * s1, one)
        sign = -sign
    err = (2 * min(ANCHOR_INTERVAL, fourier_terms) + 6) * fourier_terms
    return Fraction(acc, fourier_terms * one), Fraction(err + 1, one)


def test_tan_half_residual_within_bound_of_rotation_loop():
    token, terms, digits = "1", 10_003, 15
    scale = digits + GUARD_DIGITS
    mean, bound = cesaro_reference(token, terms, scale + 15)
    reference = abs(mean - tan_fraction(Fraction(1, 2)) / 2)
    residual = tan_half_residual(token, terms, digits)
    gap = abs(midpoint(residual) - reference)
    assert gap <= Fraction(residual.rad, 1 << residual.bits) + bound


def test_sweep_csv_format():
    rows = residual_sweep(
        ks=(1,), thetas=("1", "pi/2"), fourier_terms_for_k=lambda k: 500, series_terms=40, digits=15
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
    with pytest.raises(ValueError, match="k must be >= 1"):
        rhs_eval("S1", 0, "1", 20)
    # with k and the angle both bad, the ladder names k before it reads the angle
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_identity("S1", 0, "4", 100, 20)
    with pytest.raises(ValueError):
        tan_half_residual("1", 1)


def plan_for(exponent, token, terms, scale):
    """:func:`identities._abel_plan` at the angle the token names, read as fourier_lhs reads it."""
    theta = float(midpoint(working_theta(token, scale - GUARD_DIGITS)))
    return identities._abel_plan(exponent, theta, token == "pi/2", terms, scale)


def assert_kernel_within_bounds_of_direct_loop(exponent, token, terms, scale, plan):
    # both triples are twice the smoothed sum over their unit, with an error bound
    twice, unit, err = identities._abel_sum(exponent, token, terms, scale, *plan)
    if token == "pi/2":
        d_twice, d_unit, d_err = identities._half_pi_sum(exponent, terms, scale)
    else:
        d_twice, d_unit, d_err = identities._generic_sum(exponent, token, terms, scale)
    gap = abs(Fraction(twice, unit) - Fraction(d_twice, d_unit))
    assert gap <= Fraction(err, unit) + Fraction(d_err, d_unit), (exponent, token, terms)
    # the bound fourier_lhs prints: err converted to the output scale, plus its rounding
    assert -(-err * 10**scale // unit) + 1 <= 3, (exponent, token, terms)


@pytest.mark.parametrize("token", ["1", "29/10", "3", "pi/2"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_abel_kernel_within_bounds_of_direct_loop(k, token):
    # the kernel called directly with the order, cut and guard planned for 10^5 terms,
    # from M = p + 1, where nothing is cut, to 10^5; at 29/10 and 3, |c| > 1
    scale = 20 + GUARD_DIGITS
    for exponent in (2 * k, 2 * k + 1):
        plan = plan_for(exponent, token, 100_000, scale)
        p, cut, _ = plan
        for terms in (p + 1, p + 2, cut + p - 1, cut + p, cut + p + 1, 3 * cut, 100_000):
            assert_kernel_within_bounds_of_direct_loop(exponent, token, terms, scale, plan)


@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=3, max_denominator=10**6),
    st.integers(1, 3),
    st.booleans(),
    st.integers(2, 3000),
    st.sampled_from([1, 20]),
)
def test_abel_kernel_within_bounds_at_rational_angles(theta, k, sine, terms, digits):
    exponent = 2 * k if sine else 2 * k + 1
    scale = digits + GUARD_DIGITS
    token = canonical_theta_token(theta)
    plan = plan_for(exponent, token, 100_000, scale)
    if plan[0] < terms:
        assert_kernel_within_bounds_of_direct_loop(exponent, token, terms, scale, plan)


def test_abel_kernel_refuses_a_cut_its_certificate_rejects():
    # p = 10 cut at 100 leaves a tail bound near 10^-18, far above the 10^-30 allowed
    scale = 20 + GUARD_DIGITS
    with pytest.raises(ArithmeticError, match="tail above the guard"):
        identities._abel_sum(2, "1", 100_000, scale, 10, 100, 30)
    p, cut, guard = plan_for(2, "1", 100_000, scale)
    with pytest.raises(ArithmeticError, match="tail above the guard"):
        identities._abel_sum(2, "1", 100_000, scale, p, cut // 2, guard)


@pytest.mark.parametrize(
    "token,terms,digits,path",
    [
        ("1", 100_000, 20, "_abel_sum"),
        ("1", 100_000, 1, "_abel_sum"),  # fewer than 64 bits in all
        ("3", 100_000, 20, "_abel_sum"),
        ("pi/2", 100_000, 20, "_abel_sum"),
        ("314159264/100000000", 100_000, 20, "_generic_sum"),  # |c| near 10^4
        ("1", 30, 20, "_generic_sum"),  # M <= p
        ("pi/2", 30, 20, "_half_pi_sum"),
    ],
)
def test_fourier_side_picks_the_cheaper_path(monkeypatch, token, terms, digits, path):
    calls = []
    for name in ("_abel_sum", "_generic_sum", "_half_pi_sum"):
        original = getattr(identities, name)
        monkeypatch.setattr(
            identities, name, lambda *a, name=name, f=original: calls.append(name) or f(*a)
        )
    assert printed_err_ulp(fourier_lhs("S1", 1, token, terms, digits)) <= 3
    assert calls == [path]
