"""Binary ball soundness, pi, and the series summation engine."""

import sys
from fractions import Fraction
from itertools import count, takewhile
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from exact_reference import bounds, machin_pi, midpoint, printed_err_ulp, tan_number
from oddzeta import highprec
from oddzeta.coeffs import denominator_step, e_column, e_denominator, row_moments
from oddzeta.constants import compute_constant
from oddzeta.errors import ResourceLimitError
from oddzeta.highprec import (
    GUARD_DIGITS,
    Ball,
    compute_pi,
    half_pi,
    sum_series,
    term_ratio_sequence,
)
from oddzeta.oracle import default_battery, reference_for

mids = st.integers(min_value=-(10**25), max_value=10**25)
bit_counts = st.integers(min_value=1, max_value=90)
rads = st.integers(min_value=0, max_value=1000)


def enclosure_contains(ball: Ball, exact: Fraction) -> bool:
    lo, hi = bounds(ball)
    return lo <= exact <= hi


@given(mids, rads, mids, rads, bit_counts)
def test_add_sub_mul_enclosures(ma, ra, mb, rb, bits):
    a, b = Ball(ma, ra, bits, 0), Ball(mb, rb, bits, 0)
    for exact_a in (*bounds(a), midpoint(a)):
        for exact_b in bounds(b):
            assert enclosure_contains(a + b, exact_a + exact_b)
            assert enclosure_contains(a - b, exact_a - exact_b)
            assert enclosure_contains(a.mul(b), exact_a * exact_b)
        assert enclosure_contains(abs(a), abs(exact_a))


def test_operands_at_different_bits_are_refused():
    a, b = Ball(3, 1, 10, 2), Ball(3, 1, 11, 2)
    for operation in (lambda: a + b, lambda: a - b, lambda: a.mul(b)):
        with pytest.raises(ValueError, match="shift one first"):
            operation()


@given(mids, rads, bit_counts, st.integers(min_value=1, max_value=120))
def test_rescale_enclosure(m, r, bits, target):
    # shift is the binary rescale: exact to more bits, rounded to fewer
    ball = Ball(m, r, bits, 0)
    for exact in bounds(ball):
        assert enclosure_contains(ball.shift(target), exact)


@given(
    mids,
    rads,
    bit_counts,
    st.fractions(
        min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
    ),
    st.integers(min_value=1, max_value=10**6),
)
def test_mul_ratio_enclosure(m, r, bits, q, c):
    # a signed ratio handed over unreduced, as the callers do
    ball = Ball(m, r, bits, 0)
    product = ball.mul_ratio(q.numerator * c, q.denominator * c)
    for exact in bounds(ball):
        assert enclosure_contains(product, exact * q)


def printed(value, scale: int) -> Ball:
    """A ball of radius 0 whose midpoint is ``value`` to 2^-64, printed at ``scale``."""
    return Ball(round(Fraction(value) * 2**64), 0, 64, scale)


def test_decimal_rendering():
    assert printed(Fraction(1234, 1000), 3).to_decimal() == "1.234"
    assert printed(Fraction(-1234, 1000), 3).to_decimal() == "-1.234"
    assert printed(Fraction(7, 1000), 3).to_decimal() == "0.007"
    assert printed(5, 0).to_decimal() == "5"
    # the one rounding, to nearest with ties toward +infinity
    assert Ball(3, 0, 1, 0).to_decimal() == "2"
    assert Ball(-3, 0, 1, 0).to_decimal() == "-1"
    assert printed(Fraction(2, 3), 4).to_decimal() == "0.6667"


def test_sci_rendering():
    assert printed(Fraction(123456789, 10**12), 12).to_sci(4) == "1.235e-4"
    assert printed(Fraction(-5, 10**8), 8).to_sci(3) == "-5e-8"
    assert printed(0, 8).to_sci() == "0e+0"
    assert printed(Fraction(999999999, 10**4), 4).to_sci(3) == "1e+5"


def test_star_is_refused_in_favour_of_mul_and_mul_ratio():
    # a tuple would otherwise repeat itself: Ball(15, 0, 4, 1) * 2 is an 8-tuple
    ball = Ball(15, 0, 4, 1)
    for product in (lambda: ball * 2, lambda: 2 * ball, lambda: ball * ball):
        with pytest.raises(TypeError, match=r"\bmul\b.*\bmul_ratio\b"):
            product()


def test_pow_int():
    x = Ball(3 << 63, 1, 64, 0)  # 3/2
    assert enclosure_contains(x.pow_int(5), Fraction(243, 32))
    assert midpoint(x.pow_int(0)) == 1


def test_pi_coarse_bracket():
    p = compute_pi(1)
    assert p.to_decimal() == "3.1"
    assert printed_err_ulp(p) <= 1


def test_pi_bound_breach_raises(monkeypatch):
    from oddzeta import highprec

    monkeypatch.setattr(highprec, "_chudnovsky", lambda bits: (0, 1 << bits))
    with pytest.raises(ArithmeticError):
        compute_pi(5)


def test_pi_equals_machin_at_every_digit_count():
    # the Chudnovsky sum rounds to the same mantissa as Machin's arctangents
    for digits in range(1, 1101):
        pi = compute_pi(digits)
        assert (pi.rounded(), pi.scale) == (machin_pi(digits), digits)
        assert printed_err_ulp(pi) <= 1


def test_pi_twenty_digits():
    assert compute_pi(20).to_decimal() == "3.14159265358979323846"


def test_pi_against_independent_series():
    # the Chudnovsky series vs the transformed arctangent series in the oracle
    from oddzeta.oracle import reference_pi

    assert compute_pi(40).to_decimal() == reference_pi(40).to_decimal()


@given(
    st.integers(min_value=-(10**8), max_value=10**8),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=5),
)
def test_pow_int_enclosure(m, bits, r, exponent):
    ball = Ball(m, r, bits, 0)
    for exact in bounds(ball):
        assert enclosure_contains(ball.pow_int(exponent), exact**exponent)


@pytest.mark.parametrize("digits", [15, 30, 50])
def test_pi_precision_monotone(digits):
    wide = compute_pi(digits)._replace(scale=digits - 5)
    narrow = compute_pi(digits - 5)
    assert abs(wide.rounded() - narrow.rounded()) <= 1


def test_pi_ceiling_refused_before_any_arctangent(monkeypatch):
    monkeypatch.setattr(highprec, "_chudnovsky", None)  # reaching the series fails otherwise
    with pytest.raises(ResourceLimitError):
        compute_pi(highprec.MAX_PI_DIGITS + 1)


def test_half_pi():
    assert half_pi(20).to_decimal() == "1.57079632679489661923"


def test_sum_series_values():
    assert sum_series(1, 15).value.to_decimal() == "0.693147180559945"
    assert sum_series(2, 15).value.to_decimal() == "0.915965594177219"
    assert sum_series(3, 15).value.to_decimal() == "0.901542677369696"


def exact_rows(digits: int) -> int:
    """n0 = B // 8 + 1 for the bits B of pi/2: the last row sum_series reads exactly."""
    return half_pi(digits).bits // 8 + 1


@pytest.mark.parametrize("k", [*range(1, 13), 15, 20, 21, 30])
def test_sum_series_stops_before_its_column_ends(k):
    # the exact column ends at n0 and only the lambda rows test the stop line, so no exact
    # row may reach it: the stop row lies five rows or more past n0, the margin growing
    # with the digits
    margins = [sum_series(k, d).terms_used - exact_rows(d) for d in (1, 10, 30, 57, 100, 300)]
    assert 5 <= min(margins) and margins == sorted(margins) and margins[-1] > 100


def test_every_column_stops_five_rows_past_its_exact_rows():
    for k in range(1, 122):
        for digits in range(1, 11):
            assert sum_series(k, digits).terms_used >= exact_rows(digits) + 5, (k, digits)


def stop_limit(bits: int, work: int) -> int:
    """The largest |midpoint| in units of 2^-bits that rounds to at most 100 units of
    10^-work: sum_series' stop row."""
    return ((201 << bits) - 1) // (2 * 10**work)


def sum_series_reference(k, digits):
    """(printed mantissa, terms_used, lower, upper) of A_k's partial sum, the bounds exact.

    The loop as the package ran it on FixedDecimals, before it summed in binary: row n's
    term is N_n(k) (pi/2)^(2n+k-1) / den_n, and the sum stops at the first row n >= 5 whose
    term rounds to at most 100 units of the working scale w; the column doubles whenever
    the loop reaches its end, so no row count comes from the package.  Here pi/2 and each
    power of it are integer bounds at 2^-bits, 30 digits finer than w and rounded outward,
    from Machin's arctangents; each term's bounds are rounded outward too, so the exact
    partial sum with pi itself lies between the Fractions returned.  The stop test and the
    printed mantissa must come out the same at both ends.
    """
    work = digits + GUARD_DIGITS
    fine = work + 30
    bits = (10**fine).bit_length()
    pi = machin_pi(fine)  # within a unit of 10^-fine
    x_lo, x_hi = ((pi - 1) << bits) // (2 * 10**fine), -(-((pi + 1) << bits) // (2 * 10**fine))
    step_lo, step_hi = x_lo * x_lo >> bits, -(-(x_hi * x_hi) >> bits)
    power_lo, power_hi = x_lo, x_hi
    for _ in range(k):
        power_lo, power_hi = power_lo * x_lo >> bits, -(-(power_hi * x_hi) >> bits)
    den = e_denominator(1, k)
    total_lo = total_hi = 0
    column = []
    for n in count(1):
        if n > len(column):
            column = e_column(k, 2 * n)
        num = column[n - 1]
        low, high = (power_lo, power_hi) if num >= 0 else (power_hi, power_lo)
        lo, hi = num * low // den, -(-(num * high) // den)
        total_lo, total_hi = total_lo + lo, total_hi + hi
        stops = [n >= 5 and 2 * abs(end) * 10**work < 201 << bits for end in (lo, hi)]
        assert stops[0] == stops[1], (k, digits, n)
        if stops[0]:
            break
        power_lo, power_hi = power_lo * step_lo >> bits, -(-(power_hi * step_hi) >> bits)
        den *= denominator_step(n, k)
    lower, upper = Fraction(total_lo, 1 << bits), Fraction(total_hi, 1 << bits)
    mantissas = {round_half_up(end * 10**digits) for end in (lower, upper)}
    assert len(mantissas) == 1, (k, digits)
    return mantissas.pop(), n, lower, upper


def round_half_up(value: Fraction) -> int:
    return (2 * value.numerator + value.denominator) // (2 * value.denominator)


@pytest.mark.parametrize("k", [*range(1, 13), 15, 20, 21, 30])
def test_sum_series_equals_fixed_decimal_loop(k):
    # the same rows and the same printed digits as the exact reference, and the ball holds
    # the reference's exact partial sum
    for digits in (1, 2, 5, 30, 57, 100, 300, *((500,) if k <= 2 else ())):
        result = sum_series(k, digits)
        mantissa, terms_used, lower, upper = sum_series_reference(k, digits)
        assert (result.value.rounded(), result.terms_used) == (mantissa, terms_used)
        lo, hi = bounds(result.value)
        assert lo <= lower <= upper <= hi


@settings(max_examples=12)
@given(st.integers(min_value=1, max_value=121), st.integers(min_value=1, max_value=300))
@example(121, 300)
@example(120, 300)
@example(1, 300)
@example(61, 1)
def test_lambda_rows_equal_the_exact_reference(k, digits):
    # rows past n0 are summed through lambda(2n), not from T_n: the printed digits, the
    # stop row and the enclosure are those of the exact rows summed on FixedDecimals
    result = sum_series(k, digits)
    mantissa, terms_used, lower, upper = sum_series_reference(k, digits)
    assert (result.value.rounded(), result.terms_used) == (mantissa, terms_used)
    assert terms_used > exact_rows(digits)
    lo, hi = bounds(result.value)
    assert lo <= lower <= upper <= hi


def lambda_row_enclosure(n: int, bits: int, digits: int = 80) -> tuple[Fraction, Fraction]:
    """Exact-rational ends around 2^bits lambda(2n) / 4^n, from the reference tangent
    number: T_n / (2n-1)! = 2 4^n lambda(2n) / pi^(2n), with Machin's pi."""
    pi = machin_pi(digits)  # within a unit of 10^-digits
    scale = Fraction(tan_number(n) << bits, 2 * factorial(2 * n - 1) * 16**n)
    return tuple(scale * Fraction(end, 10**digits) ** (2 * n) for end in (pi - 1, pi + 1))


@pytest.mark.parametrize("bits, rad", [(24, 0), (32, 0), (24, 1 << 20)])
def test_lambda_row_bound_holds_on_an_exact_witness(bits, rad):
    # row 1 with prefix 1 +- rad 2^-bits and moment 1 sums 2^bits (2m)^-2 over the odd m
    # below M = 2049 or 32769, one floor each; its bound adds those floors, the tail bound
    # 1 + ceil(M / 2) over the odd m from M on, rad / 2 for the prefix's radius times
    # lambda(2) / 4 < 1/2, and 3 units.  With no radius the tail bound is the largest term
    (mantissa, err), = highprec._lambda_terms(Ball(1 << bits, rad, bits, 0), [(1, 1)], 1, -1)
    m = 1
    while (2 * m) ** 2 <= 1 << bits:
        m += 2
    floors, tail = (m - 1) // 2, 1 + -(-m // 2)
    assert err == floors + tail + (rad >> 1) + 3
    low, high = lambda_row_enclosure(1, bits)
    low, high = low * (1 - Fraction(rad, 1 << bits)), high * (1 + Fraction(rad, 1 << bits))
    assert mantissa - err <= low < high <= mantissa + err
    # each part is needed: the sum falls short of lambda(2) / 4 by more than the floors
    # and M^-2 alone, and the prefix's radius moves the row by more than the rest
    if rad:
        assert mantissa + err - (rad >> 1) < high
    else:
        assert tail > floors and mantissa + err - (tail - 1) < low


def test_lambda_rows_keep_every_odd_m_that_reaches_a_unit():
    # rows 3..21 of 2^40 lambda(2n) / 4^n: each midpoint is the sum of floor(2^40 (2m)^-2n)
    # over every odd m where that is at least 1, and each bound holds the exact value
    bits = 40
    rows = highprec._lambda_terms(Ball(1 << bits, 0, bits, 0), [(1, 1)] * 19, 3, -1)
    assert len(rows) == 19
    for n, (mantissa, err) in enumerate(rows, 3):
        floors = list(takewhile(bool, ((1 << bits) // (2 * m) ** (2 * n) for m in count(1, 2))))
        assert mantissa == sum(floors)
        low, high = lambda_row_enclosure(n, bits)
        assert mantissa - err <= low < high <= mantissa + err


@settings(max_examples=15)
@given(st.integers(min_value=1, max_value=1000), st.sampled_from(default_battery()))
@example(1000, "apery")
@example(1000, "catalan")
@example(1000, "zeta_odd(3)")
@example(1, "alt_harmonic")
def test_lambda_rows_hold_the_oracle_reference(digits, name):
    # past n0 every battery constant is summed through lambda(2n); its ball, tail bound
    # included, holds the oracle's ball taken 20 digits finer
    value = compute_constant(name, digits).value
    lo, hi = bounds(value)
    ref_lo, ref_hi = bounds(reference_for(name, digits + 20))
    assert lo <= ref_lo <= ref_hi <= hi


def test_sum_series_builds_constant_fixed_decimals(monkeypatch):
    # a sum makes a few balls for pi and its powers and one for its value, not one a row
    made = []
    new, make = Ball.__new__, Ball._make

    def spy_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    @classmethod
    def spy_make(cls, iterable):
        made.append(iterable)
        return make(iterable)

    counts = []
    for digits in (30, 200):
        sum_series(3, digits)  # grow the column outside the count
        monkeypatch.setattr(Ball, "__new__", spy_new)
        monkeypatch.setattr(Ball, "_make", spy_make)
        terms = sum_series(3, digits).terms_used
        monkeypatch.undo()
        counts.append(len(made))
        made.clear()
    assert terms > 300
    assert counts[0] == counts[1] < 20


@pytest.mark.parametrize("k", [1, 3])
def test_series_terms_equal_fixed_decimal_loop_at_1000_digits(k):
    # the binary quotient gives every midpoint of the loop that multiplies the ball power
    # row by row, as the sum once did with FixedDecimals, and a bound at most one unit off
    digits = 1000
    column = e_column(k, sum_series(k, digits).terms_used)  # every row to the stop row
    hp = half_pi(digits)
    step, power, den = hp.mul(hp), hp.pow_int(k + 1), e_denominator(1, k)
    expected = []
    for n, num in enumerate(column, 1):
        term = power.mul_ratio(num, den)
        expected.append((term.mid, term.rad))
        power = power.mul(step)
        den *= denominator_step(n, k)
    terms = highprec._series_terms(hp.pow_int(k + 1), step, column, e_denominator(1, k), k)
    assert [m for m, _ in terms] == [m for m, _ in expected]
    assert all(abs(err - want) <= 1 for (_, err), (_, want) in zip(terms, expected))


HALF_PI_SQUARED_100 = 3127802485764025003062641505888  # (pi/2)^2 at 2^-100


@given(
    st.integers(min_value=0, max_value=10**80),
    st.integers(min_value=0, max_value=10**32),
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=-(10**80), max_value=10**80), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=9),
)
@example(10**60 + 1, 2 * 10**30 + 1, 0, [1, 10**80, 10**80], 1, 1)  # an exact power, rounded
# (pi/2)^2 at 100 bits over the first 40 rows of sum_series(1, 20)
@example(HALF_PI_SQUARED_100, HALF_PI_SQUARED_100, 3, e_column(1, 40), e_denominator(1, 1), 1)
def test_series_terms_enclose_the_exact_terms(pm, sm, err, column, den, index):
    # every yielded bound holds for the midpoints of power and step: N_n / den_n up to
    # 10^80 magnifies the power's error in the first rows, and every row carries the
    # power over its denominator as one binary quotient
    assert_terms_enclose(pm, sm, err, column, den, index, 100)


def assert_terms_enclose(pm, sm, err, column, den, index, bits):
    """Every _series_terms bound holds for the midpoints pm, sm of power and step."""
    power, step = Ball(pm, err, bits, 0), Ball(sm, err, bits, 0)
    exact = Fraction(pm)
    terms = highprec._series_terms(power, step, column, den, index)
    for n, (num, (mantissa, err_ulp)) in enumerate(zip(column, terms), 1):
        assert abs(mantissa - exact * Fraction(num, den)) <= err_ulp
        exact *= Fraction(sm, 1 << bits)
        den *= denominator_step(n, index)


@st.composite
def decaying_columns(draw):
    """Up to 70 entries whose bit length falls by -5 to 30 a row, a tenth of them 0, so
    that the quotient is cut short on small terms and some terms grow again after it."""
    top, decay = draw(st.integers(0, 300)), draw(st.integers(-5, 30))
    column = []
    for n in range(draw(st.integers(1, 70))):
        bits = max(0, top - decay * n)
        entry = draw(st.integers(0, (1 << bits) - 1)) if draw(st.integers(0, 9)) else 0
        column.append(entry * draw(st.sampled_from((1, -1))))
    return column


@given(
    st.integers(min_value=0, max_value=10**80),
    st.integers(min_value=0, max_value=10**32),
    st.integers(min_value=0, max_value=3),
    decaying_columns(),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=200),
)
def test_quotient_rows_enclose_the_exact_terms(pm, sm, err, column, den, index, bits):
    # a quotient sized from a small term is still bounded when a larger term follows it
    assert_terms_enclose(pm, sm, err, column, den, index, bits)


def series_rows(call):
    """``call()`` and the (q, qe, f, term bit length) of each row whose term
    _series_terms took while it ran, read from its frame: the quotient q 2^-f with
    bound qe 2^-f that the row's term came from."""
    rows = []
    code = highprec._series_terms.__code__

    def in_frame(frame, event, arg):
        # a new term was appended since the last event; q, qe and f still hold its row's
        names = frame.f_locals
        terms = names.get("terms")
        if terms is not None and len(terms) > len(rows):
            rows.append((names["q"], names["qe"], names["f"], terms[-1][0].bit_length()))
        return in_frame

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_frame if frame.f_code is code else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, rows


@given(
    st.integers(min_value=0, max_value=10**80),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**40),
)
@example(1, 0, 3)  # a power that 3 does not divide, with no error of its own
def test_first_quotient_encloses_the_power_over_the_denominator(pm, pe, den):
    # qe = floor(pe 2^f / den) + 2: each of the two floors loses less than one unit
    _, rows = series_rows(
        lambda: highprec._series_terms(Ball(pm, pe, 64, 20), Ball(1, 0, 64, 20), [1], den, 1)
    )
    q, qe, f, _ = rows[0]
    assert f == den.bit_length() + 64
    assert q - qe <= Fraction((pm - pe) << f, den)
    assert Fraction((pm + pe) << f, den) <= q + qe


def test_series_power_shrinks_with_the_terms():
    result, rows = series_rows(lambda: sum_series(3, 300))
    n0 = exact_rows(300)
    # rows 1..n0 are quotient rows; the rows past n0 are summed through lambda(2n)
    assert len(rows) == n0 == 133 and result.terms_used > 500
    # row 1's quotient is the ball power over den_1, 64 bits past den_1's length
    q, _, f, _ = rows[0]
    den = e_denominator(1, 3)
    assert f == den.bit_length() + 64
    assert q == (half_pi(300).pow_int(4).mid << f) // den
    # each later quotient is cut to 64 bits past the row before's term; once the 2^20 or
    # so units of the power's own error have shrunk with the coefficients (by row 40), its
    # bound stays far below one unit of the term
    for n, ((_, _, _, t_bits), (q, qe, f, next_t_bits)) in enumerate(zip(rows, rows[1:]), 2):
        assert q.bit_length() <= t_bits + 65
        assert n < 40 or qe < 1 << (q.bit_length() - next_t_bits - 32)
    # row n0's quotient is as short as its terms, 2n0 bits or so shorter than row 1's, and
    # it is the ball power over den_n0, its exponent past the length the denominator has
    # over the power
    q, _, f, _ = rows[-1]
    assert q.bit_length() <= rows[-2][3] + 65 < rows[0][0].bit_length() - 2 * n0
    power = half_pi(300).pow_int(2 * n0 + 2).mid
    den = e_denominator(n0, 3)
    assert f > den.bit_length() - power.bit_length() > 800
    assert abs(q * den - (power << f)) << 64 < power << f


def test_sum_series_reports_tail_and_terms():
    result = sum_series(2, 20)
    assert result.terms_used >= 5
    assert result.tail_bound.mid >= 1
    # the tail bound was folded into the value's radius
    assert result.value.rad > result.tail_bound.mid


def test_sum_series_doubling_agreement():
    for k in (1, 2, 3):
        low = sum_series(k, 15).value
        high = sum_series(k, 30).value._replace(scale=15)
        assert abs(low.rounded() - high.rounded()) <= 100  # first 13 digits agree


def test_term_ratio_sequence_near_quarter():
    for k in range(1, 7):
        ratios = dict(term_ratio_sequence(k, 60, digits=12))
        value = midpoint(ratios[59])
        assert Fraction(2, 10) < value < Fraction(3, 10)


def test_validation_errors():
    with pytest.raises(ValueError):
        compute_pi(0)
    with pytest.raises(ValueError):
        Ball(15, 0, 4, 1).pow_int(-1)
    with pytest.raises(ValueError):
        term_ratio_sequence(1, 0)
    with pytest.raises(ValueError):
        sum_series(0, 10)
    with pytest.raises(ValueError):
        sum_series(1, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 60, 61, 120, 121])
def test_stop_row_bound_is_at_most_two(k):
    # the row that stops the sum is a lambda row past n0, at most 100 units of the working
    # scale w, and its bound floor(|R_n| t) + 2 is 2 units of 2^-B, below 2^-26 units of
    # 10^-w; the exact rows before it keep qe / q below 2^-36 (_series_terms' argument)
    for digits in (1, 2, 30, 300):
        work = digits + GUARD_DIGITS
        hp, n0 = half_pi(digits), exact_rows(digits)
        stop = stop_limit(hp.bits, work)
        result, rows = series_rows(lambda: sum_series(k, digits))
        assert len(rows) == n0 and all(qe << 36 < q for q, qe, _, _ in rows)
        moments = row_moments(k, n0 + 1)
        terms = highprec._lambda_terms(hp.pow_int(k - 1), moments, n0 + 1, stop)
        assert n0 + len(terms) == result.terms_used
        mantissa, err = terms[-1]
        assert 2 * abs(mantissa) * 10**work < 201 << hp.bits
        assert err <= 2 and err * 10**work << 26 < 1 << hp.bits


def column_constant(k: int) -> str:
    """The name whose value is A_k: ln 2, beta(k) for even k, eta(k) for odd k > 1."""
    if k == 1:
        return "alt_harmonic"
    return f"beta_even({k // 2})" if k % 2 == 0 else f"eta_odd({k // 2})"


@given(st.integers(min_value=1, max_value=61), st.integers(min_value=1, max_value=300))
@example(1, 2)
@example(61, 300)
def test_proven_tail_covers_what_the_sum_omits(k, digits):
    # A_k minus the terms_used terms that sum_series summed, both taken 12 digits past its
    # working scale, is positive, below a third of the last term and below the tail it adds
    result, extra = sum_series(k, digits), 12
    hp = half_pi(digits + GUARD_DIGITS + extra)
    column = e_column(k, result.terms_used)
    terms = highprec._series_terms(hp.pow_int(k + 1), hp.mul(hp), column, e_denominator(1, k), k)
    reference = reference_for(column_constant(k), hp.scale)
    unit = Fraction(1, 1 << hp.bits)
    omitted = midpoint(reference) - sum(m for m, _ in terms) * unit
    slack = Fraction(reference.rad, 1 << reference.bits) + sum(err for _, err in terms) * unit
    last, last_err = terms[-1]
    assert 0 < omitted - slack
    assert 3 * (omitted + slack) < (last - last_err) * unit
    assert omitted + slack <= midpoint(result.tail_bound)
