"""Ladder and series coefficients: recurrences vs step formulas, exactly."""

from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, strategies as st

from exact_reference import (
    E_STEPWISE,
    d_closed,
    e_recurrence,
    odd_column_numerators,
    quotient_values,
    tan_number,
)
from oddzeta import coeffs
from oddzeta.coeffs import d_coeff, e_coeff, e_column, f_ratio
from oddzeta.errors import ResourceLimitError


def test_d_coeff_small_values():
    assert d_coeff(1, 1) == Fraction(1, 4)
    assert d_coeff(1, 2) == Fraction(1, 12)
    assert d_coeff(2, 1) == Fraction(1, 96)
    assert d_coeff(1, 3) == Fraction(1, 48)


def test_d_recurrence_from_closed_form():
    for n in range(1, 21):
        for k in range(1, 9):
            assert d_coeff(n, k) == d_closed(n, k)


def test_d_ladder_identity():
    # D_n(k+1) * (2n + k) recovers D_n(k) exactly
    for n in range(1, 51):
        for k in range(1, 13):
            assert d_coeff(n, k + 1) * (2 * n + k) == d_coeff(n, k)


def test_e_coeff_small_values():
    assert e_coeff(1, 1) == Fraction(1, 4)
    assert e_coeff(1, 2) == Fraction(5, 24)
    assert e_coeff(1, 3) == Fraction(11, 84)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_general_recurrence_equals_step_formulas(k):
    step = E_STEPWISE[k]
    for n in range(1, 51):
        assert e_coeff(n, k) == step(n)


@pytest.mark.parametrize("k", range(1, 13))
def test_integer_store_equals_fraction_recurrence(k):
    # k <= 12 reaches every odd factor 2^r - 1 of the denominators up to r = 11
    for n in range(1, 81):
        assert e_coeff(n, k) == e_recurrence(n, k)


def test_column_build_makes_no_fraction(cold_store, monkeypatch):
    made = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    e_column(10, 242)
    assert made == []
    # column 10 alone is stored: its rows and the k differences of its quotient polynomial
    assert sorted(coeffs._columns) == [10]
    column, steps = coeffs._columns[10]
    assert all(type(v) is int for v in column + steps)
    assert (len(column), len(steps)) == (242, 10)


def test_columns_equal_the_odd_column_recursion(cold_store):
    # each column grown in steps across row k equals the recursion through the odd columns
    reference = odd_column_numerators(40, 300)
    for k in range(1, 41):
        for rows in (k - 1, k, k + 1, 300):
            if rows >= 1:
                assert e_column(k, rows) == reference[k][:rows]


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=60))
def test_numerators_are_tangent_numbers_times_a_polynomial(k, start):
    # N_n(k) = T_n Q_k(n), and Q_k has degree below k: its k-th difference vanishes
    rows = start + k
    column = e_column(k, rows)
    assert all(num % tan_number(n) == 0 for n, num in enumerate(column, 1))
    quotients = [num // tan_number(n) for n, num in enumerate(column, 1)][start - 1:]
    for _ in range(k):
        quotients = [b - a for a, b in zip(quotients, quotients[1:])]
    assert quotients == [0]


def test_every_served_column_is_a_moment_sequence():
    # w_k's Bernstein coefficients are positive multiples of the leading differences of
    # Q_k(0), Q_k(-1/2), ..., Q_k(-(k-1)/2): all positive means w_k > 0 on (0, 1), and
    # so every term of column k is below a quarter of the one before (coeffs docstring)
    top = coeffs.MAX_COLUMN_INDEX
    values = quotient_values(top, [*range(0, -top, -1), *range(2, 2 * top + 1, 2)])
    for k in range(1, top + 1):
        assert min(coeffs._leading_differences(values[k][:k])) > 0, k
    # the reference is the package's Q_k: k values fix a polynomial of degree below k
    for k in (*range(1, 31), 60, 61, top - 1, top):
        quotients = values[k][top:top + k]
        assert coeffs._leading_differences(quotients) == coeffs._quotient_differences(k), k


def test_series_rows_are_moments_of_the_bernstein_weight():
    # R_k(n) = 2 4^n (2n-1)! E_n(k) / T_n is sum_(j<k) c_j / (2n+j), the n-th moment of
    # w_k = sum_j c_j s^j, and w_k's Bernstein coefficients are the leading differences
    # of u_j = Q_k(-j/2) times 2 / (P_k (k-1)!)
    top = 20
    values = quotient_values(top, range(0, -top, -1))
    limits = {}
    for k in range(1, top + 1):
        u = values[k][:k]
        unit = Fraction(2, prod((1 << r) - 1 for r in range(3, k + 1, 2)) * factorial(k - 1))
        c = [unit * (-1) ** j * comb(k - 1, j) * u[j] for j in range(k)]
        for n in range(1, 51):
            moment = Fraction(2 * 4**n * factorial(2 * n - 1), tan_number(n)) * e_coeff(n, k)
            assert moment == sum(cj / (2 * n + j) for j, cj in enumerate(c)), (k, n)
        bernstein = [sum(comb(i, j) * c[j] / comb(k - 1, j) for j in range(i + 1)) for i in range(k)]
        assert bernstein == [unit * d for d in coeffs._leading_differences(u)]
        limits[k] = sum(c) / 4
    # F_n(k) tends to K(k) = w_k(1) / 4
    assert (limits[1], limits[3], limits[4]) == (1, Fraction(4, 7), Fraction(17, 42))
    assert abs(f_ratio(400, 3) - limits[3]) < Fraction(1, 10**6)


def test_column_index_ceiling_is_checked_before_any_work(cold_store):
    top = coeffs.MAX_COLUMN_INDEX
    past = top + 1
    for call in (lambda: e_column(past, 1), lambda: e_coeff(1, past)):
        with pytest.raises(ResourceLimitError, match=f"{past} exceeds configured maximum {top}$"):
            call()
    assert coeffs._columns == {} and cold_store == []


def test_e_base_column_equals_ladder_base():
    for n in range(1, 51):
        assert e_coeff(n, 1) == d_coeff(n, 1)


def test_f_ratio_values():
    assert f_ratio(1, 1) == 1
    assert f_ratio(1, 2) == Fraction(5, 6)
    assert f_ratio(2, 2) == Fraction(9, 10)


def test_f_ratio_second_column_closed_form():
    for n in range(1, 51):
        assert f_ratio(n, 2) == 1 - Fraction(1, 2 * (2 * n + 1))


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=10),
)
def test_coefficients_canonical_form(n, k):
    for value in (d_coeff(n, k), e_coeff(n, k)):
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


def test_e_column_reads_shared_store(monkeypatch):
    # overlapping reads (as for D and D + 2 digits) read one store and build nothing twice
    large = e_column(3, 30)
    stored = list(coeffs._columns[3][0])

    def no_growth(n):
        raise AssertionError(f"the store was grown again, to {n} rows")

    monkeypatch.setattr(coeffs, "tangent_number", no_growth)
    small = e_column(3, 20)
    assert small == large[:20]
    assert all(a is b for a, b in zip(small, stored))
    assert all(a is b for a, b in zip(e_column(3, 30), stored))


def test_table_bounds_checked():
    # a read holds exactly the rows asked for, however far the store has grown
    e_column(2, 40)
    assert [len(e_column(k, 3)) for k in (1, 2)] == [3, 3]


def test_argument_validation():
    for bad in ((0, 1), (1, 0), (-3, 2)):
        with pytest.raises(ValueError):
            d_coeff(*bad)
        with pytest.raises(ValueError):
            e_coeff(*bad)
        with pytest.raises(ValueError):
            e_column(bad[1], bad[0])
