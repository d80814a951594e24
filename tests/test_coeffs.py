"""Ladder and series coefficients: recurrences vs step formulas, exactly."""

from fractions import Fraction
from itertools import count
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
    # rows are stored for column 10 alone; the odd columns below it store only the weights
    # it reads, and every stored number is an integer
    assert sorted(coeffs._columns) == [1, 3, 5, 7, 9, 10]
    assert [k for k, (column, _) in coeffs._columns.items() if column] == [10]
    assert all(type(v) is int for entry in coeffs._columns.values() for v in entry[0] + entry[1])
    assert [len(v) for v in coeffs._columns[10]] == [242, 10]


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


@pytest.fixture(scope="module")
def reference_quotients():
    """Q_k(1..top+2) for every k up to MAX_COLUMN_INDEX, by the reference's odd-column
    recursion with every T_n = 1."""
    top = coeffs.MAX_COLUMN_INDEX
    return quotient_values(top, range(2, 2 * top + 5, 2))


def bernstein_multiples(weight: list[int]) -> list[int]:
    """sum_(m<k-i) c_m (k-1)!/m! C(k-1-m, i) for i < k: w_k's Bernstein coefficients of
    degree k-1, each times a positive factor, from c(k) in powers of u = 1 - s."""
    k = len(weight)
    scaled = [c * (factorial(k - 1) // factorial(m)) for m, c in enumerate(weight)]
    return [sum(d * comb(k - 1 - m, i) for m, d in enumerate(scaled[:k - i])) for i in range(k)]


def scaled_quotients(weight: list[int]):
    """(k-1)! Q_k(n) for n = 1, 2, ... from the moments of w_k: sum_m c_m (2n+k-1)! / (2n+m)!."""
    k = len(weight)
    for n in count(1):
        yield sum(c * prod(range(2 * n + m + 1, 2 * n + k)) for m, c in enumerate(weight))


def is_positive_moment_weight(weight: list[int], quotients: list[int]) -> bool:
    """Whether w_k's moments give the k values Q_k(1..k), which fix Q_k, a polynomial of
    degree below k, and w_k > 0 on (0, 1) by its Bernstein coefficients."""
    k = len(weight)
    scale = factorial(k - 1)
    moments = all(x == scale * q for x, q in zip(scaled_quotients(weight), quotients[:k]))
    return moments and min(bernstein_multiples(weight)) > 0


def test_every_served_column_is_a_moment_sequence(reference_quotients):
    # the package's w_k is positive on (0, 1) for every column served, and it is the weight
    # of column k, so every term of column k is below a quarter of the one before (coeffs
    # docstring)
    for k in range(1, coeffs.MAX_COLUMN_INDEX + 1):
        assert is_positive_moment_weight(coeffs._weight(k), reference_quotients[k]), k


@pytest.mark.parametrize("k", [1, 2, 3, 10, 61, 121])
def test_a_weight_changed_by_one_fails_the_moment_check(k, reference_quotients):
    weight = coeffs._weight(k)
    for m in range(k):
        mutated = list(weight)
        mutated[m] += 1
        assert not is_positive_moment_weight(mutated, reference_quotients[k]), m


@pytest.mark.parametrize("k", [60, 61, 120, 121])
def test_top_columns_equal_the_quotient_reference(k, reference_quotients):
    # past the k <= 40 of test_columns_equal_the_odd_column_recursion, each of the highest
    # columns is T_n Q_k(n) with Q_k from the reference recursion
    rows = k + 2
    quotients = reference_quotients[k][:rows]
    assert e_column(k, rows) == [tan_number(n) * q for n, q in enumerate(quotients, 1)]


def test_series_rows_are_moments_of_the_bernstein_weight():
    # R_k(n) = 2 4^n (2n-1)! E_n(k) / T_n is the n-th moment of w_k = sum_m a_m u^m, u = 1 - s,
    # with a_m = 2 c_m / ((k-1)! m! P_k), and bernstein_multiples gives w_k's Bernstein
    # coefficients times C(k-1, i) (k-1)!^2 P_k / 2
    limits = {}
    for k in range(1, 21):
        weight = coeffs._weight(k)
        odd = prod((1 << r) - 1 for r in range(3, k + 1, 2))
        a = [Fraction(2 * c, factorial(k - 1) * factorial(m) * odd) for m, c in enumerate(weight)]
        for n in range(1, 51):
            moment = Fraction(2 * 4**n * factorial(2 * n - 1), tan_number(n)) * e_coeff(n, k)
            # the Beta integrals m! (2n-1)! / (2n+m)!
            beta = [Fraction(factorial(m), prod(range(2 * n, 2 * n + m + 1))) for m in range(k)]
            assert moment == sum(x * y for x, y in zip(a, beta)), (k, n)
        b = [
            Fraction(2 * v, comb(k - 1, i) * factorial(k - 1) ** 2 * odd)
            for i, v in enumerate(bernstein_multiples(weight))
        ]
        for s in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)):
            power = sum(x * (1 - s) ** m for m, x in enumerate(a))
            assert power == sum(
                bi * comb(k - 1, i) * s**i * (1 - s) ** (k - 1 - i) for i, bi in enumerate(b)
            ), (k, s)
        limits[k] = a[0] / 4
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
