"""Exact series coefficients for the pi/2-power expansions.

Two coefficient families are produced here, both exact rationals:

* ``d_coeff(n, k)``: the repeated-integration ladder obtained from the
  tangent Maclaurin coefficients, with base D_n(1) = c_n / (2^(2n-1) * 2n)
  and recurrence D_n(k) = D_n(k-1) / (2n + k - 1).
* ``e_coeff(n, k)``: the coefficients of (pi/2)^(2n+k-1) in the expansions
  of the alternating constants A_k (beta values for even k, eta values for
  odd k).

Both are read from one process-wide store of integer numerators keyed by k.
Every E_n(k) is N_n(k) / den(n, k) over the closed-form denominator

    den(n, k) = (2n+k-1)! * 4^n * P_k,   P_k = prod_{odd 3 <= r <= k} (2^r - 1),

and D_n(k) = N_n(1) / ((2n+k-1)! * 4^n), since N_n(1) = 2 T_n.  Over these
denominators the E recurrence reads, with j = k // 2 and B = P_(k - k mod 2),

    N_n(k) = (-1)^j (T_n B - sum_{r<j} (-1)^r N_n(2r+1) C(2n+k-1, 2n+2r) B / P_(2r+1)),

shifted left by k bits for odd k (the factor 2^k / (2^k - 1)).  So N_n(k) = T_n Q_k(n)
with Q_k an integer-valued polynomial of degree below k, by induction on odd k:
Q_1 = 2, and C(2n+k-1, 2n+2r) = C(2n+k-1, k-1-2r) has degree k-1-2r in n.  A column
is therefore built from its own Q_k alone, and no column reads another's rows: the
recurrence run with every T_n = 1 gives Q_k(1..k) without tangent numbers, their k
differences extend Q_k a row at a time by k-1 subtractions, and row n is T_n Q_k(n).
Nothing is reduced by a gcd; ``d_coeff``, ``e_coeff``, ``f_ratio`` and
``build_table`` make a ``Fraction`` only where one is read.

Every column is a moment sequence, and in every column served each series term is
positive and below a quarter of the one before.  With lambda(s) = sum_(m odd) m^-s, the tangent series and DLMF 25.6.2 give
T_n / (2n-1)! = 2 4^n lambda(2n) / pi^(2n) (DLMF 4.19.4), so the term of row n is

    E_n(k) (pi/2)^(2n+k-1) = (pi/2)^(k-1) R_k(n) lambda(2n) / 4^n,
    R_k(n) = 2 Q_k(n) / (P_k (2n)(2n+1)...(2n+k-1)) = sum_(j<k) c_j / (2n+j),

by partial fractions, with c_j = 2 (-1)^j C(k-1, j) Q_k(-j/2) / (P_k (k-1)!).  So
R_k(n) = int_0^1 s^(2n-1) w_k(s) ds for w_k(s) = sum_(j<k) c_j s^j.  If w_k > 0 on (0, 1),
then R_k(n) > 0 and R_k(n+1) < R_k(n); lambda(2n+2) < lambda(2n) too, so every term of
column k is positive and below a quarter of the one before, and the terms after row N
sum to less than t_N / 3, a third of the last term summed.  In the Bernstein basis of
degree k-1 (Farouki, CAGD 29, 2012), w_k = sum_i b_i C(k-1, i) s^i (1-s)^(k-1-i) with
b_i = 2 Delta^i u_0 / (P_k (k-1)!) for u_j = Q_k(-j/2), and so w_k > 0 on (0, 1) where
``_leading_differences([u_0, ..., u_(k-1)])`` is positive throughout.  The u_j are
integers: the recurrence with every T_n = 1, run at 2n = 0, -1, ..., -(k-1), with
C(x, m) = (-1)^m C(m-x-1, m) for x < 0.  ``tests/test_coeffs.py`` checks them for every
k up to MAX_COLUMN_INDEX, and a larger index is refused before any work.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .errors import ResourceLimitError
from .exact import tangent_number

__all__ = [
    "build_table",
    "d_coeff",
    "d_denominator",
    "denominator_step",
    "e_coeff",
    "e_column",
    "e_denominator",
    "f_ratio",
]

MAX_TABLE_CELLS = 2_000_000
# the largest column served, k = 60 of beta_even, eta_odd and zeta_odd: every column up
# to it is proven a moment sequence, and its head Q_k(1..k) takes about 0.4 s on a
# 2-CPU Xeon VM
MAX_COLUMN_INDEX = 121

# k -> ([N_1(k), N_2(k), ...], [Delta^j Q_k at the next row, j < k]); columns only
# grow, stored numerators never change
_columns: dict[int, tuple[list[int], list[int]]] = {}


def _check_n_k(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")


def _check_column_index(k: int) -> None:
    if k > MAX_COLUMN_INDEX:
        raise ResourceLimitError(f"column index {k} exceeds configured maximum {MAX_COLUMN_INDEX}")


def _odd_product(k: int) -> int:
    """P_k = prod (2^r - 1) over odd 3 <= r <= k; P_1 = P_2 = 1."""
    return prod((1 << r) - 1 for r in range(3, k + 1, 2))


def _leading_differences(values: list[int]) -> list[int]:
    """Delta^j v_0 for j = 0..len(values)-1, where Delta v_i = v_i - v_(i+1)."""
    out = []
    while values:
        out.append(values[0])
        values = [x - y for x, y in zip(values, values[1:])]
    return out


def _quotient_differences(k: int) -> list[int]:
    """Delta^j Q_k(1) for j < k, from Q_k(1..k): the E recurrence with every T_n = 1.

    Over the common base B = P_(k - k mod 2), odd column c = 2r+1 < k is carried as the
    integers (-1)^r Q_c(n) B / P_c: the recurrence's bracket, shifted by c bits and
    divided exactly by 2^c - 1 = P_c / P_(c-1).  So it multiplies by binomials only,
    with C(2n+c-1, 2n+2r) read as C(2n+c-1, c-1-2r).
    """
    base = _odd_product(k - k % 2)
    odd: list[list[int]] = []
    for c in (*range(1, k, 2), k):
        values = [
            base - sum(row[n - 1] * comb(2 * n + c - 1, c - 1 - 2 * r) for r, row in enumerate(odd))
            << c % 2 * c
            for n in range(1, k + 1)
        ]
        if c == k:
            return _leading_differences([(-1) ** (k // 2) * v for v in values])
        odd.append([v // ((1 << c) - 1) for v in values])


def _column(k: int, rows: int) -> list[int]:
    """The stored column N_.(k), grown to at least ``rows`` entries as T_n Q_k(n)."""
    _check_column_index(k)
    column, steps = _columns.setdefault(k, ([], []))
    have = len(column)
    if have < rows:
        # reaching the last row first checks the index ceiling before any work is
        # done, and writes the disk cache once per column, not once per row
        tangent_number(rows)
        if not steps:
            steps.extend(_quotient_differences(k))
        for n in range(have + 1, rows + 1):
            column.append(tangent_number(n) * steps[0])
            # Delta^j Q_k(n+1) = Delta^j Q_k(n) - Delta^(j+1) Q_k(n); Delta^(k-1) is constant
            for i in range(k - 1):
                steps[i] -= steps[i + 1]
    return column


def d_denominator(n: int, k: int) -> int:
    """(2n+k-1)! * 4^n, so that D_n(k) = N_n(1) / d_denominator(n, k)."""
    _check_n_k(n, k)
    return factorial(2 * n + k - 1) << (2 * n)


def e_denominator(n: int, k: int) -> int:
    """den(n, k) = (2n+k-1)! * 4^n * P_k, so that E_n(k) = N_n(k) / e_denominator(n, k)."""
    return d_denominator(n, k) * _odd_product(k)


def denominator_step(n: int, k: int) -> int:
    """4 (2n+k) (2n+k+1): the factor from row n to row n+1 of both denominators above."""
    return 4 * (2 * n + k) * (2 * n + k + 1)


def d_coeff(n: int, k: int) -> Fraction:
    """Ladder coefficient D_n(k) = c_n / (2^(2n-1) * (2n)(2n+1)...(2n+k-1))."""
    from fractions import Fraction

    _check_n_k(n, k)
    return Fraction(_column(1, n)[n - 1], d_denominator(n, k))


def e_coeff(n: int, k: int) -> Fraction:
    """Series coefficient E_n(k) of (pi/2)^(2n+k-1) in the expansion of A_k."""
    from fractions import Fraction

    _check_n_k(n, k)
    return Fraction(_column(k, n)[n - 1], e_denominator(n, k))


def f_ratio(n: int, k: int) -> Fraction:
    """Normalized coefficient F_n(k) = E_n(k) / D_n(1); F_n(1) = 1."""
    _check_n_k(n, k)
    return e_coeff(n, k) / d_coeff(n, 1)


def e_column(k: int, rows: int) -> list[int]:
    """[N_1(k), ..., N_rows(k)], read from the store after one growth to ``rows``."""
    _check_n_k(rows, k)
    return _column(k, rows)[:rows]


def build_table(k_max: int, n_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns 1..k_max of the store, each cut to rows 1..n_max: ``table[k-1][n-1]`` is E_n(k)."""
    from fractions import Fraction

    _check_n_k(n_max, k_max)
    _check_column_index(k_max)
    if k_max * n_max > MAX_TABLE_CELLS:
        raise ResourceLimitError(
            f"table of {k_max}x{n_max} cells exceeds ceiling {MAX_TABLE_CELLS}"
        )
    return tuple(
        tuple(Fraction(num, e_denominator(n, k)) for n, num in enumerate(e_column(k, n_max), 1))
        for k in range(1, k_max + 1)
    )
