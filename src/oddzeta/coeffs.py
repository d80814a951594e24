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
Q_1 = 2, and C(2n+k-1, 2n+2r) = C(2n+k-1, k-1-2r) has degree k-1-2r in n.
Nothing is reduced by a gcd until it is read: ``d_coeff``, ``e_coeff`` and ``f_ratio``
make a ``Fraction``, and the ``coeffs`` command divides each cell by one gcd.

Every column is a moment sequence.  With lambda(s) = sum_(m odd) m^-s, the tangent series
and DLMF 25.6.2 give T_n / (2n-1)! = 2 4^n lambda(2n) / pi^(2n) (DLMF 4.19.4), so the term
of row n is

    E_n(k) (pi/2)^(2n+k-1) = (pi/2)^(k-1) R_k(n) lambda(2n) / 4^n,
    R_k(n) = 2 Q_k(n) / (P_k (2n)(2n+1)...(2n+k-1)) = int_0^1 s^(2n-1) w_k(s) ds

for a weight w_k = sum_(m<k) a_m u^m in u = 1 - s.  By the Beta integral
int_0^1 s^(2n-1) u^m ds = m! (2n-1)! / (2n+m)!, the E recurrence's T_n term gives R the
moment of 2 u^(k-1) / (k-1)!, and its column 2r+1 term the moment of w_(2r+1) / (k-1-2r)!,
each times sigma_k = B 2^(k [k odd]) / P_k.  So the integers c_m(k) = (k-1)! m! a_m P_k / 2
follow one recurrence, free of n, with e_m the unit vector:

    c(k) = (-1)^j 2^(k [k odd]) ((k-1)! P_(k-1) e_(k-1)
                                  - sum_(r<j) (-1)^r C(k-1, 2r) P_(k-1) / P_(2r+1) c(2r+1)),

and Q_k(n) = H / (k-1)! with H = sum_m c_m (2n+m+1)...(2n+k-1), by Horner's rule in n.
Each odd weight is built once and read by every column above it; row n is T_n Q_k(n).

If w_k > 0 on (0, 1), then R_k(n) > 0 and R_k(n+1) < R_k(n); lambda(2n+2) < lambda(2n)
too, so every term of column k is positive and below a quarter of the one before, and
the terms after row N sum to less than t_N / 3, a third of the last term summed.  In the
Bernstein basis of degree k-1 (Farouki, CAGD 29, 2012), u^m = sum_(i<k-m) C(k-1-m, i)
C(k-1, i)^-1 s^i u^(k-1-i), so w_k's i-th Bernstein coefficient is a positive multiple of
sum_(m<k-i) c_m (k-1)! / m! C(k-1-m, i), and w_k > 0 on (0, 1) where these are all
positive.  ``tests/test_coeffs.py`` checks them for every k up to MAX_COLUMN_INDEX, and a
larger index is refused before any work.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .errors import ResourceLimitError
from .exact import tangent_number

__all__ = [
    "d_coeff",
    "d_denominator",
    "denominator_step",
    "e_coeff",
    "e_column",
    "e_denominator",
    "f_ratio",
]

# the largest column served, k = 60 of beta_even, eta_odd and zeta_odd: every column up
# to it is proven a moment sequence, and the weights of all its odd columns take about
# 0.1 s on a 2-CPU Xeon VM
MAX_COLUMN_INDEX = 121

# k -> ([N_1(k), N_2(k), ...], [c_0(k), ..., c_(k-1)(k)]); a weight is built once, columns
# only grow, stored numerators never change
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


def _weight(k: int) -> list[int]:
    """c(k), w_k's integer coefficients in powers of 1 - s, from the odd weights below k."""
    if k not in _columns:
        base = _odd_product(k - 1)
        weight = [0] * (k - 1) + [factorial(k - 1) * base]
        for r in range(k // 2):
            scale = (-1) ** r * comb(k - 1, 2 * r) * (base // _odd_product(2 * r + 1))
            for m, c in enumerate(_weight(2 * r + 1)):
                weight[m] -= scale * c
        _columns[k] = ([], [(-1) ** (k // 2) * c << k % 2 * k for c in weight])
    return _columns[k][1]


def _column(k: int, rows: int) -> list[int]:
    """The stored column N_.(k), grown to at least ``rows`` entries as T_n Q_k(n)."""
    _check_column_index(k)
    if k not in _columns or len(_columns[k][0]) < rows:
        # reaching the last row first checks the index ceiling before any work is
        # done, and writes the disk cache once per column, not once per row
        tangent_number(rows)
        weight, scale = _weight(k), factorial(k - 1)
        column = _columns[k][0]
        for n in range(len(column) + 1, rows + 1):
            h = 0
            for m, c in enumerate(weight):
                h = h * (2 * n + m) + c
            column.append(tangent_number(n) * (h // scale))
    return _columns[k][0]


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

