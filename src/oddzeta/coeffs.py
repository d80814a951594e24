"""Exact series coefficients for the pi/2-power expansions.

Two coefficient families are produced here, both exact rationals:

* ``d_coeff(n, k)``: the repeated-integration ladder obtained from the
  tangent Maclaurin coefficients, with base D_n(1) = c_n / (2^(2n-1) * 2n)
  and recurrence D_n(k) = D_n(k-1) / (2n + k - 1).
* ``e_coeff(n, k)``: the coefficients of (pi/2)^(2n+k-1) in the expansions
  of the alternating constants A_k (beta values for even k, eta values for
  odd k).  Odd-index columns form a closed recursion; even-index columns
  depend on the odd ones only.

Both are read from one process-wide store of integer numerators keyed by k.
Every E_n(k) is N_n(k) / den(n, k) over the closed-form denominator

    den(n, k) = (2n+k-1)! * 4^n * P_k,   P_k = prod_{odd 3 <= r <= k} (2^r - 1),

and D_n(k) = N_n(1) / ((2n+k-1)! * 4^n), since N_n(1) = 2 T_n.  Over these
denominators the E recurrence becomes integer multiply-adds with binomial
weights, so a column is built without a gcd; ``d_coeff``, ``e_coeff``,
``f_ratio`` and ``build_table`` reduce to a ``Fraction`` only where they are
read.  A column grows lazily to the rows asked for, and the odd columns its
recurrence reads grow with it.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import TYPE_CHECKING

from .errors import ResourceLimitError
from .exact import tangent_number

if TYPE_CHECKING:
    from fractions import Fraction

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

# k -> [N_1(k), N_2(k), ...]; columns only grow, stored entries never change
_columns: dict[int, list[int]] = {}


def _check_n_k(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")


def _odd_product(k: int) -> int:
    """P_k = prod (2^r - 1) over odd 3 <= r <= k; P_1 = P_2 = 1."""
    return prod((1 << r) - 1 for r in range(3, k + 1, 2))


def _column(k: int, rows: int) -> list[int]:
    """The stored column N_.(k), grown to at least ``rows`` entries.

    With j = k // 2 and B = P_(k - k mod 2), the E recurrence over den(n, k) reads
    N_n(k) = (-1)^j (T_n B - sum_{r<j} (-1)^r N_n(2r+1) C(2n+k-1, 2n+2r) B / P_(2r+1)),
    shifted left by k bits for odd k (the factor 2^k / (2^k - 1)).
    """
    column = _columns.setdefault(k, [])
    have = len(column)
    if have < rows:
        # reaching the last row first checks the index ceiling before any work is
        # done, and writes the disk cache once per column, not once per row
        tangent_number(rows)
        j = k // 2
        odd = [_column(2 * r + 1, rows) for r in range(j)]
        base = _odd_product(k - k % 2)
        weights = [(-1) ** r * (base // _odd_product(2 * r + 1)) for r in range(j)]
        sign, shift = (-1) ** j, k % 2 * k
        for n in range(have + 1, rows + 1):
            top = 2 * n + k - 1
            inner = sum(
                odd[r][n - 1] * comb(top, 2 * n + 2 * r) * weights[r] for r in range(j)
            )
            column.append(sign * (tangent_number(n) * base - inner) << shift)
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
    if k_max * n_max > MAX_TABLE_CELLS:
        raise ResourceLimitError(
            f"table of {k_max}x{n_max} cells exceeds ceiling {MAX_TABLE_CELLS}"
        )
    return tuple(
        tuple(Fraction(num, e_denominator(n, k)) for n, num in enumerate(e_column(k, n_max), 1))
        for k in range(1, k_max + 1)
    )
