"""Exact series coefficients for the pi/2-power expansions.

Two coefficient families are produced here, both exact rationals:

* ``d_coeff(n, k)``: the repeated-integration ladder obtained from the
  tangent Maclaurin coefficients, with base D_n(1) = c_n / (2^(2n-1) * 2n)
  and recurrence D_n(k) = D_n(k-1) / (2n + k - 1).
* ``e_coeff(n, k)``: the coefficients of (pi/2)^(2n+k-1) in the expansions
  of the alternating constants A_k (beta values for even k, eta values for
  odd k).  Odd-index columns form a closed recursion; even-index columns
  depend on the odd ones only.

Both are read from one process-wide store of E columns keyed by k.  A
column grows lazily to the rows asked for, and the odd columns its
recurrence reads grow with it.  Column 1 is E_n(1) = D_n(1); every other
D_n(k) is derived from it on demand.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, prod

from .errors import ResourceLimitError
from .exact import tangent_coeff

__all__ = [
    "build_table",
    "d_coeff",
    "e_coeff",
    "e_column",
    "f_ratio",
    "table_to_csv",
    "table_to_json",
]

MAX_TABLE_CELLS = 2_000_000

# k -> [E_1(k), E_2(k), ...]; columns only grow, stored entries never change
_columns: dict[int, list[Fraction]] = {}


def _check_n_k(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")


def _column(k: int, rows: int) -> list[Fraction]:
    """The stored column E_.(k), grown to at least ``rows`` entries."""
    column = _columns.setdefault(k, [])
    if len(column) < rows:
        if k == 1:
            tangent_coeff(rows)  # grow the tangent list once, not once per row
        for r in range(1, k, 2):
            _column(r, rows)
        for n in range(len(column) + 1, rows + 1):
            column.append(_e_value(n, k))
    return column


def _e_value(n: int, k: int) -> Fraction:
    """E_n(k), given row n of every odd column below k."""
    if k == 1:
        return tangent_coeff(n) / ((1 << (2 * n - 1)) * 2 * n)
    j = k // 2
    odd_part = sum(
        (-1) ** r * _columns[2 * r + 1][n - 1] / factorial(k - 2 * r - 1) for r in range(j)
    )
    value = Fraction((-1) ** j, 2) * d_coeff(n, k) + (-1) ** (j + 1) * odd_part
    return value if k % 2 == 0 else value / (1 - Fraction(1, 1 << k))


def d_coeff(n: int, k: int) -> Fraction:
    """Ladder coefficient D_n(k) = c_n / (2^(2n-1) * (2n)(2n+1)...(2n+k-1))."""
    _check_n_k(n, k)
    return _column(1, n)[n - 1] / prod(range(2 * n + 1, 2 * n + k))


def e_coeff(n: int, k: int) -> Fraction:
    """Series coefficient E_n(k) of (pi/2)^(2n+k-1) in the expansion of A_k."""
    _check_n_k(n, k)
    return _column(k, n)[n - 1]


def f_ratio(n: int, k: int) -> Fraction:
    """Normalized coefficient F_n(k) = E_n(k) / D_n(1); F_n(1) = 1."""
    _check_n_k(n, k)
    return e_coeff(n, k) / d_coeff(n, 1)


def e_column(k: int, rows: int) -> list[Fraction]:
    """[E_1(k), ..., E_rows(k)], read from the store after one growth to ``rows``."""
    _check_n_k(rows, k)
    return _column(k, rows)[:rows]


def build_table(k_max: int, n_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns 1..k_max of the store, each cut to rows 1..n_max: ``table[k-1][n-1]`` is E_n(k)."""
    _check_n_k(n_max, k_max)
    if k_max * n_max > MAX_TABLE_CELLS:
        raise ResourceLimitError(
            f"table of {k_max}x{n_max} cells exceeds ceiling {MAX_TABLE_CELLS}"
        )
    return tuple(tuple(e_column(k, n_max)) for k in range(1, k_max + 1))


def table_to_csv(table: tuple[tuple[Fraction, ...], ...]) -> str:
    """CSV dump with header ``k,n,numerator,denominator``, k-major order."""
    lines = ["k,n,numerator,denominator"]
    for k, column in enumerate(table, 1):
        for n, v in enumerate(column, 1):
            lines.append(f"{k},{n},{v.numerator},{v.denominator}")
    return "\n".join(lines) + "\n"


def table_to_json(table: tuple[tuple[Fraction, ...], ...]) -> str:
    """JSON array of ``{k, n, value: "num/den"}`` objects, k-major order."""
    rows = [
        {"k": k, "n": n, "value": f"{v.numerator}/{v.denominator}"}
        for k, column in enumerate(table, 1)
        for n, v in enumerate(column, 1)
    ]
    return json.dumps(rows, indent=None, separators=(",", ":"))
