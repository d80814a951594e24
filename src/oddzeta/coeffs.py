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

The same identity splits the rows of a sum at n0 = B // 8 + 1, for the B bits of its
pi/2 (``highprec.sum_series``).  Rows n <= n0 read the exact N_n(k) of this store.  Each
row past n0 is (pi/2)^(k-1) R_k(n) lambda(2n) / 4^n, with R_k(n) from ``row_moments``,
which reads the stored weight c(k) and no tangent number, and lambda(2n) / 4^n =
sum_(m odd) (2m)^-2n summed over the odd m whose term reaches a unit of 2^-B: three to
five past n0 for most columns (up to 41 for column 121 at one digit), and from about row
B/5 only m = 1.  The odd m from the first one left out, M, on
sum to below M^-2n (1 + M / (2 (2n - 1))): M^-2n, plus the integral of x^-2n / 2 from M.
Only those later rows are tested against the sum's stop line.  The exact E_n(k)
themselves, and everything that prints them (``e_coeff``, ``coeffs`` and ``ratio``),
still come from this store; ``zeta_even`` and the identity ladder read T_n from the tangent list itself,
since column 1 is 2 T_n.
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from math import comb, factorial, perm, prod

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
    "row_moments",
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


def _quotients(k: int, start: int):
    """Q_k(n) = H / (k-1)! for n = start, start + 1, ...: the first k by Horner's rule
    from c(k), the rest from the backward differences of those k, summed k - 1 times
    over, since Q_k has degree below k."""
    weight, scale = _weight(k), factorial(k - 1)
    values = []
    for n in range(start, start + k):
        h = 0
        for m, c in enumerate(weight):
            h = h * (2 * n + m) + c
        values.append(h // scale)
        yield values[-1]
    differences = []  # the i-th backward differences at n = start + k - 1, i < k
    while values:
        differences.append(values[-1])
        values = [b - a for a, b in zip(values, values[1:])]
    rows = repeat(differences.pop())
    for last in reversed(differences):
        rows = accumulate(rows, initial=last)
        next(rows)  # the value at start + k - 1, already given
    yield from rows


def _column(k: int, rows: int) -> list[int]:
    """The stored column N_.(k), grown to at least ``rows`` entries as T_n Q_k(n)."""
    _check_column_index(k)
    if k not in _columns or len(_columns[k][0]) < rows:
        # reaching the last row first checks the index ceiling before any work is
        # done, and writes the disk cache once per column, not once per row
        tangent_number(rows)
        _weight(k)  # makes the store's entry for k
        column = _columns[k][0]
        start = len(column) + 1
        column.extend(
            tangent_number(n) * q for n, q in zip(range(start, rows + 1), _quotients(k, start))
        )
    return _columns[k][0]


def row_moments(k: int, start: int):
    """(num, den) of R_k(n) = 2 Q_k(n) / (P_k (2n)(2n+1)...(2n+k-1)) for n = start,
    start + 1, ...: row n's term over (pi/2)^(k-1) lambda(2n) / 4^n, read from the
    stored weight with no tangent number."""
    _check_column_index(k)
    falling = map(perm, count(2 * start + k - 1, 2), repeat(k))
    return zip(map((2).__mul__, _quotients(k, start)), map(_odd_product(k).__mul__, falling))


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

