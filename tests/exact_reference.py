"""Independent exact-rational reference computations used as test oracles.

Nothing here shares code with the package beyond ``fractions.Fraction``:
tangent coefficients come from the derivative recurrence (not Bernoulli
numbers), ladder coefficients from the closed-form product (not the
recurrence), and the step formulas are written out literally, one per
integration step.  :func:`odd_column_numerators`, the reference for the
package's integer coefficient columns, runs the recursion through the odd
columns that the package's weight recurrence replaces; :func:`quotient_values`
runs it with every T_n = 1, at any half-integer n.
:func:`machin_pi` is Machin's arctangent formula on integers, the reference
for the package's Chudnovsky pi.  :class:`AngleEngine`,
the reference for the Fourier pass, takes sin and cos of m*theta straight from
the angle, reduced modulo 2 pi, where the package runs a three-term recurrence
over m; its pi is :func:`machin_pi`, and its sin and cos are Taylor sums on
integers written out here.  :func:`sin_cos_enclosure`, the reference for the
package's binary sin and cos, bounds them over an interval of angles with
Fractions rounded outward.  :func:`bounds`, :func:`midpoint` and
:func:`printed_err_ulp` read the package's binary balls as exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, floor

ANCHOR_INTERVAL = 10_000  # terms between two AngleEngine anchors in the rotation references
EXTRA_SCALE = 8  # headroom digits for angle reduction and anchor recomputation


def midpoint(ball) -> Fraction:
    """The midpoint mid 2^-bits of a ball, exactly."""
    return Fraction(ball.mid, 1 << ball.bits)


def bounds(ball) -> tuple[Fraction, Fraction]:
    """The ends (mid - rad) 2^-bits and (mid + rad) 2^-bits of a ball, exactly."""
    unit = Fraction(1, 1 << ball.bits)
    return (ball.mid - ball.rad) * unit, (ball.mid + ball.rad) * unit


def printed_err_ulp(ball) -> int:
    """The error bound of a ball's printed mantissa in units of 10^-scale, rounded up:
    its radius plus the half unit of rounding the midpoint to that unit."""
    return -(-((2 * ball.rad * 10**ball.scale) + (1 << ball.bits)) >> (ball.bits + 1))


def sin_fraction(x: Fraction, terms: int = 40) -> Fraction:
    return sum((-1) ** j * x ** (2 * j + 1) / factorial(2 * j + 1) for j in range(terms))


def cos_fraction(x: Fraction, terms: int = 40) -> Fraction:
    return sum((-1) ** j * x ** (2 * j) / factorial(2 * j) for j in range(terms))


def tan_fraction(x: Fraction, terms: int = 40) -> Fraction:
    """tan x as an exact rational approximation (error far below 10^-40 for |x| <= 1)."""
    return sin_fraction(x, terms) / cos_fraction(x, terms)


_TANGENTS: list[int] = []  # T_1, T_2, ... as far as tan_number has been asked


def tan_number(n: int) -> int:
    """Tangent number T_n from the derivative recurrence tan' = 1 + tan^2, in integers.

    With tan x = sum_n T_n x^(2n-1) / (2n-1)!, the coefficient of x^(2n-2) / (2n-2)!
    on both sides reads T_n = [n = 1] + sum_(i<n) C(2n-2, 2i-1) T_i T_(n-i), whose
    terms i and n-i are equal.  The list grows from where the last call stopped.
    """
    t = _TANGENTS
    while len(t) < n:
        m = len(t) + 1
        top = 2 * m - 2
        pairs = sum(comb(top, 2 * i - 1) * t[i - 1] * t[m - i - 1] for i in range(1, (m + 1) // 2))
        middle = 0 if m % 2 else comb(top, m - 1) * t[m // 2 - 1] ** 2
        t.append((m == 1) + 2 * pairs + middle)
    return t[n - 1]


def tan_coeff(n: int) -> Fraction:
    """c_n = T_n / (2n-1)!, the coefficient of x^(2n-1) in tan x."""
    return Fraction(tan_number(n), factorial(2 * n - 1))


def d_closed(n: int, k: int) -> Fraction:
    """Ladder coefficient from the closed-form rising product."""
    product = 1
    for j in range(k):
        product *= 2 * n + j
    return tan_coeff(n) / (2 ** (2 * n - 1) * product)


def e_step1(n: int) -> Fraction:
    return d_closed(n, 1)


def e_step2(n: int) -> Fraction:
    return e_step1(n) - d_closed(n, 2) / 2


def e_step3(n: int) -> Fraction:
    return (-d_closed(n, 3) / 2 + e_step1(n) / factorial(2)) / (1 - Fraction(1, 2**3))


def e_step4(n: int) -> Fraction:
    return d_closed(n, 4) / 2 + e_step3(n) / factorial(1) - e_step1(n) / factorial(3)


def e_step5(n: int) -> Fraction:
    numerator = d_closed(n, 5) / 2 + e_step3(n) / factorial(2) - e_step1(n) / factorial(4)
    return numerator / (1 - Fraction(1, 2**5))


E_STEPWISE = {1: e_step1, 2: e_step2, 3: e_step3, 4: e_step4, 5: e_step5}


@lru_cache(maxsize=None)
def e_recurrence(n: int, k: int) -> Fraction:
    """E_n(k) by the general recurrence, one reduced ``Fraction`` per operation.

    E_n(1) = D_n(1); with j = k // 2,
    E_n(k) = (-1)^j/2 D_n(k) + (-1)^(j+1) sum_{r<j} (-1)^r E_n(2r+1) / (k-2r-1)!,
    divided by 1 - 2^(-k) for odd k.  This is the recurrence the package
    evaluated before it carried integer numerators.
    """
    if k == 1:
        return d_closed(n, 1)
    j = k // 2
    odd_part = sum(
        (-1) ** r * e_recurrence(n, 2 * r + 1) / factorial(k - 2 * r - 1) for r in range(j)
    )
    value = Fraction((-1) ** j, 2) * d_closed(n, k) + (-1) ** (j + 1) * odd_part
    return value if k % 2 == 0 else value / (1 - Fraction(1, 1 << k))


def poly_comb(x: int, m: int) -> int:
    """C(x, m) = x (x-1) ... (x-m+1) / m! for any integer x, m >= 0: (-1)^m C(m-x-1, m)
    below 0."""
    return comb(x, m) if x >= 0 else (-1) ** m * comb(m - x - 1, m)


def odd_column_recursion(k_max: int, points, tangents) -> dict[int, list[int]]:
    """Columns 1..k_max of the recursion through the odd columns, at 2n = each of ``points``
    with T_n = the matching entry of ``tangents``.

    E_n(k) = N_n(k) / ((2n+k-1)! 4^n P_k) with P_k = prod_(odd 3 <= r <= k) (2^r - 1).
    With j = k // 2 and B = P_(k - k mod 2), :func:`e_recurrence` over these
    denominators reads N_n(k) = (-1)^j (T_n B - sum_(r<j) (-1)^r N_n(2r+1)
    C(2n+k-1, k-1-2r) B / P_(2r+1)), times 2^k for odd k: every column reads the
    rows of the odd columns below it.  The binomial is a polynomial in n, so with
    every T_n = 1 the recursion gives Q_k at any half-integer n, N_n(k) = T_n Q_k(n).
    """
    odd = [1, 1]  # P_0, P_1, ..., P_k_max
    for r in range(2, k_max + 1):
        odd.append(odd[-1] * ((1 << r) - 1 if r % 2 else 1))
    columns: dict[int, list[int]] = {}
    for k in (*range(1, k_max + 1, 2), *range(2, k_max + 1, 2)):
        j, base = k // 2, odd[k - k % 2]
        weights = [(-1) ** r * (base // odd[2 * r + 1]) for r in range(j)]
        columns[k] = [
            (-1) ** j * (t * base - sum(
                w * columns[2 * r + 1][i] * poly_comb(x + k - 1, k - 1 - 2 * r)
                for r, w in enumerate(weights)
            )) << (k % 2 * k)
            for i, (x, t) in enumerate(zip(points, tangents))
        ]
    return columns


def odd_column_numerators(k_max: int, rows: int) -> dict[int, list[int]]:
    """Columns 1..k_max of integer numerators N_n(k), n <= ``rows``, by the odd-column
    recursion: how the package built its columns before each came from its own
    quotient polynomial."""
    tangents = [tan_number(n) for n in range(1, rows + 1)]
    return odd_column_recursion(k_max, range(2, 2 * rows + 1, 2), tangents)


def quotient_values(k_max: int, points) -> dict[int, list[int]]:
    """Q_k(x / 2) for k = 1..k_max and each integer x of ``points``: the odd-column
    recursion with every T_n = 1."""
    points = list(points)
    return odd_column_recursion(k_max, points, [1] * len(points))


def accelerated_alternating_fractions(term, depth: int) -> tuple[Fraction, Fraction]:
    """Cohen-Rodriguez Villegas-Zagier acceleration with one reduced ``Fraction`` per step.

    The loop as the package ran it before its weights were kept as integers:
    returns (value, bound) of sum_j (-1)^j term(j) at the given depth, where
    ``term(j)`` is a ``(numerator, denominator)`` pair.
    """
    d_prev, d = 1, 3
    for _ in range(depth - 1):
        d_prev, d = d, 6 * d - d_prev
    b = Fraction(-1)
    c = Fraction(-d)
    s = Fraction(0)
    for j in range(depth):
        c = b - c
        s += c * Fraction(*term(j))
        b *= Fraction(2 * (j + depth) * (j - depth), (2 * j + 1) * (j + 1))
    return s / d, 4 * Fraction(*term(0)) / d


def round_div(a: int, b: int) -> int:
    """Nearest integer to a / b for b > 0, halves rounded up."""
    return (2 * a + b) // (2 * b)


def machin_pi(scale: int) -> int:
    """pi * 10^scale rounded, halves up: Machin's 16 atan(1/5) - 4 atan(1/239) on integers.

    Each arctangent sum is taken ten digits finer with floor divisions, whose
    drift and omitted tail stay below 3 units per term taken plus 4: below
    100 (scale + 10) fine units in all.  So the result is within half a unit
    plus 10^-8 (scale + 10), and it is the nearest integer except where pi lies
    that close to a half unit.
    """
    one = 10 ** (scale + 10)

    def arctan_recip(x: int) -> int:
        t = one // x
        total, sign, j = 0, 1, 0
        while t:
            total += sign * (t // (2 * j + 1))
            t //= x * x
            sign, j = -sign, j + 1
        return total

    return round_div(16 * arctan_recip(5) - 4 * arctan_recip(239), 10**10)


def theta_fixed(token: str, scale: int) -> int:
    """The angle ``pi/<q>`` or ``<rational>`` times 10^scale, within one unit."""
    if token.startswith("pi/"):
        return round_div(machin_pi(scale), int(token[3:]))
    value = Fraction(token)
    return round_div(value.numerator * 10**scale, value.denominator)


def sin_cos_fixed(xm: int, scale: int) -> tuple[int, int]:
    """sin and cos of x = xm * 10^-scale for |x| < 4, each within one unit of 10^-scale.

    Taylor sums on integers six digits finer, every term truncated: the
    truncations and the omitted tail stay below a hundred fine units, so after
    the final rounding the error is below half a unit plus 10^-4.
    """
    guard = 10**6
    one = 10**scale * guard
    x = abs(xm) * guard
    sums = []
    for term, i in ((x, 1), (one, 0)):
        total, sign = 0, 1
        while term:
            total += sign * term
            term = term * x * x // (one * one * (i + 1) * (i + 2))
            sign, i = -sign, i + 2
        sums.append(round_div(total, guard))
    s, c = sums
    return (s if xm >= 0 else -s), c


def sin_cos_enclosure(x_lo: Fraction, x_hi: Fraction, prec: int):
    """((cos_lo, cos_hi), (sin_lo, sin_hi)): rational bounds on cos x and sin x for
    every x in [x_lo, x_hi], 0 < x_lo <= x_hi.

    The Taylor term x^j / j! rises with x > 0, so it lies between its values at the
    two ends; those are carried as Fractions rounded outward to multiples of 2^-prec,
    and each sum takes the end that lowers or raises it.  The sums stop before the
    first term whose upper end is below 2^(2-prec), reached since the upper ends fall
    by a factor 4 or more, plus one unit, once j >= 4 x; by Lagrange's remainder that
    upper end bounds what either series omits.
    """
    unit = Fraction(1, 1 << prec)
    lo = hi = Fraction(1)
    bounds = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]  # cos, sin
    j = 0
    while hi >= 4 * unit:
        part = bounds[j % 2]
        if j % 4 < 2:
            part[0], part[1] = part[0] + lo, part[1] + hi
        else:
            part[0], part[1] = part[0] - hi, part[1] - lo
        j += 1
        lo = floor(lo * x_lo / j / unit) * unit
        hi = ceil(hi * x_hi / j / unit) * unit
    return tuple((low - hi, high + hi) for low, high in bounds)


class AngleEngine:
    """sin/cos of m*theta at high precision for any m.

    Values are produced at ``scale``; internally angles are reduced modulo
    2 pi at ``scale + EXTRA_SCALE`` so that multiplication by m and the
    reduction quotient cost far less than one output ulp.
    """

    def __init__(self, token: str, scale: int):
        self.hi_scale = scale + EXTRA_SCALE
        self.shift = 10**EXTRA_SCALE
        self.theta_hi = theta_fixed(token, self.hi_scale)
        self.pi_hi = machin_pi(self.hi_scale)

    def sin_cos(self, m: int) -> tuple[int, int, int]:
        """(sin, cos, err_ulp) of m*theta at ``scale``, via range reduction."""
        u = m * self.theta_hi
        two_pi = 2 * self.pi_hi
        q = u // two_pi
        rem = u - q * two_pi
        if rem > self.pi_hi:
            rem -= two_pi
        # theta is within one unit, so m*theta within m; each of the q multiples of
        # 2 pi removed is within two; sin and cos move by at most the angle's error
        err = m + 2 * q + 1
        s, c = sin_cos_fixed(rem, self.hi_scale)
        down = self.shift
        return round_div(s, down), round_div(c, down), err // down + 2
