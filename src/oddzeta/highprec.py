"""Binary midpoint-radius enclosures, pi, and the series sums.

A :class:`Ball` is an integer midpoint and radius in units of 2^-bits.  Every layer
computes on balls, pi from the Chudnovsky series straight into one, and each
operation adds to the radius what it carries and what its rounding loses.  A ball
names the decimal places it prints at, and :meth:`Ball.rounded` is the one place its
midpoint becomes decimal digits (the midpoint-radius discipline of F. Johansson,
Arb, IEEE Trans. Computers 66, 2017; Brent & Zimmermann, Modern Computer
Arithmetic, CUP 2010, ch. 3-4).

The series sums carry the power of pi/2 (or of the ladder's angle) over its
denominator as one binary quotient: the power is divided by the first
factorial-size denominator once, before row 1, and from then on the quotient is
cut row by row to 64 bits past the current term and divided by the small step of
the denominator, with its bound carried the same way.  Its length falls with the
terms' (the decreasing-precision evaluation of a series: Brent & Zimmermann,
ch. 4), and no row divides by a whole denominator.  Past row B // 8 + 1, B the bits
of pi/2, a sum of A_k reads no tangent number: each row is its exact rational moment
times lambda(2n) / 4^n, summed over a few odd m under a tail bound.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .coeffs import denominator_step, e_column, e_denominator, row_moments
from .errors import ResourceLimitError

__all__ = [
    "GUARD_DIGITS",
    "Ball",
    "SeriesResult",
    "compute_pi",
    "half_pi",
    "sum_series",
    "term_ratio_sequence",
]

GUARD_DIGITS = 10
MAX_PI_DIGITS = 100_000


def _working_scale(digits: int) -> int:
    """The scale a result at ``digits`` digits is computed at; refuses digits below 1."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return digits + GUARD_DIGITS


def _working_bits(scale: int) -> int:
    """The bits of a ball printed at ``scale`` places: 64 past the unit 10^-scale."""
    return (10**scale).bit_length() + 64


def _divround(a: int, b: int) -> int:
    """Nearest integer to a/b (b > 0), ties toward +infinity; error <= 1/2."""
    q, r = divmod(a, b)
    return q + (2 * r >= b)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _product_error(size_a: int, err_a: int, size_b: int, err_b: int, bits: int) -> int:
    """Bound on |a b - a~ b~| plus the rounding of a~ b~ to 2^-bits, in units of 2^-bits,
    for |a - a~| <= err_a, |b - b~| <= err_b, |a~| <= size_a and |b~| <= size_b:
    (size_a + err_a) err_b + size_b err_a over 2^bits, rounded up, plus 1."""
    return -(-((size_a + err_a) * err_b + size_b * err_a) >> bits) + 1


class Ball(namedtuple("Ball", "mid rad bits scale")):
    """The enclosure [mid - rad, mid + rad] 2^-bits, rad >= 0, printed at ``scale`` places.

    Two operands share one ``bits``.  A result's radius bounds the operands' radii carried
    through the operation plus the rounding of its midpoint to 2^-bits, so the result
    holds every value the operands hold.
    """

    __slots__ = ()

    def _check(self, other: "Ball") -> int:
        if other.bits != self.bits:
            raise ValueError(f"balls at {self.bits} and {other.bits} bits: shift one first")
        return self.bits

    def __add__(self, other: "Ball") -> "Ball":
        self._check(other)
        return self._replace(mid=self.mid + other.mid, rad=self.rad + other.rad)

    def __sub__(self, other: "Ball") -> "Ball":
        self._check(other)
        return self._replace(mid=self.mid - other.mid, rad=self.rad + other.rad)

    def __abs__(self) -> "Ball":
        # ||x| - |mid|| <= |x - mid|, so the radius holds
        return self._replace(mid=abs(self.mid))

    def __mul__(self, other: object):
        # without this a tuple repeats itself: Ball(15, 0, 4, 1) * 2 is an 8-tuple
        raise TypeError("Ball has no '*': use mul for a Ball or mul_ratio for an exact ratio")

    __rmul__ = __mul__

    def mul(self, other: "Ball") -> "Ball":
        bits = self._check(other)
        mid = ((self.mid * other.mid >> (bits - 1)) + 1) >> 1
        rad = _product_error(abs(self.mid), self.rad, abs(other.mid), other.rad, bits)
        return self._replace(mid=mid, rad=rad)

    def mul_ratio(self, num: int, den: int) -> "Ball":
        """Product with num/den (den > 0); the fraction need not be in lowest terms."""
        return self._replace(
            mid=_divround(self.mid * num, den), rad=_ceil_div(self.rad * abs(num), den) + 1
        )

    def pow_int(self, exponent: int) -> "Ball":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result, base = self._replace(mid=1 << self.bits, rad=0), self
        while exponent:
            if exponent & 1:
                result = result.mul(base)
            exponent >>= 1
            if exponent:
                base = base.mul(base)
        return result

    def shift(self, bits: int) -> "Ball":
        """The ball at ``bits``: exact with more bits; with fewer the midpoint is rounded
        to nearest, and the radius rounded up gains one unit for it."""
        d = self.bits - bits
        if d <= 0:
            return self._replace(mid=self.mid << -d, rad=self.rad << -d, bits=bits)
        mid = ((self.mid >> (d - 1)) + 1) >> 1
        return self._replace(mid=mid, rad=-(-self.rad >> d) + 1, bits=bits)

    def rounded(self) -> int:
        """The midpoint in units of 10^-scale, rounded to nearest, ties toward +infinity:
        the one place a binary value becomes decimal digits."""
        return ((self.mid * 10**self.scale >> (self.bits - 1)) + 1) >> 1

    def to_decimal(self) -> str:
        """Plain decimal string of :meth:`rounded` with exactly ``scale`` fractional digits."""
        mantissa = self.rounded()
        sign = "-" if mantissa < 0 else ""
        digits = abs(mantissa)
        if self.scale == 0:
            return f"{sign}{digits}"
        whole, frac = divmod(digits, 10**self.scale)
        return f"{sign}{whole}.{frac:0{self.scale}d}"

    def to_sci(self, sig: int = 6) -> str:
        """Scientific notation of :meth:`rounded` with ``sig`` significant digits."""
        mantissa = self.rounded()
        if mantissa == 0:
            return "0e+0"
        sign = "-" if mantissa < 0 else ""
        digits = str(abs(mantissa))
        exponent = len(digits) - 1 - self.scale
        if len(digits) > sig:
            rounded = str(_divround(abs(mantissa), 10 ** (len(digits) - sig)))
            if len(rounded) > sig:  # rounding produced a carry
                rounded = rounded[:sig]
                exponent += 1
            digits = rounded
        head, tail = digits[0], digits[1:].rstrip("0")
        mant = f"{head}.{tail}" if tail else head
        return f"{sign}{mant}e{exponent:+d}"


# 1/pi = 12 sum_k (-1)^k (6k)! (A + B k) / ((3k)! (k!)^3 C^(3k + 3/2)) with C = 640320
# (D. V. and G. V. Chudnovsky, 1988), so pi = 426880 sqrt(10005) / sum_k (-1)^k a_k (A + B k)
# with a_0 = 1 and a_k = a_(k-1) (6k-5)(2k-1)(6k-1) / (k^3 C^3 / 24)
_CHUD_A, _CHUD_B, _CHUD_C3_24 = 13_591_409, 545_140_134, 640_320**3 // 24


def _chudnovsky(bits: int) -> tuple[int, int]:
    """(m, err) with |pi 2^bits - m| <= err, for bits >= 64, by the Chudnovsky series.

    Each a_k is carried as a magnitude floored at 2^-bits.  It lies below its true
    value by less than 1 plus a_(k-1)'s shortfall times a ratio below 10^-14, so by
    less than 2.  The loop stops at the first a_K that floors to 0, whose true value
    is below 2; the omitted terms alternate and fall, so the sum S misses the true
    S_t by at most E = 2 K (A + B K).  With r = isqrt(10005 2^(2 bits)), the quotient
    X = 426880 r 2^bits / S has m = floor(X), and pi 2^bits = 426880 sqrt(10005)
    2^(2 bits) / S_t is within 426880 2^bits / (S - E) + X E / (S - E) of X.  The
    first part is below 1, since S is near 13591409 2^bits, and S - E >= 2^(bitlen(S) - 2)
    bounds the second by a shift of (m + 1) E.
    """
    a = 1 << bits
    total = _CHUD_A * a
    k = 0
    while a:
        k += 1
        a = a * ((6 * k - 5) * (2 * k - 1) * (6 * k - 1)) // (k * k * k * _CHUD_C3_24)
        total += (-a if k & 1 else a) * (_CHUD_A + _CHUD_B * k)
    bound = 2 * k * (_CHUD_A + _CHUD_B * k)
    m = (426_880 * isqrt(10_005 << 2 * bits) << bits) // total
    return m, ((m + 1) * bound >> (total.bit_length() - 2)) + 3


def compute_pi(digits: int) -> Ball:
    """pi printed at ``digits`` places, from the Chudnovsky series at 64 guard bits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > MAX_PI_DIGITS:
        raise ResourceLimitError(f"pi digits {digits} exceeds ceiling {MAX_PI_DIGITS}")
    bits = _working_bits(digits)
    mid, rad = _chudnovsky(bits)
    # below 2^63 units, the radius is below half a unit of 10^-digits
    if rad >> 63:
        raise ArithmeticError(f"pi error bound {rad} exceeds half a unit at {digits} digits")
    return Ball(mid, rad, bits, digits)


def half_pi(scale: int) -> Ball:
    """pi/2 printed at ``scale`` places: :func:`compute_pi` read one bit finer, exactly."""
    pi = compute_pi(scale)
    return pi._replace(bits=pi.bits + 1)


class SeriesResult:
    """Truncated evaluation of A_k = sum_n E_n(k) (pi/2)^(2n+k-1)."""

    # a plain class, not a NamedTuple: perfbench/worker.py counts terms_used by
    # wrapping __init__, and a NamedTuple has no __init__ of its own to wrap
    __slots__ = ("value", "terms_used", "tail_bound")

    def __init__(self, value: Ball, terms_used: int, tail_bound: Ball):
        self.value = value
        self.terms_used = terms_used
        self.tail_bound = tail_bound


def _series_terms(power: Ball, step: Ball, column, den: int, index: int) -> list[tuple[int, int]]:
    """(mid, rad) of power * step^(n-1) * column[n-1] / den_n for every row of ``column``.

    ``power`` and ``step`` are non-negative balls at one ``bits``, den > 0, and
    den_(n+1) = den_n * denominator_step(n, index).  Each pair is the rounded term and
    its bound in units of 2^-bits; the step is S 2^-bits within se.

    The power over its denominator is one binary quotient Q 2^-f with error at most
    qe 2^-f, in those units.  Before row 1, f = bitlen(den) + 64, Q = floor(P 2^f / den)
    and qe = floor(pe 2^f / den) + 2, for the power's midpoint P and radius pe.

    Each row's term is N Q 2^-f for its numerator N.  N is cut to 64 bits past Q,
    N = n' 2^c + r with 0 <= r < 2^c, and Q n' is rounded off f - c bits.  The exact
    product lies within (qe |n'| + [c > 0] (Q + qe)) 2^-(f-c) of Q n' 2^-(f-c), and the
    rounding adds 1/2, so with x that bound shifted down f - c bits, x + 2 bounds the
    error; a zero N gives 0 and 1.  The row then multiplies Q S, shifts off ``drop``
    bits to leave Q 64 bits past the row's term, and divides by the small integer
    step_n = denominator_step(n, index), carried as a running value:
    Q' = floor((Q S >> drop) / step_n) and
    qe' = floor((((Q + qe) se + S qe) >> drop) / step_n) + 2, so the bound stays
    rigorous while Q shrinks with the terms.

    With rho = qe / Q and m the row's midpoint, the row's bound is below
    (2 rho + 2^-62) (|m| + 1/2) + 2: qe |n'| 2^-(f-c) <= rho (|m| + 1/2), qe 2^-(f-c) is at
    most as much, and where N was cut, |n'| > 2^63 Q puts Q 2^-(f-c) below
    2^-63 (|m| + 1/2).  rho starts below pe / P + 2^-61 / P, the binary power's relative
    error and the floors, and each row adds below 2 se / S + 2^-61, since every later Q
    is at least 2^63.  For :func:`sum_series`, whose power is (pi/2)^(k+1), k <= 121, at
    B >= 69 bits, pe / P and se / S lie below 2^-50: pi's radius is about 1000 K^2 units
    of 2^-B for the K ~ B / 47 terms of :func:`_chudnovsky`, and ``pow_int`` adds its
    factors' relative bounds and 2^-B a product, each product being at least 1.  So over
    at most 5000 rows (the tangent index ceiling) rho < 2^-36, and each row's bound is
    below 2^-34 (|m| + 1/2) + 2 units of 2^-B.
    """
    s, se, frac, _ = step
    f = den.bit_length() + 64
    q, qe = (power.mid << f) // den, (power.rad << f) // den + 2
    # step_n = 4 (2n+index)(2n+index+1) and its growth step_(n+1) - step_n, which
    # rises by 32 a row
    divisor, grow = 4 * (index + 2) * (index + 3), 8 * (2 * index + 7)
    terms = []
    append = terms.append
    for num in column:
        cut = num.bit_length() - q.bit_length() - 64
        if cut > 0:
            num >>= cut
            shift = f - cut
            x = qe * (abs(num) + 1) + q
        else:
            shift = f
            x = qe * abs(num)
        if shift > 0:
            mantissa = ((q * num >> (shift - 1)) + 1) >> 1
            err = (x >> shift) + 2 if num else 1
        else:
            mantissa = q * num << -shift
            err = (x << -shift) + 2 if num else 1
        append((mantissa, err))
        qs = q * s
        bound = (q + qe) * se + s * qe
        drop = qs.bit_length() - divisor.bit_length() - mantissa.bit_length() - 64
        if drop >= 0:
            q, qe = (qs >> drop) // divisor, (bound >> drop) // divisor + 2
        else:
            q, qe = (qs << -drop) // divisor, (bound << -drop) // divisor + 2
        f += frac - drop
        divisor += grow
        grow += 32
    return terms


def _lambda_terms(prefix: Ball, moments, first: int, stop: int) -> list[tuple[int, int]]:
    """(mid, rad) of prefix * R_n * lambda(2n) / 4^n for n = first, first + 1, ..., R_n =
    num / den the pairs ``moments`` yields (den > 0), for a non-negative ball ``prefix``,
    up to the first row whose |midpoint| is at most ``stop``: the one place a sum stops.

    With p and e the prefix's midpoint and radius in units of 2^-B, p lambda(2n) / 4^n =
    sum_(m odd) p (2m)^-2n is carried as the integers y_m = floor(p (2m)^-2n): y_1 is
    p >> 2n, and y_3, y_5, ... are kept while they are at least 1; each row divides every
    y_m by 4 m^2, which floors to the same value, and drops those that reach 0.  The first odd m
    left out, M, has p (2M)^-2n < 1, and the odd m >= M sum to below
    M^-2n (1 + M / (2 (2n - 1))) (M^-2n plus the integral of x^-2n / 2 from M), so p times
    them is below 1 + ceil(M / (4n - 2)).  With S the sum of the y_m, p lambda(2n) / 4^n
    lies in [S, S + d), d adding that tail to one unit for each floor.  The prefix's radius
    adds e lambda(2n) / 4^n < e 2^(1-2n), as lambda(2n) <= lambda(2) < 2, so the row's
    exact value is within |R_n| t_n of R_n S for t_n = d + (e >> (2n - 1)) + 1, and the
    midpoint round(R_n S) within floor(|R_n| t) + 2 for any t >= t_n.  Each part of t_n
    only falls with n, so t is taken once, at the first row.  The loop needs no row count
    for a stop >= 0: once 2n reaches the bit length of p every y_m is 0, and so is the
    midpoint.  It also ends where ``moments`` does.
    """
    p, e = prefix.mid, prefix.rad
    ys = []  # y_3, y_5, ...
    while y := p // (4 * len(ys) + 6) ** (2 * first):
        ys.append(y)
    squares = [(4 * i + 6) ** 2 for i in range(len(ys))]
    t = len(ys) + 3 + _ceil_div(2 * len(ys) + 3, 4 * first - 2) + (e >> (2 * first - 1))
    terms = []
    append = terms.append
    y1 = p >> 2 * first
    for num, den in moments:
        s = y1
        if ys:
            s += sum(ys)
            ys = [y // sq for y, sq in zip(ys, squares) if y >= sq]  # row n + 1's
        mantissa = _divround(num * s, den)
        append((mantissa, abs(num) * t // den + 2))
        if abs(mantissa) <= stop:
            break
        y1 >>= 2
    return terms


def sum_series(k: int, digits: int) -> SeriesResult:
    """Evaluate A_k = sum_n E_n(k) (pi/2)^(2n+k-1), printed at ``digits`` places.

    The rows are those of the paper's series, evaluated two ways with one bookkeeping:
    each is a (midpoint, bound) pair in units of 2^-B at the bits B of pi/2.

    * Rows n <= n0 = B // 8 + 1 are the exact rationals N_n(k) / den(n, k), never reduced
      by a gcd: :func:`_series_terms` carries the power of pi/2 over its denominator, as
      one binary quotient, row to row on plain integers, 64 bits past the printed digits.
    * Rows past n0 are (pi/2)^(k-1) R_k(n) lambda(2n) / 4^n (the moment form in
      :mod:`oddzeta.coeffs`), with R_k(n) from the stored weight and lambda(2n) summed
      over the few odd m whose term reaches a unit of 2^-B, under a rigorous tail bound
      (:func:`_lambda_terms`).  They need no tangent number and no power of pi: past n0
      three to five odd m reach a unit of 2^-B for most columns, and from about row B/5
      only m = 1.

    The sum stops at the first row past n0 whose midpoint rounds to at most 100 units of
    10^-w at the working scale w, which carries the guard digits: 2 |m| 10^w < 201 2^B.
    The terms fall by about 4 a row from far above that line at n0: for every column the
    store serves the stop row lies five or more rows past n0 (``tests/test_highprec.py``),
    the margin growing with the digits, so no exact row is tested against the line.
    The value's radius adds to the per-term bounds (|m_N| + err_N) // 3 + 1 for the
    omitted tail, m_N being the last term's midpoint and err_N its bound.  The tail is
    below t_N / 3, a third of the true last term, for every column the store serves
    (the moment lemma in :mod:`oddzeta.coeffs`), and t_N <= |m_N| + err_N.
    """
    work = _working_scale(digits)
    hp = half_pi(digits)
    n0 = hp.bits // 8 + 1
    stop = ((201 << hp.bits) - 1) // (2 * 10**work)
    terms = _series_terms(hp.pow_int(k + 1), hp.mul(hp), e_column(k, n0), e_denominator(1, k), k)
    terms += _lambda_terms(hp.pow_int(k - 1), row_moments(k, n0 + 1), n0 + 1, stop)
    mantissas, errs = zip(*terms)
    tail = (abs(mantissas[-1]) + errs[-1]) // 3 + 1
    value = Ball(sum(mantissas), sum(errs) + tail, hp.bits, digits)
    return SeriesResult(value, len(terms), Ball(tail, 0, hp.bits, work))


def term_ratio_sequence(k: int, n_count: int, digits: int = 15) -> list[tuple[int, Ball]]:
    """Diagnostic sequence |E_(n+1)(k) / E_n(k)| * (pi/2)^2 for n = 1..n_count.

    The sequence tends to 1/4 and, by the moment lemma in :mod:`oddzeta.coeffs`,
    stays below it at every n: that is the geometric tail bound of :func:`sum_series`,
    proven, not read off these values.
    """
    if n_count < 1:
        raise ValueError("n_count must be >= 1")
    work = _working_scale(digits)
    column = e_column(k, n_count + 1)
    hp = half_pi(work)
    step = hp.mul(hp)._replace(scale=digits)
    # E_(n+1)(k) / E_n(k) = N_(n+1)(k) / (N_n(k) * den(n+1, k) / den(n, k))
    return [
        (n, step.mul_ratio(abs(num), abs(prev) * denominator_step(n, k)))
        for n, (prev, num) in enumerate(zip(column, column[1:]), 1)
    ]
