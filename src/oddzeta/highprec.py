"""Fixed-point decimal arithmetic with tracked error bounds, pi, and series sums.

Values are ``mantissa * 10^(-scale)`` with an integer ``err_ulp`` that is a
true upper bound on the absolute error in units of the last place.  Every
operation propagates the bound conservatively; bounds only ever grow.

The series sums give their terms at such a scale, but carry the power of pi/2
(or of the ladder's angle) in binary.  The decimal power is divided by the
first factorial-size denominator once, before row 1, and from then on the
power over its denominator is carried as one binary quotient, cut row by row
to 64 bits past the current term and divided by the small step of the
denominator, with its bound carried the same way.  Its length falls with the
terms' (the decreasing-precision evaluation of a series: Brent & Zimmermann,
Modern Computer Arithmetic, CUP 2010, ch. 4), and no row divides by a whole
denominator or by a power of ten.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .coeffs import denominator_step, e_column, e_denominator
from .errors import ResourceLimitError

__all__ = [
    "GUARD_DIGITS",
    "FixedDecimal",
    "SeriesResult",
    "compute_pi",
    "estimate_terms",
    "half_pi",
    "sum_series",
    "term_ratio_sequence",
]

GUARD_DIGITS = 10
MAX_PI_DIGITS = 100_000

# log10(4) scaled by 10^6 and rounded down, so that row counts round up
_LOG10_4_MICRO = 602_059


def _working_scale(digits: int) -> int:
    """The scale a result at ``digits`` digits is computed at; refuses digits below 1."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return digits + GUARD_DIGITS


def _divround(a: int, b: int) -> int:
    """Nearest integer to a/b (b > 0), ties toward +infinity; error <= 1/2."""
    q, r = divmod(a, b)
    return q + (2 * r >= b)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class FixedDecimal(namedtuple("FixedDecimal", "mantissa scale err_ulp", defaults=(0,))):
    """Fixed-point decimal ``mantissa * 10^(-scale)`` with error ``<= err_ulp`` ulp."""

    __slots__ = ()

    def as_fraction(self) -> Fraction:
        """Midpoint of the enclosure (ignores err_ulp)."""
        from fractions import Fraction

        return Fraction(self.mantissa, 10**self.scale)

    def bounds(self) -> tuple[Fraction, Fraction]:
        from fractions import Fraction

        ulp = Fraction(1, 10**self.scale)
        mid = self.as_fraction()
        return mid - self.err_ulp * ulp, mid + self.err_ulp * ulp

    def rescale(self, scale: int) -> "FixedDecimal":
        if scale == self.scale:
            return self
        if scale > self.scale:
            shift = 10 ** (scale - self.scale)
            return FixedDecimal(self.mantissa * shift, scale, self.err_ulp * shift)
        shift = 10 ** (self.scale - scale)
        m = _divround(self.mantissa, shift)
        # propagated err/shift plus <= 1/2 rounding, rounded up to an integer
        err = _ceil_div(2 * self.err_ulp + shift, 2 * shift)
        return FixedDecimal(m, scale, err)

    def _aligned(self, other: "FixedDecimal") -> tuple["FixedDecimal", "FixedDecimal"]:
        s = max(self.scale, other.scale)
        return self.rescale(s), other.rescale(s)

    def __add__(self, other: "FixedDecimal") -> "FixedDecimal":
        a, b = self._aligned(other)
        return FixedDecimal(a.mantissa + b.mantissa, a.scale, a.err_ulp + b.err_ulp)

    def __sub__(self, other: "FixedDecimal") -> "FixedDecimal":
        a, b = self._aligned(other)
        return FixedDecimal(a.mantissa - b.mantissa, a.scale, a.err_ulp + b.err_ulp)

    def __neg__(self) -> "FixedDecimal":
        return FixedDecimal(-self.mantissa, self.scale, self.err_ulp)

    def __abs__(self) -> "FixedDecimal":
        return FixedDecimal(abs(self.mantissa), self.scale, self.err_ulp)

    def __mul__(self, other: object):
        # without this a tuple repeats itself: FixedDecimal(15, 1) * 2 is a 6-tuple
        raise TypeError(
            "FixedDecimal does not support '*': use mul for a FixedDecimal factor "
            "or mul_ratio for an exact ratio"
        )

    __rmul__ = __mul__

    def mul(self, other: "FixedDecimal") -> "FixedDecimal":
        a, b = self._aligned(other)
        unit = 10**a.scale
        m = _divround(a.mantissa * b.mantissa, unit)
        cross = abs(a.mantissa) * b.err_ulp + abs(b.mantissa) * a.err_ulp
        err = _ceil_div(cross + a.err_ulp * b.err_ulp, unit) + 1
        return FixedDecimal(m, a.scale, err)

    def mul_ratio(self, num: int, den: int) -> "FixedDecimal":
        """Product with num/den (den > 0); the fraction need not be in lowest terms."""
        m = _divround(self.mantissa * num, den)
        err = _ceil_div(self.err_ulp * abs(num), den) + 1
        return FixedDecimal(m, self.scale, err)

    def pow_int(self, exponent: int) -> "FixedDecimal":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result = FixedDecimal(10**self.scale, self.scale)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return result

    def to_decimal(self) -> str:
        """Plain decimal string with exactly ``scale`` fractional digits."""
        sign = "-" if self.mantissa < 0 else ""
        digits = abs(self.mantissa)
        if self.scale == 0:
            return f"{sign}{digits}"
        whole, frac = divmod(digits, 10**self.scale)
        return f"{sign}{whole}.{frac:0{self.scale}d}"

    def to_sci(self, sig: int = 6) -> str:
        """Scientific notation with ``sig`` significant digits (deterministic)."""
        if self.mantissa == 0:
            return "0e+0"
        sign = "-" if self.mantissa < 0 else ""
        digits = str(abs(self.mantissa))
        exponent = len(digits) - 1 - self.scale
        if len(digits) > sig:
            rounded = str(_divround(abs(self.mantissa), 10 ** (len(digits) - sig)))
            if len(rounded) > sig:  # rounding produced a carry
                rounded = rounded[:sig]
                exponent += 1
            digits = rounded
        digits = digits.ljust(sig, "0") if len(digits) < sig else digits
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


def compute_pi(digits: int) -> FixedDecimal:
    """pi with err_ulp <= 1 at the requested scale (Chudnovsky series, 64 guard bits)."""
    work = _working_scale(digits)
    if digits > MAX_PI_DIGITS:
        raise ResourceLimitError(f"pi digits {digits} exceeds ceiling {MAX_PI_DIGITS}")
    unit = 10**work
    bits = unit.bit_length() + 64
    m, err = _chudnovsky(bits)
    # the floor to the working scale loses less than one ulp
    result = FixedDecimal((m * unit) >> bits, work, ((err * unit) >> bits) + 2).rescale(digits)
    if result.err_ulp > 1:
        raise ArithmeticError(f"pi error bound {result.err_ulp} ulp exceeds the promised 1 ulp")
    return result


def half_pi(scale: int) -> FixedDecimal:
    """pi/2 at the given scale with err_ulp <= 1, halved from :func:`compute_pi` at that scale."""
    return FixedDecimal(_divround(compute_pi(scale).mantissa, 2), scale, 1)


class SeriesResult:
    """Truncated evaluation of A_k = sum_n E_n(k) (pi/2)^(2n+k-1)."""

    # a plain class, not a NamedTuple: perfbench/worker.py counts terms_used by
    # wrapping __init__, and a NamedTuple has no __init__ of its own to wrap
    __slots__ = ("value", "terms_used", "tail_bound", "k")

    def __init__(self, value: FixedDecimal, terms_used: int, tail_bound: FixedDecimal, k: int):
        self.value = value
        self.terms_used = terms_used
        self.tail_bound = tail_bound
        self.k = k


def estimate_terms(digits: int, k: int) -> int:
    """Row count whose geometric tail (ratio 1/4) sits below 10^-(digits+guard).

    The term ratio tends to 1/4 (E_(n+1)(k) / E_n(k) tends to 1/pi^2, and a
    row multiplies the power by (pi/2)^2), and the (pi/2)^(k-1) prefactor adds
    roughly a fifth of a digit per unit of k.  :func:`sum_series` stops on its
    own cutoff a dozen rows or more before the count returned here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    need = _working_scale(digits) + 1 + (k + 4) // 5
    return _ceil_div(need * 10**6, _LOG10_4_MICRO) + 5


def _series_terms(
    power: FixedDecimal, step: FixedDecimal, column, den: int, index: int, stop: bool = False
) -> list[tuple[int, int]]:
    """(mantissa, err_ulp) of power * step^(n-1) * column[n-1] / den_n for n = 1, 2, ...

    ``power`` and ``step`` are non-negative and share one scale, den > 0, and
    den_(n+1) = den_n * denominator_step(n, index).  Each pair is the rounded term and
    its bound at that scale.  The step is converted once to S 2^-F, with F fractional
    bits, 64 more than the scale has.

    The power over its denominator is one binary quotient Q 2^-f with error at most
    qe 2^-f.  Before row 1, f = bitlen(den) + 64, Q = floor(P 2^f / den) and
    qe = floor(pe 2^f / den) + 2, for the power's mantissa P and bound pe.

    Each row's term is N Q 2^-f for its numerator N.  N is cut to 64 bits past Q,
    N = n' 2^c + r with 0 <= r < 2^c, and Q n' is rounded off f - c bits.  The exact
    product lies within (qe (|n'| + 1) + [c > 0] Q) 2^-(f-c) of Q n' 2^-(f-c), and the
    rounding adds 1/2, so with x that bound shifted down f - c bits, x + 2 bounds the
    error; a zero N gives 0 and 1.  The row then multiplies Q S, shifts off ``drop``
    bits to leave Q 64 bits past the row's term, and divides by the small integer
    step_n = denominator_step(n, index), carried as a running value:
    Q' = floor((Q S >> drop) / step_n) and
    qe' = floor((((Q + qe) se + S qe) >> drop) / step_n) + 2, so the bound stays
    rigorous while Q shrinks with the terms.

    With ``stop``, the loop is :func:`sum_series`'s: it ends at the first row n >= 5
    whose term is at most 100 ulp, and that term's bound is 2, or 1 for a zero N.  With
    rho = qe / Q and m the row's mantissa, qe |n'| 2^-(f-c) <= rho (|m| + 1/2), and the
    rest of x 2^-(f-c) is at most as much where N was not cut (|n'| >= 1) and below
    2^-62 (|m| + 1/2) where it was (|n'| > 2^63 Q); so x 2^-(f-c) < 1 while
    rho < 10^-3 and |m| <= 100.  For :func:`sum_series`, whose power is (pi/2)^(k+1)
    with k <= 121 at a scale d >= 11, rho stays below 10^-6: it starts below
    pe / P + 2^-62, with pe / P < 200 10^-d (``pow_int`` adds its factors' relative
    bounds and 2 / P a product), and each of at most 5000 rows (the tangent index
    ceiling) adds below 2 se / S + 2^-61, with se / S < 3 10^-d, since every later Q
    is at least 2^63.
    """
    unit = 10**power.scale
    frac = unit.bit_length() + 64
    s = _divround(step.mantissa << frac, unit)
    se = _ceil_div(step.err_ulp << frac, unit) + 1
    f = den.bit_length() + 64
    q, qe = (power.mantissa << f) // den, (power.err_ulp << f) // den + 2
    # step_n = 4 (2n+index)(2n+index+1) and its growth step_(n+1) - step_n, which
    # rises by 32 a row
    divisor, grow = 4 * (index + 2) * (index + 3), 8 * (2 * index + 7)
    terms = []
    append = terms.append
    for n, num in enumerate(column, 1):
        cut = num.bit_length() - q.bit_length() - 64
        if cut > 0:
            num >>= cut
            shift = f - cut
            x = qe * (abs(num) + 1) + q
        else:
            shift = f
            x = qe * (abs(num) + 1)
        if shift > 0:
            mantissa = ((q * num >> (shift - 1)) + 1) >> 1
            err = (x >> shift) + 2 if num else 1
        else:
            mantissa = q * num << -shift
            err = (x << -shift) + 2 if num else 1
        append((mantissa, err))
        if stop and n >= 5 and abs(mantissa) <= 100:
            break
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


def sum_series(k: int, digits: int) -> SeriesResult:
    """Evaluate A_k = sum_n E_n(k) (pi/2)^(2n+k-1) to ``digits`` digits.

    Terms are exact rationals N_n(k) / den(n, k), never reduced by a gcd:
    the numerators are read from column k of the coefficient store grown
    once to :func:`estimate_terms` rows, and :func:`_series_terms` carries the
    power of pi/2 over its denominator, as one binary quotient, row to row on
    plain integers, and stops the sum.
    The reported error bound adds to the per-term bounds |m_N| // 2 + 1 ulp for the
    omitted tail, m_N being the last term's mantissa.  The tail is below t_N / 3, a
    third of the true last term, for every column the store serves (the moment lemma
    in :mod:`oddzeta.coeffs`), and t_N <= |m_N| + err_N <= |m_N| + 2 at the stop row
    (:func:`_series_terms`).  Since |m| // 2 + 1 >= (|m| + 2) / 3 for every |m| >= 0,
    the added term covers (|m_N| + err_N) / 3 and so the tail.
    """
    column = e_column(k, estimate_terms(digits, k))
    work = _working_scale(digits)
    hp = half_pi(work)
    terms = _series_terms(hp.pow_int(k + 1), hp.mul(hp), column, e_denominator(1, k), k, stop=True)
    mantissas, errs = zip(*terms)
    tail_ulp = abs(mantissas[-1]) // 2 + 1
    value = FixedDecimal(sum(mantissas), work, sum(errs) + tail_ulp).rescale(digits)
    return SeriesResult(
        value=value,
        terms_used=len(terms),
        tail_bound=FixedDecimal(tail_ulp, work, 0),
        k=k,
    )


def term_ratio_sequence(k: int, n_count: int, digits: int = 15) -> list[tuple[int, FixedDecimal]]:
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
    step = hp.mul(hp)
    # E_(n+1)(k) / E_n(k) = N_(n+1)(k) / (N_n(k) * den(n+1, k) / den(n, k))
    return [
        (n, step.mul_ratio(abs(num), abs(prev) * denominator_step(n, k)).rescale(digits))
        for n, (prev, num) in enumerate(zip(column, column[1:]), 1)
    ]
