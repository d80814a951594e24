"""Fixed-point decimal arithmetic with tracked error bounds, pi, and series sums.

Values are ``mantissa * 10^(-scale)`` with an integer ``err_ulp`` that is a
true upper bound on the absolute error in units of the last place.  Every
operation propagates the bound conservatively; bounds only ever grow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coeffs import denominator_step, e_column, e_denominator
from .errors import ResourceLimitError, TailRatioError

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


def _divround(a: int, b: int) -> int:
    """Nearest integer to a/b (b > 0), ties toward +infinity; error <= 1/2."""
    q, r = divmod(a, b)
    return q + (2 * r >= b)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class FixedDecimal(NamedTuple):
    """Fixed-point decimal ``mantissa * 10^(-scale)`` with error ``<= err_ulp`` ulp."""

    mantissa: int
    scale: int
    err_ulp: int = 0

    @classmethod
    def from_int(cls, value: int, scale: int) -> "FixedDecimal":
        return cls(value * 10**scale, scale, 0)

    @classmethod
    def from_fraction(cls, value: Fraction, scale: int) -> "FixedDecimal":
        m = _divround(value.numerator * 10**scale, value.denominator)
        return cls(m, scale, 1)

    def as_fraction(self) -> Fraction:
        """Midpoint of the enclosure (ignores err_ulp)."""
        return Fraction(self.mantissa, 10**self.scale)

    def bounds(self) -> tuple[Fraction, Fraction]:
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

    def mul(self, other: "FixedDecimal") -> "FixedDecimal":
        a, b = self._aligned(other)
        unit = 10**a.scale
        m = _divround(a.mantissa * b.mantissa, unit)
        cross = abs(a.mantissa) * b.err_ulp + abs(b.mantissa) * a.err_ulp
        err = _ceil_div(cross + a.err_ulp * b.err_ulp, unit) + 1
        return FixedDecimal(m, a.scale, err)

    __mul__ = mul

    def mul_ratio(self, num: int, den: int) -> "FixedDecimal":
        """Product with num/den (den > 0); the fraction need not be in lowest terms."""
        m = _divround(self.mantissa * num, den)
        err = _ceil_div(self.err_ulp * abs(num), den) + 1
        return FixedDecimal(m, self.scale, err)

    def mul_fraction(self, q: Fraction) -> "FixedDecimal":
        return self.mul_ratio(q.numerator, q.denominator)

    def pow_int(self, exponent: int) -> "FixedDecimal":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result = FixedDecimal.from_int(1, self.scale)
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


def _arctan_recip(x: int, scale: int) -> tuple[int, int]:
    """(mantissa, err_ulp) for arctan(1/x) at 10^(-scale), x >= 2.

    Alternating series sum_j (-1)^j / ((2j+1) x^(2j+1)); floor-division drift
    stays below 2 ulp per power and the omitted tail is below a few ulp.
    """
    one = 10**scale
    xsq = x * x
    t = one // x
    total = 0
    sign = 1
    j = 0
    while t:
        total += sign * (t // (2 * j + 1))
        t //= xsq
        sign = -sign
        j += 1
    return total, 3 * j + 4


def compute_pi(digits: int) -> FixedDecimal:
    """pi with err_ulp <= 1 at the requested scale (Machin arctangent sum)."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > MAX_PI_DIGITS:
        raise ResourceLimitError(f"pi digits {digits} exceeds ceiling {MAX_PI_DIGITS}")
    work = digits + GUARD_DIGITS
    a5, e5 = _arctan_recip(5, work)
    a239, e239 = _arctan_recip(239, work)
    result = FixedDecimal(16 * a5 - 4 * a239, work, 16 * e5 + 4 * e239).rescale(digits)
    if result.err_ulp > 1:
        raise ArithmeticError(f"pi error bound {result.err_ulp} ulp exceeds the promised 1 ulp")
    return result


def half_pi(scale: int) -> FixedDecimal:
    """pi/2 at the given scale with err_ulp <= 1."""
    p = compute_pi(scale)
    return FixedDecimal(_divround(p.mantissa, 2), scale, 1)


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
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    need = digits + GUARD_DIGITS + 1 + (k + 4) // 5
    return _ceil_div(need * 10**6, _LOG10_4_MICRO) + 5


def sum_series(k: int, digits: int) -> SeriesResult:
    """Evaluate A_k = sum_n E_n(k) (pi/2)^(2n+k-1) to ``digits`` digits.

    Terms are exact rationals N_n(k) / den(n, k), never reduced by a gcd:
    the numerators are read from column k of the coefficient store grown
    once to :func:`estimate_terms` rows, and the denominator is carried row
    to row beside an incrementally maintained fixed-point power of pi/2.
    The reported error bound covers per-term rounding plus a geometric tail
    bound |last| * (1/3) / (1 - 1/3); a runtime check aborts if observed
    consecutive terms ever decay slower than 1/3 past burn-in.
    """
    column = e_column(k, estimate_terms(digits, k))
    den = e_denominator(1, k)
    work = digits + GUARD_DIGITS
    hp = half_pi(work)
    step = hp.mul(hp)
    power = hp.pow_int(k + 1)
    total = 0
    total_err = 0
    prev_abs: int | None = None
    noise_floor = 1000
    cutoff = 100
    terms = 0
    for n, num in enumerate(column, 1):
        # the shared power of two is most of what a reduction would remove; a shift drops it
        twos = ((num | den) & -(num | den)).bit_length() - 1
        term = power.mul_ratio(num >> twos, den >> twos)
        total += term.mantissa
        total_err += term.err_ulp
        terms = n
        magnitude = abs(term.mantissa)
        if (
            prev_abs is not None
            and n > 5
            and prev_abs > noise_floor
            and 3 * magnitude > prev_abs + 8
        ):
            raise TailRatioError(
                f"consecutive term ratio exceeded 1/3 at n={n}, k={k}: "
                f"|t_n|={magnitude} vs |t_(n-1)|={prev_abs}"
            )
        prev_abs = magnitude
        if magnitude <= cutoff and n >= 5:
            break
        power = power.mul(step)
        den *= denominator_step(n, k)
    tail_ulp = (prev_abs or 0) // 2 + 1
    value = FixedDecimal(total, work, total_err + tail_ulp).rescale(digits)
    return SeriesResult(
        value=value,
        terms_used=terms,
        tail_bound=FixedDecimal(tail_ulp, work, 0),
        k=k,
    )


def term_ratio_sequence(k: int, n_count: int, digits: int = 15) -> list[tuple[int, FixedDecimal]]:
    """Diagnostic sequence |E_(n+1)(k) / E_n(k)| * (pi/2)^2 for n = 1..n_count.

    The sequence settles near 1/4, which is what makes the geometric tail
    bound in :func:`sum_series` sound.
    """
    if n_count < 1:
        raise ValueError("n_count must be >= 1")
    column = e_column(k, n_count + 1)
    work = digits + GUARD_DIGITS
    hp = half_pi(work)
    step = hp.mul(hp)
    # E_(n+1)(k) / E_n(k) = N_(n+1)(k) / (N_n(k) * den(n+1, k) / den(n, k))
    return [
        (n, step.mul_ratio(abs(num), abs(prev) * denominator_step(n, k)).rescale(digits))
        for n, (prev, num) in enumerate(zip(column, column[1:]), 1)
    ]
