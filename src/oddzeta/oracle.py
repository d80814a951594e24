"""Independent reference values and the verification harness.

Every reference here is computed by a method unrelated to the pi/2-power
series machinery: Chebyshev-polynomial convergence acceleration (Cohen,
Rodriguez Villegas and Zagier, Experimental Math. 9, 2000) for the
alternating eta/beta sums, with zeta at every argument s >= 2 following
from eta(s) by an exact factor, an atanh series for ln 2, and a transformed
arctangent series for pi.  The acceleration keeps its Chebyshev weights as
integers and sums the weighted terms in binary fixed point, each floored at
2^-64, so the accelerated sum lies in an enclosure one unit of 2^-64 wide
per term.  The reference is a ball around the midpoint of that enclosure,
whose radius adds the half-width to the acceleration's own error.  Only the
ball record and the raw integer primitives are shared with the production
path, so a bug there cannot silently confirm itself.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple

from .constants import compute_constant, parse_constant_name, valid_name_summary
from .errors import ResourceLimitError, UnknownConstantError
from .highprec import Ball, _ceil_div, _divround, _working_bits

__all__ = [
    "VerificationReport",
    "accelerated_alternating",
    "default_battery",
    "matched_digit_count",
    "reference_beta",
    "reference_eta",
    "reference_for",
    "reference_ln2",
    "reference_pi",
    "reference_zeta_even",
    "reference_zeta_odd",
    "verify",
]

#: digits past the request at which :func:`verify` evaluates both sides
VERIFY_EXTRA_DIGITS = 2
#: deepest acceleration a reference sum runs, about 30 600 digits
MAX_ACCELERATION_DEPTH = 40_000

# digits gained per acceleration term: log10(3 + sqrt 8) = 0.7655...
_ACCEL_LOG10_NUM = 765_551
_ACCEL_LOG10_DEN = 10**6


def _to_ball(value: tuple[int, int], bound: tuple[int, int], digits: int) -> Ball:
    """The ball, printed at ``digits``, of the (numerator, denominator) pair ``value``
    with ``bound`` its error: the midpoint rounded to nearest adds 1/2 to the bound."""
    bits = _working_bits(digits)
    (vn, vd), (bn, bd) = value, bound
    return Ball(_divround(vn << bits, vd), _ceil_div(bn << bits, bd) + 1, bits, digits)


def acceleration_depth(digits: int) -> int:
    return _ceil_div(digits * _ACCEL_LOG10_DEN, _ACCEL_LOG10_NUM) + 8


def _chebyshev_at_3(n: int) -> int:
    """d_n = T_n(3), the Chebyshev polynomial at 3, by doubling over the bits of n >= 1.

    From (T_m, T_(m+1)), T_2m = 2 T_m^2 - 1, T_(2m+1) = 2 T_m T_(m+1) - 3 and
    T_(2m+2) = 2 T_(m+1)^2 - 1 (T_i T_j = (T_(i+j) + T_(i-j)) / 2, T_1 = 3): the same
    integer as n - 1 steps of d' = 6 d - d_prev from d_0 = 1, d_1 = 3.
    """
    a, b = 1, 3  # T_0, T_1
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b = 2 * a * b - 3, 2 * b * b - 1
        else:
            a, b = 2 * a * a - 1, 2 * a * b - 3
    return a


def accelerated_alternating(
    stride: int, s: int, depth: int, digits: int, factor: tuple[int, int] = (1, 1)
) -> Ball:
    """fn/fd * sum_{j>=0} (-1)^j / (1 + stride j)^s at ``digits``, Chebyshev-accelerated.

    ``factor`` = (fn, fd) is a positive exact ratio.  The terms are totally monotone
    (moments of a positive measure on [0, 1]), so the acceleration at ``depth``
    misses the sum by less than 4 / d_depth, d_depth ~ (3 + sqrt 8)^depth.  Its value
    is S / d_depth, S = sum_j c_j / (1 + stride j)^s over integer weights c_j.  Each
    weighted term is floored at 2^-64, so the sum ``acc`` of the floors has S 2^64 in
    [acc, acc + depth).  The ball's midpoint is (acc + depth / 2) 2^-64 fn / (d_depth fd)
    rounded once, and its radius 4 / d_depth plus the half-width depth 2^-65 / d_depth,
    both times the factor, plus the rounding.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    d = _chebyshev_at_3(depth)
    b = -1
    c = -d
    acc = 0
    for j in range(depth):
        c = b - c
        acc += (c << 64) // (1 + stride * j) ** s
        b, rest = divmod(b * (2 * (j + depth) * (j - depth)), (2 * j + 1) * (j + 1))
        if rest:
            raise ArithmeticError(f"Chebyshev weight b_{j + 1} at depth {depth} is not an integer")
    fn, fd = factor
    den = fd * d << 65
    return _to_ball(((2 * acc + depth) * fn, den), (((8 << 64) + depth) * fn, den), digits)


def _accelerated_sum(
    stride: int, s: int, digits: int, factor: tuple[int, int] = (1, 1)
) -> Ball:
    """fn/fd * sum_j (-1)^j / (1 + stride j)^s, accelerated deep enough for ``digits``."""
    depth = acceleration_depth(digits + 3)
    if depth > MAX_ACCELERATION_DEPTH:
        raise ResourceLimitError(f"acceleration depth {depth} beyond supported range")
    return accelerated_alternating(stride, s, depth, digits, factor)


def _zeta_from_eta(s: int, digits: int) -> Ball:
    """zeta(s) = eta(s) * 2^(s-1)/(2^(s-1)-1), s >= 2, the factor exact on value and bound."""
    f = 1 << (s - 1)
    return _accelerated_sum(1, s, digits, factor=(f, f - 1))


def reference_eta(s: int, digits: int) -> Ball:
    """eta(s) = sum (-1)^(m+1) / m^s by certified alternating-series acceleration."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return _accelerated_sum(1, s, digits)


def reference_beta(s: int, digits: int) -> Ball:
    """beta(s) = sum (-1)^m / (2m+1)^s by the same certified acceleration."""
    if s < 2:
        raise ValueError("s must be >= 2")
    return _accelerated_sum(2, s, digits)


def reference_zeta_odd(k: int, digits: int) -> Ball:
    """zeta(2k+1) from the accelerated eta(2k+1) sum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _zeta_from_eta(2 * k + 1, digits)


def reference_zeta_even(n: int, digits: int) -> Ball:
    """zeta(2n) from the accelerated eta(2n) sum, independent of the Bernoulli closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _zeta_from_eta(2 * n, digits)


def reference_ln2(digits: int) -> Ball:
    """ln 2 = 2 atanh(1/3) = 2 sum_j 1 / ((2j+1) 3^(2j+1)); tail < term / 8."""
    from fractions import Fraction  # imported on use: verify never calls this reference

    if digits < 1:
        raise ValueError("digits must be >= 1")
    threshold = Fraction(1, 10 ** (digits + 4))
    total = Fraction(0)
    j = 0
    while True:
        t = Fraction(2, (2 * j + 1) * 3 ** (2 * j + 1))
        total += t
        if t < threshold:
            return _to_ball(total.as_integer_ratio(), (t / 8).as_integer_ratio(), digits)
        j += 1


def reference_pi(digits: int) -> Ball:
    """pi = sum_n 2 (n!)^2 2^(n+1) / (2n+1)! (Euler-transformed arctangent at 1).

    Positive terms with ratio (n+1)/(2n+3) < 1/2, so the tail after any term
    is below twice the next term.
    """
    from fractions import Fraction  # imported on use: verify never calls this reference

    if digits < 1:
        raise ValueError("digits must be >= 1")
    threshold = Fraction(1, 10 ** (digits + 4))
    u = Fraction(2)
    total = Fraction(0)
    n = 0
    while True:
        total += u
        nxt = u * Fraction(n + 1, 2 * n + 3)
        if nxt < threshold:
            return _to_ball(total.as_integer_ratio(), (2 * nxt).as_integer_ratio(), digits)
        u = nxt
        n += 1


def reference_for(name: str, digits: int) -> Ball:
    """Reference value for any supported constant identifier."""
    base, param = parse_constant_name(name)
    if base == "catalan":
        return reference_beta(2, digits)
    if base == "apery":
        return reference_zeta_odd(1, digits)
    if base == "alt_harmonic":
        return reference_eta(1, digits)
    if base == "beta_even":
        return reference_beta(2 * param, digits)
    if base == "eta_odd":
        return reference_eta(2 * param + 1, digits)
    if base == "zeta_odd":
        return reference_zeta_odd(param, digits)
    if base == "zeta_even":
        return reference_zeta_even(param, digits)
    raise UnknownConstantError(f"unknown constant {name!r}; valid: {valid_name_summary()}")


class VerificationReport(
    namedtuple("VerificationReport", "name computed reference matched_digits terms_used elapsed")
):
    """Outcome of one production-vs-reference comparison, ``elapsed`` in seconds; never
    raises on mismatch."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "reference": self.reference,
            "matched_digits": self.matched_digits,
            "terms_used": self.terms_used,
            "elapsed_ms": int(self.elapsed * 1000),
        }


def matched_digit_count(computed: str, reference: str) -> int:
    """Common correctly-rounded fractional prefix length, after decimal alignment.

    The reference's final digit is excluded from the window because it may
    itself sit on a rounding boundary.  Differing signs or integer parts
    count as zero matched digits.
    """
    if (computed.startswith("-")) != (reference.startswith("-")):
        return 0
    c = computed.lstrip("-")
    r = reference.lstrip("-")
    c_int, _, c_frac = c.partition(".")
    r_int, _, r_frac = r.partition(".")
    if c_int != r_int:
        return 0
    return len(os.path.commonprefix((c_frac, r_frac[:-1])))


def verify(name: str, digits: int) -> VerificationReport:
    """Run the series-path computation and the oracle at ``digits``, compare.

    Both sides are evaluated two digits beyond the request so that
    ``matched_digits >= digits`` is attainable despite the excluded final
    reference digit.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    start = time.perf_counter()
    constant = compute_constant(name, digits + VERIFY_EXTRA_DIGITS)
    reference = reference_for(name, digits + VERIFY_EXTRA_DIGITS)
    computed_str = constant.value.to_decimal()
    reference_str = reference.to_decimal()
    matched = matched_digit_count(computed_str, reference_str)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        name=name,
        computed=computed_str,
        reference=reference_str,
        matched_digits=matched,
        terms_used=constant.terms_used or 0,
        elapsed=elapsed,
    )


def default_battery() -> list[str]:
    """Constant identifiers verified by default, in deterministic order."""
    return sorted(
        [
            "alt_harmonic",
            "apery",
            "beta_even(2)",
            "catalan",
            "eta_odd(1)",
            "eta_odd(2)",
            "zeta_even(1)",
            "zeta_even(2)",
            "zeta_even(3)",
            "zeta_odd(2)",
            "zeta_odd(3)",
        ]
    )

