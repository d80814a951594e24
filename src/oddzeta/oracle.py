"""Independent reference values and the verification harness.

Every reference here is computed by a method unrelated to the pi/2-power
series machinery: Chebyshev-polynomial convergence acceleration (Cohen,
Rodriguez Villegas and Zagier, Experimental Math. 9, 2000) for the
alternating eta/beta sums, with zeta at every argument s >= 2 following
from eta(s) by an exact factor, an atanh series for ln 2, and a transformed
arctangent series for pi.  Only the raw fixed-point/rational primitives are
shared with the production path, so a bug there cannot silently confirm
itself.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from .constants import compute_constant, parse_constant_name, valid_name_summary
from .errors import ResourceLimitError, UnknownConstantError
from .highprec import FixedDecimal, _ceil_div, _divround

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

# digits gained per acceleration term: log10(3 + sqrt 8) = 0.7655...
_ACCEL_LOG10_NUM = 765_551
_ACCEL_LOG10_DEN = 10**6


def acceleration_depth(digits: int) -> int:
    return _ceil_div(digits * _ACCEL_LOG10_DEN, _ACCEL_LOG10_NUM) + 8


def accelerated_alternating(term, depth: int) -> tuple[Fraction, Fraction]:
    """Chebyshev-accelerated value of sum_{j>=0} (-1)^j term(j), with error bound.

    ``term(j)`` must be a totally monotone sequence of positive rationals
    (moments of a positive measure on [0, 1]); then the returned bound
    ``4 * term(0) / d_depth`` with d_depth ~ (3 + sqrt 8)^depth is valid.
    Everything is exact rational arithmetic, so the bound is the only error.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    d_prev, d = 1, 3
    for _ in range(depth - 1):
        d_prev, d = d, 6 * d - d_prev
    b = Fraction(-1)
    c = Fraction(-d)
    s = Fraction(0)
    for j in range(depth):
        c = b - c
        s += c * term(j)
        b *= Fraction(2 * (j + depth) * (j - depth), (2 * j + 1) * (j + 1))
    return s / d, 4 * term(0) / d


def _to_fixed(value: Fraction, bound: Fraction, digits: int) -> FixedDecimal:
    unit = 10**digits
    m = _divround(value.numerator * unit, value.denominator)
    # true error <= analytic bound + 1/2 ulp of rounding
    err = _ceil_div(2 * bound.numerator * unit + bound.denominator, 2 * bound.denominator)
    return FixedDecimal(m, digits, err)


def _accelerated_sum(term, digits: int, extra_depth: int = 0) -> tuple[Fraction, Fraction]:
    """(value, bound) of sum_j (-1)^j term(j), accelerated deep enough for ``digits``."""
    depth = acceleration_depth(digits + 3) + extra_depth
    if depth > 40_000:
        raise ResourceLimitError(f"acceleration depth {depth} beyond supported range")
    return accelerated_alternating(term, depth)


def _eta_sum(s: int, digits: int, extra_depth: int = 0) -> tuple[Fraction, Fraction]:
    """(value, bound) of the accelerated eta(s) sum, deep enough for ``digits``."""
    return _accelerated_sum(lambda j: Fraction(1, (j + 1) ** s), digits, extra_depth)


def _zeta_from_eta(s: int, digits: int) -> FixedDecimal:
    """zeta(s) = eta(s) * 2^(s-1)/(2^(s-1)-1), s >= 2, the factor exact on value and bound."""
    value, bound = _eta_sum(s, digits)
    factor = Fraction(1 << (s - 1), (1 << (s - 1)) - 1)
    return _to_fixed(value * factor, bound * factor, digits)


def reference_eta(s: int, digits: int, extra_depth: int = 0) -> FixedDecimal:
    """eta(s) = sum (-1)^(m+1) / m^s by certified alternating-series acceleration."""
    if s < 1:
        raise ValueError("s must be >= 1")
    value, bound = _eta_sum(s, digits, extra_depth)
    return _to_fixed(value, bound, digits)


def reference_beta(s: int, digits: int, extra_depth: int = 0) -> FixedDecimal:
    """beta(s) = sum (-1)^m / (2m+1)^s by the same certified acceleration."""
    if s < 2:
        raise ValueError("s must be >= 2")
    value, bound = _accelerated_sum(lambda j: Fraction(1, (2 * j + 1) ** s), digits, extra_depth)
    return _to_fixed(value, bound, digits)


def reference_zeta_odd(k: int, digits: int) -> FixedDecimal:
    """zeta(2k+1) from the accelerated eta(2k+1) sum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _zeta_from_eta(2 * k + 1, digits)


def reference_zeta_even(n: int, digits: int) -> FixedDecimal:
    """zeta(2n) from the accelerated eta(2n) sum, independent of the Bernoulli closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _zeta_from_eta(2 * n, digits)


def reference_ln2(digits: int) -> FixedDecimal:
    """ln 2 = 2 atanh(1/3) = 2 sum_j 1 / ((2j+1) 3^(2j+1)); tail < term / 8."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    threshold = Fraction(1, 10 ** (digits + 4))
    total = Fraction(0)
    j = 0
    while True:
        t = Fraction(2, (2 * j + 1) * 3 ** (2 * j + 1))
        total += t
        if t < threshold:
            return _to_fixed(total, t / 8, digits)
        j += 1


def reference_pi(digits: int) -> FixedDecimal:
    """pi = sum_n 2 (n!)^2 2^(n+1) / (2n+1)! (Euler-transformed arctangent at 1).

    Positive terms with ratio (n+1)/(2n+3) < 1/2, so the tail after any term
    is below twice the next term.
    """
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
            return _to_fixed(total, 2 * nxt, digits)
        u = nxt
        n += 1


def reference_for(name: str, digits: int) -> FixedDecimal:
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


class VerificationReport(NamedTuple):
    """Outcome of one production-vs-reference comparison; never raises on mismatch."""

    name: str
    computed: str
    reference: str
    matched_digits: int
    terms_used: int
    elapsed: float

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
    window = min(len(c_frac), len(r_frac) - 1)
    count = 0
    while count < window and c_frac[count] == r_frac[count]:
        count += 1
    return count


def verify(name: str, digits: int) -> VerificationReport:
    """Run the series-path computation and the oracle at ``digits``, compare.

    Both sides are evaluated two digits beyond the request so that
    ``matched_digits >= digits`` is attainable despite the excluded final
    reference digit.
    """
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


def reports_to_json(reports: list[VerificationReport]) -> str:
    import json

    return json.dumps([r.to_json_dict() for r in reports], separators=(",", ":"))
