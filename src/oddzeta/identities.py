"""Numerical checks of the alternating Fourier identities behind the series.

Two identity shapes are checked at arbitrary angles 0 < theta < pi:

* ``S1(k)``: sum_m (-1)^(m+1) sin(m theta) / m^(2k) equals a truncated
  ladder series in theta plus a polynomial with eta-value coefficients.
* ``S2(k)``: the analogous cosine sum with exponent 2k+1.

The Fourier side converges slowly and is evaluated with a smoothed partial
sum (average of the last two partial sums); the ladder side converges
geometrically and is held at full working precision, so the residual tracks
the Fourier truncation error and must shrink as the term count grows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .coeffs import d_denominator, e_column
from .constants import alt_harmonic, eta_odd
from .highprec import (
    GUARD_DIGITS,
    FixedDecimal,
    _divround,
    _series_terms,
    compute_pi,
    estimate_terms,
)

__all__ = [
    "IDENTITY_TAGS",
    "IdentityResidual",
    "canonical_theta_token",
    "check_identity",
    "eta_from_half_pi_identity",
    "fourier_lhs",
    "resolve_theta",
    "residual_sweep",
    "rhs_eval",
    "sweep_to_csv",
    "tan_half_residual",
]

IDENTITY_TAGS = ("S1", "S2")
ANCHOR_INTERVAL = 10_000
_EXTRA_SCALE = 8  # headroom digits for angle reduction and anchor recomputation

# safe strict lower bound for pi; rational theta must stay below it
_PI_LOWER = Fraction(314159265, 10**8)


def canonical_theta_token(theta) -> str:
    """Deterministic token for an angle: ``pi/<q>`` or an exact rational string."""
    if isinstance(theta, str):
        text = theta.strip().replace(" ", "")
        if text.startswith("pi/"):
            q = int(text[3:])
            if q < 2:
                raise ValueError("pi/<q> angles require q >= 2 to stay inside (0, pi)")
            return f"pi/{q}"
        return str(Fraction(text))
    if isinstance(theta, Fraction):
        return str(theta)
    if isinstance(theta, (int, float)):
        return str(Fraction(theta))
    raise TypeError(f"unsupported theta specification: {theta!r}")


def _theta_mantissa(token: str, scale: int) -> tuple[int, int]:
    """(mantissa, err_ulp) of the angle at the given scale, range-checked."""
    if token.startswith("pi/"):
        q = int(token[3:])
        p = compute_pi(scale)
        return _divround(p.mantissa, q), 1
    value = Fraction(token)
    if not 0 < value < _PI_LOWER:
        raise ValueError(
            f"theta={token} outside the open interval (0, pi); rational angles "
            f"must stay below {float(_PI_LOWER)}"
        )
    return _divround(value.numerator * 10**scale, value.denominator), 1


def resolve_theta(theta, digits: int = 30) -> FixedDecimal:
    """Angle as a fixed-point value at working precision, validated in (0, pi)."""
    token = canonical_theta_token(theta)
    scale = digits + GUARD_DIGITS
    m, err = _theta_mantissa(token, scale)
    return FixedDecimal(m, scale, err)


def _sin_cos_fixed(xm: int, scale: int, x_err: int = 0) -> tuple[int, int, int]:
    """Taylor sin and cos of x = xm * 10^(-scale) for |x| <= pi.

    Returns (sin_mantissa, cos_mantissa, err_ulp); the error bound covers
    term rounding, truncation, and the caller's angle error.
    """
    one = 10**scale
    x2 = xm * xm
    unit2 = one * one
    total_s = t = xm
    i = 0
    while t:
        t = -_divround(t * x2, unit2 * (2 * i + 2) * (2 * i + 3))
        total_s += t
        i += 1
    terms = i
    total_c = u = one
    i = 0
    while u:
        u = -_divround(u * x2, unit2 * (2 * i + 1) * (2 * i + 2))
        total_c += u
        i += 1
    err = 2 * (terms + i) + 6 + 2 * x_err
    return total_s, total_c, err


class _AngleEngine:
    """Shared machinery for sin/cos of m*theta at high precision.

    Values are produced at ``scale``; internally angles are reduced modulo
    2 pi at ``scale + _EXTRA_SCALE`` so that multiplication by m and the
    reduction quotient cost far less than one output ulp.
    """

    def __init__(self, token: str, scale: int):
        self.scale = scale
        self.hi_scale = scale + _EXTRA_SCALE
        self.shift = 10**_EXTRA_SCALE
        self.theta_hi, self.theta_err = _theta_mantissa(token, self.hi_scale)
        self.pi_hi = compute_pi(self.hi_scale).mantissa

    def sin_cos(self, m: int) -> tuple[int, int, int]:
        """(sin, cos, err_ulp) of m*theta at ``scale``, via range reduction."""
        u = m * self.theta_hi
        two_pi = 2 * self.pi_hi
        q = u // two_pi
        rem = u - q * two_pi
        if rem > self.pi_hi:
            rem -= two_pi
        angle_err = m * self.theta_err + 2 * q + 2
        s, c, err = _sin_cos_fixed(rem, self.hi_scale, angle_err)
        down = self.shift
        return _divround(s, down), _divround(c, down), err // down + 2


def _fast_pair_half_pi(k: int, fourier_terms: int, scale: int) -> tuple[int, int, int, int]:
    """Raw partial sums at theta = pi/2, where sin/cos take exact values in {0, +-1}."""
    one = 10**scale
    k2 = 2 * k
    a = b = a_prev = b_prev = 0
    for m in range(1, fourier_terms + 1):
        if m == fourier_terms:
            a_prev, b_prev = a, b
        if m & 1:
            j = (m - 1) // 2
            t = one // m**k2
            a += t if j % 2 == 0 else -t
        else:
            j = m // 2
            t = one // m ** (k2 + 1)
            b += -t if j % 2 == 0 else t
    return a_prev, a, b_prev, b


def _rotation_pair(k: int, token: str, fourier_terms: int, scale: int) -> tuple[int, int, int, int, int]:
    """Raw partial sums (a_prev, a, b_prev, b) at a generic theta, and their error in ulp.

    sin and cos of m*theta come from rotating by theta, re-anchored from
    scratch every ``ANCHOR_INTERVAL`` steps to stop rounding drift from
    accumulating linearly over long runs.
    """
    engine = _AngleEngine(token, scale)
    one = 10**scale
    half = one // 2  # one is even, so (x + half) // one rounds exactly like _divround(x, one)
    s1, c1, e1 = engine.sin_cos(1)
    s, c = s1, c1
    a = b = a_prev = b_prev = 0
    k2 = 2 * k
    anchor = ANCHOR_INTERVAL
    for m in range(1, fourier_terms + 1):
        if m == fourier_terms:
            a_prev, b_prev = a, b
        p = m**k2
        if m & 1:
            a += s // p
            b += c // (p * m)
        else:
            a -= s // p
            b -= c // (p * m)
        nxt = m + 1
        if nxt % anchor == 0:
            s, c, _ = engine.sin_cos(nxt)
        else:
            s, c = (s * c1 + c * s1 + half) // one, (c * c1 - s * s1 + half) // one
    # trig drift (<= 3 ulp/step between anchors, e1 from the increment)
    # enters each term divided by m^(2k); sum_m m^-2 < 2 bounds that part
    err = 2 * (3 * anchor + e1 + 4) + fourier_terms + 8
    return a_prev, a, b_prev, b, err


@lru_cache(maxsize=16)
def _fourier_pair(k: int, token: str, fourier_terms: int, digits: int) -> tuple[FixedDecimal, FixedDecimal]:
    """Smoothed sine-sum and cosine-sum partial sums, one shared pass."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if fourier_terms < 2:
        raise ValueError("fourier_terms must be >= 2")
    scale = digits + GUARD_DIGITS
    if token == "pi/2":
        a_prev, a, b_prev, b = _fast_pair_half_pi(k, fourier_terms, scale)
        err = fourier_terms + 2
    else:
        a_prev, a, b_prev, b, err = _rotation_pair(k, token, fourier_terms, scale)
    lhs_a = FixedDecimal(_divround(a_prev + a, 2), scale, err)
    lhs_b = FixedDecimal(_divround(b_prev + b, 2), scale, err)
    return lhs_a, lhs_b


def _check_identity_tag(identity: str) -> None:
    if identity not in IDENTITY_TAGS:
        raise ValueError(f"identity must be one of {IDENTITY_TAGS}, got {identity!r}")


def fourier_lhs(identity: str, k: int, theta, fourier_terms: int, digits: int = 30) -> FixedDecimal:
    """Smoothed partial sum of the alternating sine (S1) or cosine (S2) series."""
    _check_identity_tag(identity)
    token = canonical_theta_token(theta)
    _theta_mantissa(token, 8)  # range-check eagerly
    pair = _fourier_pair(k, token, fourier_terms, digits)
    return pair[0] if identity == "S1" else pair[1]


def rhs_eval(identity: str, k: int, theta, series_terms: int, digits: int = 30) -> FixedDecimal:
    """Ladder-series side of the identity at full working precision.

    S1: (-1)^k/2 * sum_n D_n(2k) theta^(2n+2k-1)
        + sum_{r<k} (-1)^(k-r-1) A_(2r+1) theta^(2k-2r-1) / (2k-2r-1)!
    S2: (-1)^(k+1)/2 * sum_n D_n(2k+1) theta^(2n+2k)
        + sum_{r<=k} (-1)^(k-r) A_(2r+1) theta^(2k-2r) / (2k-2r)!
    """
    _check_identity_tag(identity)
    if k < 1:
        raise ValueError("k must be >= 1")
    if series_terms < 1:
        raise ValueError("series_terms must be >= 1")
    eta_terms = k if identity == "S1" else k + 1
    return _ladder_side(identity, k, canonical_theta_token(theta), series_terms, digits, eta_terms)


def _ladder_side(
    identity: str, k: int, token: str, series_terms: int, digits: int, eta_terms: int
) -> FixedDecimal:
    """The :func:`rhs_eval` sum with only the eta-polynomial terms r < ``eta_terms``."""
    scale = digits + GUARD_DIGITS
    m, err = _theta_mantissa(token, scale)
    th = FixedDecimal(m, scale, err)
    th2 = th.mul(th)
    d_index = 2 * k if identity == "S1" else 2 * k + 1
    eta_digits = digits + 6
    # D_n(k) = N_n(1) / d_denominator(n, k), the denominator carried row to row
    terms = _series_terms(
        th.pow_int(d_index + 1), th2, e_column(1, series_terms), d_denominator(1, d_index), d_index
    )
    total = total_err = last = 0
    for last, err in terms:
        total += last
        total_err += err
    acc = FixedDecimal(total, scale, total_err)
    front = Fraction((-1) ** k, 2) if identity == "S1" else Fraction((-1) ** (k + 1), 2)
    acc = acc.mul_fraction(front)
    # geometric bound on the omitted ladder tail: the term ratio is strictly
    # below (theta/pi)^2 for every n, bounded here with outward rounding
    rho = Fraction((m + 2) ** 2, (compute_pi(scale).mantissa - 2) ** 2)
    if rho >= Fraction(999, 1000):
        raise ValueError(
            f"theta={token} is too close to pi for a usable ladder tail bound"
        )
    tail_ulp = int(abs(last) * rho / (2 * (1 - rho))) + 1
    acc = FixedDecimal(acc.mantissa, acc.scale, acc.err_ulp + tail_ulp)
    offset = 1 if identity == "S1" else 0
    for r in range(eta_terms):
        exponent = 2 * (k - r) - offset
        numer = (-1) ** (k - r - offset)
        coeff = Fraction(numer, factorial(exponent))
        a_val = (eta_odd(r, eta_digits) if r else alt_harmonic(eta_digits)).value
        acc = acc + a_val.mul(th.pow_int(exponent)).mul_fraction(coeff)
    return acc


class IdentityResidual(NamedTuple):
    """|Fourier partial sum - ladder series| for one (identity, k, theta) check."""

    identity: str
    k: int
    theta: FixedDecimal
    theta_token: str
    fourier_terms: int
    series_terms: int
    residual: FixedDecimal


def check_identity(
    identity: str,
    k: int,
    theta,
    fourier_terms: int,
    series_terms: int,
    digits: int = 30,
) -> IdentityResidual:
    """Evaluate both sides and report the absolute residual."""
    token = canonical_theta_token(theta)
    lhs = fourier_lhs(identity, k, token, fourier_terms, digits)
    rhs = rhs_eval(identity, k, token, series_terms, digits)
    return IdentityResidual(
        identity=identity,
        k=k,
        theta=resolve_theta(token, digits),
        theta_token=token,
        fourier_terms=fourier_terms,
        series_terms=series_terms,
        residual=abs(lhs - rhs),
    )


def eta_from_half_pi_identity(k: int, digits: int = 30) -> FixedDecimal:
    """Recompute eta(2k+1) from the cosine identity specialized at theta = pi/2.

    At pi/2 the S2 Fourier sum is eta(2k+1) / 2^(2k+1), and the r = k term of
    the ladder side is eta(2k+1) itself.  Solving for it gives
    A_(2k+1) = -(S2 ladder side without its r = k term) * 2^(2k+1)/(2^(2k+1) - 1),
    an independent route that must agree with the series-path eta values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    side = _ladder_side("S2", k, "pi/2", estimate_terms(digits, 2 * k + 1), digits, k)
    two_power = 1 << (2 * k + 1)
    return side.mul_fraction(Fraction(-two_power, two_power - 1)).rescale(digits)


def tan_half_residual(theta, fourier_terms: int, digits: int = 15) -> FixedDecimal:
    """Informational check of the k = 0 sine identity against (1/2) tan(theta/2).

    The raw sine sum only converges in the Cesaro sense, so the full (C, 1)
    mean of the partial sums is used; expect only a handful of digits even
    at large term counts.
    """
    token = canonical_theta_token(theta)
    if fourier_terms < 2:
        raise ValueError("fourier_terms must be >= 2")
    scale = digits + GUARD_DIGITS
    engine = _AngleEngine(token, scale)
    one = 10**scale
    s1, c1, _ = engine.sin_cos(1)
    s, c = s1, c1
    running = 0
    acc = 0
    sign = 1
    for m in range(1, fourier_terms + 1):
        running += sign * s
        acc += running
        nxt = m + 1
        if nxt % ANCHOR_INTERVAL == 0:
            s, c, _ = engine.sin_cos(nxt)
        else:
            s, c = _divround(s * c1 + c * s1, one), _divround(c * c1 - s * s1, one)
        sign = -sign
    # Cesaro-mean error: every partial sum accumulates the full trig drift
    # (up to ~4 ulp per step between anchors), undivided by any m power
    mean_err = (2 * min(ANCHOR_INTERVAL, fourier_terms) + 6) * fourier_terms
    mean = FixedDecimal(_divround(acc, fourier_terms), scale, mean_err)
    half_m, half_err = _theta_mantissa(token, scale)
    sh, ch, errh = _sin_cos_fixed(_divround(half_m, 2), scale, half_err + 1)
    t_m = _divround(sh * one, ch)
    quot_err = (errh * (one + abs(t_m))) // abs(ch) + 2
    tan_half = FixedDecimal(t_m, scale, quot_err)
    return abs(mean - tan_half.mul_fraction(Fraction(1, 2)))


def residual_sweep(
    ks,
    thetas,
    fourier_terms_for_k,
    series_terms: int = 80,
    digits: int = 30,
) -> list[IdentityResidual]:
    """Residuals for every (identity, k, theta) combination, in fixed order."""
    out = []
    for identity in IDENTITY_TAGS:
        for k in ks:
            terms = fourier_terms_for_k(k) if callable(fourier_terms_for_k) else fourier_terms_for_k
            for theta in thetas:
                out.append(check_identity(identity, k, theta, terms, series_terms, digits))
    return out


def sweep_to_csv(results) -> str:
    """CSV rows ``identity,k,theta,fourier_terms,residual`` for a sweep."""
    lines = ["identity,k,theta,fourier_terms,residual"]
    for r in results:
        lines.append(
            f"{r.identity},{r.k},{r.theta_token},{r.fourier_terms},{r.residual.to_sci(6)}"
        )
    return "\n".join(lines) + "\n"
