"""Named constants assembled from the pi/2-power series engine.

The alternating sums A_k = sum_n E_n(k) (pi/2)^(2n+k-1) give beta(2k) for
even index and eta(2k+1) for odd index; zeta at odd arguments follows from
eta via the exact factor 2^(2k)/(2^(2k)-1), and zeta at even arguments has
the classical Bernoulli closed form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import UnknownConstantError
from .exact import bernoulli
from .highprec import FixedDecimal, GUARD_DIGITS, compute_pi, estimate_terms, sum_series

__all__ = [
    "ConstantValue",
    "alt_harmonic",
    "apery",
    "beta_even",
    "catalan",
    "compute_constant",
    "eta_odd",
    "parse_constant_name",
    "tangent_index",
    "valid_name_summary",
    "zeta_even_closed",
    "zeta_odd",
]

SERIES_METHOD = "pi-power-series"
CLOSED_FORM_METHOD = "closed-form"
ZETA_ODD_EXTRA_DIGITS = 2  # zeta(2k+1) sums A_(2k+1) this many digits past the request


class ConstantValue(NamedTuple):
    """A computed constant with its provenance.

    ``k`` and ``terms_used`` describe the series evaluation; both are None
    for closed-form values.
    """

    name: str
    value: FixedDecimal
    method: str
    k: int | None = None
    terms_used: int | None = None


def _series_constant(name: str, k: int, digits: int) -> ConstantValue:
    result = sum_series(k, digits)
    return ConstantValue(
        name=name, value=result.value, method=SERIES_METHOD, k=k, terms_used=result.terms_used
    )


def beta_even(k: int, digits: int) -> ConstantValue:
    """beta(2k) = 1/1^2k - 1/3^2k + 1/5^2k - ... = A_2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _series_constant(f"beta_even({k})", 2 * k, digits)


def eta_odd(k: int, digits: int) -> ConstantValue:
    """eta(2k+1) = 1/1^(2k+1) - 1/2^(2k+1) + ... = A_(2k+1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _series_constant(f"eta_odd({k})", 2 * k + 1, digits)


def alt_harmonic(digits: int) -> ConstantValue:
    """The alternating harmonic series A_1 (equal to ln 2) via the pi/2 series.

    This is the sharpest single check of the whole coefficient ladder, since
    the target value is universally known.
    """
    return _series_constant("alt_harmonic", 1, digits)


def zeta_odd(k: int, digits: int) -> ConstantValue:
    """zeta(2k+1) = A_(2k+1) / (1 - 2^(-2k)).

    The divisor is applied as the exact rational 2^(2k)/(2^(2k)-1) on the
    working-precision sum, before the final rounding step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    inner = _series_constant(f"zeta_odd({k})", 2 * k + 1, digits + ZETA_ODD_EXTRA_DIGITS)
    factor = Fraction(1 << (2 * k), (1 << (2 * k)) - 1)
    return inner._replace(value=inner.value.mul_fraction(factor).rescale(digits))


def catalan(digits: int) -> ConstantValue:
    """Catalan's constant, beta(2) = A_2."""
    return beta_even(1, digits)._replace(name="catalan")


def apery(digits: int) -> ConstantValue:
    """Apery's constant zeta(3) = A_3 / (1 - 2^(-2))."""
    return zeta_odd(1, digits)._replace(name="apery")


def zeta_even_closed(n: int, digits: int) -> ConstantValue:
    """zeta(2n) = B_2n/2 * (2 pi)^(2n) * (-1)^(n+1) / (2n)!.

    Computed as an exact rational multiplier times pi^(2n), rounded once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    multiplier = bernoulli(2 * n) * (-1) ** (n + 1) * (1 << (2 * n - 1))
    rational = Fraction(multiplier, factorial(2 * n))
    work = digits + GUARD_DIGITS
    value = compute_pi(work).pow_int(2 * n).mul_fraction(rational).rescale(digits)
    return ConstantValue(name=f"zeta_even({n})", value=value, method=CLOSED_FORM_METHOD)


_PLAIN_NAMES = {
    "catalan": catalan,
    "apery": apery,
    "alt_harmonic": alt_harmonic,
}

_PARAMETRIC_NAMES = {
    "beta_even": beta_even,
    "eta_odd": eta_odd,
    "zeta_odd": zeta_odd,
    "zeta_even": zeta_even_closed,
}

_NAME_RE = re.compile(r"^([a-z_]+)\((\d+)\)$")


def valid_name_summary() -> str:
    plain = sorted(_PLAIN_NAMES)
    parametric = sorted(f"{base}(k)" for base in _PARAMETRIC_NAMES)
    return ", ".join(plain + parametric)


def parse_constant_name(name: str) -> tuple[str, int | None]:
    """Split an identifier like ``zeta_odd(2)`` into base and parameter.

    Raises :class:`UnknownConstantError` (listing the valid identifier set)
    for anything outside the closed name set.
    """
    if name in _PLAIN_NAMES:
        return name, None
    match = _NAME_RE.match(name)
    if match and match.group(1) in _PARAMETRIC_NAMES:
        param = int(match.group(2))
        if param >= 1:
            return match.group(1), param
    raise UnknownConstantError(
        f"unknown constant {name!r}; valid identifiers: {valid_name_summary()}"
    )


def tangent_index(name: str, digits: int) -> int:
    """Largest tangent index T_n that ``compute_constant(name, digits)`` reads.

    A series constant reads rows 1..estimate_terms of its column A_k, and
    zeta_even(n) reads T_n for B_2n.  Growing the tangent list to the largest
    of these first lets one build serve several constants.
    """
    base, param = parse_constant_name(name)
    if base == "zeta_even":
        return param
    if base == "beta_even":
        k = 2 * param
    elif base in ("eta_odd", "zeta_odd"):
        k = 2 * param + 1
    else:
        k = {"alt_harmonic": 1, "catalan": 2, "apery": 3}[base]
    extra = ZETA_ODD_EXTRA_DIGITS if base in ("apery", "zeta_odd") else 0
    return estimate_terms(digits + extra, k)


def compute_constant(name: str, digits: int) -> ConstantValue:
    """Dispatch a constant identifier to its computation at ``digits`` digits."""
    base, param = parse_constant_name(name)
    if param is None:
        return _PLAIN_NAMES[base](digits)
    return _PARAMETRIC_NAMES[base](param, digits)
