"""Named constants assembled from the pi/2-power series engine.

The alternating sums A_k = sum_n E_n(k) (pi/2)^(2n+k-1) give beta(2k) for
even index and eta(2k+1) for odd index; zeta at odd arguments follows from
eta via the exact factor 2^(2k)/(2^(2k)-1), and zeta at even arguments has
the classical Bernoulli closed form, read from the same tangent numbers.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial

from .errors import UnknownConstantError
from .exact import tangent_number
from .highprec import _working_scale, compute_pi, sum_series

__all__ = [
    "ConstantValue",
    "alt_harmonic",
    "apery",
    "beta_even",
    "catalan",
    "compute_constant",
    "eta_odd",
    "parse_constant_name",
    "valid_name_summary",
    "zeta_even_closed",
    "zeta_odd",
]

SERIES_METHOD = "pi-power-series"
CLOSED_FORM_METHOD = "closed-form"
ZETA_ODD_EXTRA_DIGITS = 2  # zeta(2k+1) sums A_(2k+1) this many digits past the request


class ConstantValue(
    namedtuple("ConstantValue", "name value method k terms_used", defaults=(None, None))
):
    """A computed constant, its ``value`` a :class:`~oddzeta.highprec.Ball`, with its provenance.

    ``k`` and ``terms_used`` describe the series evaluation; both are None
    for closed-form values.
    """

    __slots__ = ()


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

    The divisor is applied as the exact ratio 4^k/(4^k-1) to the ball of A_(2k+1),
    summed two digits past the request and printed at the request.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    inner = _series_constant(f"zeta_odd({k})", 2 * k + 1, digits + ZETA_ODD_EXTRA_DIGITS)
    four = 1 << (2 * k)
    return inner._replace(value=inner.value.mul_ratio(four, four - 1)._replace(scale=digits))


def catalan(digits: int) -> ConstantValue:
    """Catalan's constant, beta(2) = A_2."""
    return beta_even(1, digits)._replace(name="catalan")


def apery(digits: int) -> ConstantValue:
    """Apery's constant zeta(3) = A_3 / (1 - 2^(-2))."""
    return zeta_odd(1, digits)._replace(name="apery")


def zeta_even_closed(n: int, digits: int) -> ConstantValue:
    """zeta(2n) = B_2n/2 * (2 pi)^(2n) * (-1)^(n+1) / (2n)!.

    With B_2n = (-1)^(n+1) 2n T_n / (4^n (4^n - 1)), the multiplier of pi^(2n) is the
    exact ratio T_n / (2 (2n-1)! (4^n - 1)), applied once to pi^(2n) at the working scale.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = _working_scale(digits)
    tangent = tangent_number(n)  # past the index ceiling, refused before pi is built
    power = compute_pi(scale).pow_int(2 * n)
    four = 1 << (2 * n)
    value = power.mul_ratio(tangent, 2 * factorial(2 * n - 1) * (four - 1))._replace(scale=digits)
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
    base, _, rest = name.partition("(")
    digits = rest[:-1]
    if base in _PARAMETRIC_NAMES and rest.endswith(")") and digits.isascii() and digits.isdigit():
        if int(digits) >= 1:
            return base, int(digits)
    raise UnknownConstantError(
        f"unknown constant {name!r}; valid identifiers: {valid_name_summary()}"
    )


def compute_constant(name: str, digits: int) -> ConstantValue:
    """Dispatch a constant identifier to its computation at ``digits`` digits."""
    base, param = parse_constant_name(name)
    if param is None:
        return _PLAIN_NAMES[base](digits)
    return _PARAMETRIC_NAMES[base](param, digits)
