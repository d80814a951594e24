"""Alternating zeta-family constants from exact-rational series in powers of pi/2.

The package computes Catalan's constant, Apery's constant, Dirichlet beta at
even arguments, and eta/zeta at odd arguments as truncated series
``sum_n E_n(k) (pi/2)^(2n+k-1)`` whose coefficients are exact rationals built
from the tangent Maclaurin expansion, then certifies every value against
independent oracles (convergence-accelerated direct summation and classical
closed forms).
"""

from importlib import import_module

# exported name -> the submodule that defines it; nothing is imported until a
# name is first read, so that ``import oddzeta.cli`` loads only what a command uses
_EXPORTS = {
    "d_coeff": "coeffs",
    "e_coeff": "coeffs",
    "f_ratio": "coeffs",
    "ConstantValue": "constants",
    "alt_harmonic": "constants",
    "apery": "constants",
    "beta_even": "constants",
    "catalan": "constants",
    "compute_constant": "constants",
    "eta_odd": "constants",
    "zeta_even_closed": "constants",
    "zeta_odd": "constants",
    "ResourceLimitError": "errors",
    "UnknownConstantError": "errors",
    "bernoulli": "exact",
    "FixedDecimal": "highprec",
    "SeriesResult": "highprec",
    "compute_pi": "highprec",
    "estimate_terms": "highprec",
    "sum_series": "highprec",
    "term_ratio_sequence": "highprec",
    "IdentityResidual": "identities",
    "check_identity": "identities",
    "fourier_lhs": "identities",
    "rhs_eval": "identities",
    "VerificationReport": "oracle",
    "matched_digit_count": "oracle",
    "reference_beta": "oracle",
    "reference_eta": "oracle",
    "verify": "oracle",
}
_SUBMODULES = frozenset(
    ("cli", "coeffs", "constants", "errors", "exact", "highprec", "identities", "oracle")
)


def __getattr__(name: str):
    """Import a submodule, or the submodule an exported name lives in, on first access."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
