"""Alternating zeta-family constants from exact-rational series in powers of pi/2.

The package computes Catalan's constant, Apery's constant, Dirichlet beta at
even arguments, and eta/zeta at odd arguments as truncated series
``sum_n E_n(k) (pi/2)^(2n+k-1)`` whose coefficients are exact rationals built
from the tangent Maclaurin expansion, then certifies every value against
independent oracles (convergence-accelerated direct summation and classical
closed forms).
"""

from .coeffs import build_table, d_coeff, e_coeff, f_ratio
from .constants import (
    ConstantValue,
    alt_harmonic,
    apery,
    beta_even,
    catalan,
    compute_constant,
    eta_odd,
    zeta_even_closed,
    zeta_odd,
)
from .errors import ResourceLimitError, TailRatioError, UnknownConstantError
from .exact import bernoulli, tangent_coeff
from .highprec import (
    FixedDecimal,
    SeriesResult,
    compute_pi,
    estimate_terms,
    sum_series,
    term_ratio_sequence,
)
from .identities import IdentityResidual, check_identity, fourier_lhs, rhs_eval
from .oracle import (
    VerificationReport,
    matched_digit_count,
    reference_beta,
    reference_eta,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantValue",
    "FixedDecimal",
    "IdentityResidual",
    "ResourceLimitError",
    "SeriesResult",
    "TailRatioError",
    "UnknownConstantError",
    "VerificationReport",
    "alt_harmonic",
    "apery",
    "bernoulli",
    "beta_even",
    "build_table",
    "catalan",
    "check_identity",
    "compute_constant",
    "compute_pi",
    "d_coeff",
    "e_coeff",
    "estimate_terms",
    "eta_odd",
    "f_ratio",
    "fourier_lhs",
    "matched_digit_count",
    "reference_beta",
    "reference_eta",
    "rhs_eval",
    "sum_series",
    "tangent_coeff",
    "term_ratio_sequence",
    "verify",
    "zeta_even_closed",
    "zeta_odd",
]
