"""Meta-distribution toolkit for downlink Poisson cellular networks.

Computes moments of the conditional coverage probability (exact quadrature
and a closed-form approximation with the paper's error bound, which is
vacuous above about gamma 8), reconstructs the
full meta distribution from those moments by Fourier-Jacobi expansion,
validates everything against a Monte Carlo point-process simulator, and
derives the minimum-power scaling law implied by the second moment.
"""
from .jacobi import (
    ConvergenceReport,
    DegenerateMomentsError,
    JacobiBasis,
    ReconstructedDistribution,
    convergence_diagnostic,
    eval_cdf,
    eval_pdf,
    fourier_jacobi_coeffs,
    meta_reliability,
    moment_match_basis,
    reconstruct,
)
from .moments import (
    IntegralCoeffs,
    MomentSequence,
    SystemParams,
    approx_error_bound,
    coeffs,
    moment_approx,
    moment_exact,
    moment_sequence,
    rho_n,
)
from .quadrature import QuadratureError
from .scaling import InfeasibleQosError, QosSpec, min_power
from .sim import (
    EmpiricalMeta,
    SimConfig,
    ccp_analytic,
    ccp_sampled,
    draw_ppp,
    empirical_moments,
    empirical_reliability,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "DegenerateMomentsError",
    "EmpiricalMeta",
    "InfeasibleQosError",
    "IntegralCoeffs",
    "JacobiBasis",
    "MomentSequence",
    "QosSpec",
    "QuadratureError",
    "ReconstructedDistribution",
    "SimConfig",
    "SystemParams",
    "approx_error_bound",
    "ccp_analytic",
    "ccp_sampled",
    "coeffs",
    "convergence_diagnostic",
    "draw_ppp",
    "empirical_moments",
    "empirical_reliability",
    "eval_cdf",
    "eval_pdf",
    "fourier_jacobi_coeffs",
    "meta_reliability",
    "min_power",
    "moment_approx",
    "moment_exact",
    "moment_match_basis",
    "moment_sequence",
    "reconstruct",
    "rho_n",
    "run_campaign",
]
