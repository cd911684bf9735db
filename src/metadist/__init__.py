"""Meta-distribution toolkit for downlink Poisson cellular networks.

Computes moments of the conditional coverage probability (exact quadrature
and a closed-form approximation with a proven error bound), reconstructs the
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
    jacobi_poly,
    meta_reliability,
    moment_match_basis,
    norm_h,
    reconstruct,
)
from .moments import (
    IntegralCoeffs,
    MomentSequence,
    SystemParams,
    approx_error_bound,
    big_m_constant,
    coeffs,
    moment_approx,
    moment_exact,
    moment_sequence,
    rho_n,
)
from .quadrature import (
    QuadratureError,
    QuadResult,
    integrate_semi_infinite_decaying,
)
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
from .specfun import gauss_2f1, reg_inc_beta

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
    "QuadResult",
    "QuadratureError",
    "ReconstructedDistribution",
    "SimConfig",
    "SystemParams",
    "approx_error_bound",
    "big_m_constant",
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
    "gauss_2f1",
    "integrate_semi_infinite_decaying",
    "jacobi_poly",
    "meta_reliability",
    "min_power",
    "moment_approx",
    "moment_exact",
    "moment_match_basis",
    "moment_sequence",
    "norm_h",
    "reconstruct",
    "reg_inc_beta",
    "rho_n",
    "run_campaign",
]
