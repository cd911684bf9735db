"""Meta-distribution toolkit for downlink Poisson cellular networks.

Computes moments of the conditional coverage probability (exact quadrature
and a closed-form approximation with the paper's error bound, which is
vacuous above about gamma 8), reconstructs the
full meta distribution from those moments by Fourier-Jacobi expansion,
validates everything against a Monte Carlo point-process simulator, and
derives the minimum-power scaling law implied by the second moment.

`import metadist` loads none of its modules.  Each exported name, and each
module (`metadist.sim`, `metadist.specfun`, ...), is imported on first use
and then bound here, so a caller of the moments alone never loads the
Jacobi, simulation or scaling modules.
"""
import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_MODULE_OF = {
    "ConvergenceReport": "jacobi",
    "DegenerateMomentsError": "jacobi",
    "EmpiricalMeta": "sim",
    "InfeasibleQosError": "scaling",
    "IntegralCoeffs": "moments",
    "JacobiBasis": "jacobi",
    "MomentSequence": "moments",
    "QosSpec": "scaling",
    "QuadratureError": "quadrature",
    "ReconstructedDistribution": "jacobi",
    "SimConfig": "sim",
    "SystemParams": "moments",
    "approx_error_bound": "moments",
    "ccp_analytic": "sim",
    "ccp_sampled": "sim",
    "coeffs": "moments",
    "convergence_diagnostic": "jacobi",
    "draw_ppp": "sim",
    "empirical_moments": "sim",
    "empirical_reliability": "sim",
    "eval_cdf": "jacobi",
    "eval_pdf": "jacobi",
    "fourier_jacobi_coeffs": "jacobi",
    "meta_reliability": "jacobi",
    "min_power": "scaling",
    "moment_approx": "moments",
    "moment_exact": "moments",
    "moment_match_basis": "jacobi",
    "moment_sequence": "moments",
    "reconstruct": "jacobi",
    "rho_n": "moments",
    "run_campaign": "sim",
}
_MODULES = ("cli", "jacobi", "moments", "quadrature", "scaling", "sim", "specfun")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Importing a submodule binds it here; an exported name is bound below.
    # Either way this runs once per name.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
