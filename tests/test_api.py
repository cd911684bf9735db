"""The public surface: every exported name resolves, and the package exports
exactly the names below."""
import importlib

import pytest

import metadist

MODULES = [
    "metadist",
    "metadist.cli",
    "metadist.jacobi",
    "metadist.moments",
    "metadist.quadrature",
    "metadist.scaling",
    "metadist.sim",
    "metadist.specfun",
]

PACKAGE_NAMES = [
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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exactly_these_names():
    assert len(PACKAGE_NAMES) == 39
    assert metadist.__all__ == PACKAGE_NAMES
