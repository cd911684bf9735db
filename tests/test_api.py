"""The public surface: every exported name resolves, the package exports
exactly the names below, none of them a numerical engine, and the pointwise
functions return a float for a scalar x and an ndarray of x's shape for an
ndarray."""
import importlib

import numpy as np
import pytest

import metadist
from metadist.moments import METHOD_EMPIRICAL
from oracles import beta_moments

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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exactly_these_names():
    assert len(PACKAGE_NAMES) == 32
    assert metadist.__all__ == PACKAGE_NAMES


def test_numerical_engines_stay_in_their_modules():
    """The 2F1 series, the incomplete beta and the quadrature engine are
    reached by module path; only the quadrature's error is exported."""
    engines = ("metadist.specfun", "metadist.quadrature")
    from_engines = [n for n in metadist.__all__
                    if getattr(metadist, n).__module__ in engines]
    assert from_engines == ["QuadratureError"]


def _beta_dist():
    seq = metadist.MomentSequence(beta_moments(2.7, 1.3, 10), METHOD_EMPIRICAL)
    return metadist.reconstruct(seq, order=10)


# Each takes x in (0, 1) as a scalar or an ndarray.
POINTWISE = {
    "eval_cdf": lambda x: metadist.eval_cdf(_beta_dist(), x),
    "eval_pdf": lambda x: metadist.eval_pdf(_beta_dist(), x),
    "meta_reliability": lambda x: metadist.meta_reliability(_beta_dist(), x),
    "reg_inc_beta": lambda x: metadist.specfun.reg_inc_beta(x, 2.0, 3.0),
    "empirical_reliability": lambda x: metadist.empirical_reliability(
        np.array([0.1, 0.5, 0.9]), x),
}


@pytest.mark.parametrize("name", POINTWISE)
def test_scalar_gives_float_and_array_gives_same_shape(name):
    f = POINTWISE[name]
    assert type(f(0.3)) is float
    x = np.array([[0.2, 0.4, 0.6], [0.3, 0.5, 0.7]])
    out = f(x)
    assert type(out) is np.ndarray and out.shape == x.shape
