"""The public surface: every exported name resolves, the package exports
exactly the names below, none of them a numerical engine, and the pointwise
functions return a float for a scalar x and an ndarray of x's shape for an
ndarray.  The value types store, and the public functions read, builtin
float and int whatever numpy scalar they are given."""
import dataclasses
import importlib
import json

import numpy as np
import pytest

import metadist
from metadist.moments import METHOD_CLOSED_FORM, METHOD_EMPIRICAL, METHOD_EXACT
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


_REFERENCE = metadist.SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)


def _params(real, integer):
    return metadist.SystemParams(real(1e-3), integer(5), real(1.0), integer(1), real(1e-10))


def _config(real, integer):
    return metadist.SimConfig(_params(real, integer), integer(10), region_radius=real(320.0),
                              num_channel_draws=integer(7), rng_seed=integer(3))


def _moments_output(params):
    return repr([metadist.moment_sequence(params, 10, method=method).values
                 for method in (METHOD_EXACT, METHOD_CLOSED_FORM)]
                + [json.dumps(metadist.sim.scenario_to_dict(params))])


def _campaign_output(config):
    emp = metadist.run_campaign(config)
    return repr([json.dumps(metadist.sim.campaign_to_dict(emp)), emp.ccp_samples.tobytes()])


def _reconstruction_output(basis):
    dist = metadist.fourier_jacobi_coeffs(metadist.moment_sequence(_REFERENCE, 10), basis)
    return repr([dist.coefficients, metadist.eval_cdf(dist, np.linspace(0.0, 1.0, 11)).tolist()])


# Each value type built from real(v) for its real fields and integer(k) for
# its integral ones, and the repr of what the pipeline makes of it.
VALUE_TYPES = {
    "SystemParams": (_params, _moments_output),
    "SimConfig": (_config, _campaign_output),
    "QosSpec": (lambda real, integer: metadist.QosSpec(real(0.3), real(0.7)),
                lambda qos: repr(metadist.min_power(_REFERENCE, qos))),
    "JacobiBasis": (lambda real, integer: metadist.JacobiBasis(real(1.7), real(0.3), integer(10)),
                    _reconstruction_output),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_store_builtin_numbers(name, dtype):
    """numpy reals and np.int64 integers are stored as float and int, and give
    exactly what their values widened to Python numbers give."""
    build, output = VALUE_TYPES[name]
    obj = build(dtype, np.int64)
    declared = {"float": float, "int": int}
    numeric = [f for f in dataclasses.fields(obj) if f.type in declared]
    assert numeric
    assert [f.name for f in numeric if type(getattr(obj, f.name)) is not declared[f.type]] == []
    widened = build(lambda v: float(dtype(v)), int)
    assert obj == widened
    assert output(obj) == output(widened)


# At gamma 11.5, numpy's pow of an np.int64 order moved both moments of
# order 10 by their last bit.
_STEEP = metadist.SystemParams(1e-3, 11.5, 1.0, 1.0, 1e-10)
_DISTANCES = np.array([12.0, 30.0, 55.0, 80.0])

# Each public function called with real(v) for its real scalar arguments and
# integer(k) for its counts.
FUNCTIONS = {
    "moment_exact": lambda real, integer: metadist.moment_exact(_STEEP, integer(10)),
    "moment_approx": lambda real, integer: metadist.moment_approx(_STEEP, integer(10)),
    "moment_sequence": lambda real, integer: metadist.moment_sequence(_STEEP, integer(4)),
    "coeffs": lambda real, integer: metadist.coeffs(_REFERENCE, integer(3)),
    "IntegralCoeffs": lambda real, integer: metadist.IntegralCoeffs(real(0.7), real(2e-10)),
    "approx_error_bound": lambda real, integer: metadist.approx_error_bound(
        real(0.01), real(3e-10), real(4.7)),
    "big_m_constant": lambda real, integer: metadist.moments.big_m_constant(real(4.7)),
    "norm_h": lambda real, integer: metadist.jacobi.norm_h(real(1.7), real(0.3), integer(4)),
    "moment_match_basis": lambda real, integer: metadist.moment_match_basis(
        real(0.6), real(0.4), integer(10)),
    # mu1^2 rounded in float32 leaves no variance here; in float64 it does.
    "moment_match_basis near no variance": lambda real, integer: metadist.moment_match_basis(
        real(0.27439096570014954), real(0.07529040426015854), integer(10)),
    "gauss_2f1": lambda real, integer: metadist.specfun.gauss_2f1(
        real(3.0), real(-0.4), real(0.6), real(-2.5)),
    "reg_inc_beta": lambda real, integer: metadist.specfun.reg_inc_beta(
        real(0.3), real(12.3), real(4.1)),
    "reg_inc_beta on an array": lambda real, integer: metadist.specfun.reg_inc_beta(
        np.linspace(0.0, 1.0, 11), real(12.3), real(4.1)),
    "far_integral_parts": lambda real, integer: metadist.specfun.far_integral_parts(
        np.array([0.0, 0.2, 1.0, 7.5]), real(0.4)),
    "ccp_sampled": lambda real, integer: metadist.ccp_sampled(
        _DISTANCES, _REFERENCE, integer(700), np.random.default_rng(5)),
    "db_to_linear": lambda real, integer: metadist.cli.db_to_linear(real(-37.0)),
    "db_to_linear past the doubles": lambda real, integer: metadist.cli.db_to_linear(
        real(4000.0)),
}


def _builtin(out):
    """out is a builtin float or int, a float64 ndarray, or a tuple or value type of them."""
    if dataclasses.is_dataclass(out):
        out = tuple(getattr(out, f.name) for f in dataclasses.fields(out) if f.type != "str")
    if isinstance(out, tuple):
        return all(_builtin(o) for o in out)
    if isinstance(out, np.ndarray):
        return out.dtype == np.float64
    return type(out) in (float, int)


def _exact_repr(out):
    """repr with every ndarray's dtype and every element in full."""
    if isinstance(out, tuple):
        return "(" + ", ".join(_exact_repr(o) for o in out) + ")"
    if isinstance(out, np.ndarray):
        return f"{out.dtype}{out.tolist()!r}"
    return repr(out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_functions_read_numpy_scalars_as_builtin_numbers(name, dtype):
    """numpy reals and np.int64 counts give builtin numbers (or float64 arrays),
    exactly what their values widened to Python numbers give, and no
    RuntimeWarning: db_to_linear(np.float64(4000.0)) is inf."""
    call = FUNCTIONS[name]
    out = call(dtype, np.int64)
    assert _builtin(out)
    assert _exact_repr(out) == _exact_repr(call(lambda v: float(dtype(v)), int))


@pytest.mark.parametrize("build", [
    lambda: metadist.SimConfig(_REFERENCE, num_realizations=10.0),
    lambda: metadist.JacobiBasis(alpha=0, beta=0, order=2.0),
    lambda: metadist.moment_exact(_REFERENCE, 2.0),
    lambda: metadist.moment_approx(_REFERENCE, 2.0),
    lambda: metadist.rho_n(_REFERENCE, 2.5),
    lambda: metadist.coeffs(_REFERENCE, 2.5),
    lambda: metadist.jacobi.norm_h(0.0, 0.0, 2.0),
    lambda: metadist.ccp_sampled(_DISTANCES, _REFERENCE, 700.0, np.random.default_rng(5)),
])
def test_non_integral_count_is_type_error(build):
    with pytest.raises(TypeError):
        build()
