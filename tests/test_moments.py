"""Moment machinery: exact quadrature vs closed-form approximation vs the
analytic error bound, plus the exactness limits."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from metadist import moments
from metadist.moments import (
    METHOD_CLOSED_FORM,
    METHOD_EMPIRICAL,
    METHOD_EXACT,
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
from metadist.quadrature import DEFAULT_TOL
from metadist.scaling import QosSpec, min_power

from oracles import max_exp_neg_f, rho_quadrature

# Regression constant: mu_1 at the reference scenario, frozen from this
# module's own quadrature at tol 1e-12 and cross-validated below against
# scipy.integrate.quad.
MU1_REFERENCE = 0.663205883062099


class TestSystemParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda_bs=0.0, gamma_pl=5.0, theta=1.0, power=1.0, noise=0.0),
            dict(lambda_bs=1e-3, gamma_pl=2.0, theta=1.0, power=1.0, noise=0.0),
            dict(lambda_bs=1e-3, gamma_pl=5.0, theta=-0.1, power=1.0, noise=0.0),
            dict(lambda_bs=1e-3, gamma_pl=5.0, theta=1.0, power=0.0, noise=0.0),
            dict(lambda_bs=1e-3, gamma_pl=5.0, theta=1.0, power=1.0, noise=-1e-12),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("field", ["lambda_bs", "gamma_pl", "theta", "power", "noise"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_params_rejected(self, field, value):
        kwargs = dict(lambda_bs=1e-3, gamma_pl=5.0, theta=1.0, power=1.0, noise=1e-10)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemParams(**kwargs)


class TestMomentSequence:
    def test_valid_sequence(self):
        seq = MomentSequence((1.0, 0.6, 0.4), METHOD_EXACT)
        assert seq[0] == 1.0 and len(seq) == 3

    def test_mu0_must_be_one(self):
        with pytest.raises(ValueError):
            MomentSequence((0.9, 0.6), METHOD_EXACT)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            MomentSequence((1.0, 0.4, 0.6), METHOD_EXACT)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            MomentSequence((1.0, -0.1), METHOD_EXACT)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            MomentSequence((1.0, 1.0 + 1e-9), METHOD_EXACT)

    def test_zero_moments_valid(self):
        # A sample mean of c^n underflows to 0.0 when every sample is tiny.
        seq = MomentSequence((1.0, 1e-200, 0.0, 0.0), METHOD_EMPIRICAL)
        assert seq.values == (1.0, 1e-200, 0.0, 0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MomentSequence((1.0, 0.5), "guesswork")


class TestRho:
    def test_zero_threshold(self, paper_params):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        for n in (1, 4, 9):
            assert rho_n(p, n) == 0.0

    def test_arctan_closed_form(self):
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10)
        assert rho_n(p, 1) == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_oracle_gamma5(self):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)
        assert rho_n(p, 3) == pytest.approx(rho_quadrature(3, 5.0, 1.0), rel=1e-8)

    def test_requires_positive_n(self, paper_params):
        with pytest.raises(ValueError):
            rho_n(paper_params, 0)


class TestCoeffs:
    def test_zero_threshold(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        c = coeffs(p, 3)
        assert c.a_coef == pytest.approx(math.pi * 1e-3, rel=1e-15)
        assert c.b_coef == 0.0

    def test_noiseless(self, paper_params):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)
        for n in (1, 2, 7):
            assert coeffs(p, n).b_coef == 0.0

    def test_reference_scenario_n2(self, paper_params):
        c = coeffs(paper_params, 2)
        rho2 = rho_quadrature(2, 5.0, 1.0)
        assert c.a_coef == pytest.approx(math.pi * 1e-3 * (1.0 + rho2), rel=1e-8)
        assert c.b_coef == pytest.approx(2e-10, rel=1e-15)


class TestMomentExact:
    def test_zero_threshold_is_one(self):
        for g, lam, p, s2 in [(3.0, 1e-3, 1.0, 1e-10), (5.0, 0.01, 2.0, 0.0)]:
            params = SystemParams(lam, g, 0.0, p, s2)
            assert abs(moment_exact(params, 1) - 1.0) <= 1e-10

    def test_noiseless_closed_form(self):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)
        for n in (1, 3, 6):
            assert moment_exact(p, n, 1e-12) == pytest.approx(
                1.0 / (1.0 + rho_n(p, n)), abs=1e-11
            )

    def test_reference_regression_value(self, paper_params):
        assert moment_exact(paper_params, 1, 1e-12) == pytest.approx(
            MU1_REFERENCE, abs=1e-9
        )

    def test_against_scipy_quad(self, paper_params):
        c = coeffs(paper_params, 1)
        scale = math.pi * paper_params.lambda_bs
        ref, _ = si.quad(
            lambda z: math.exp(-(c.a_coef * z + c.b_coef * z**2.5)),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
        )
        assert moment_exact(paper_params, 1, 1e-12) == pytest.approx(
            scale * ref, abs=1e-10
        )

    def test_in_unit_interval(self, paper_params):
        for n in range(1, 11):
            assert 0.0 < moment_exact(paper_params, n) <= 1.0


class TestMomentApprox:
    def test_zero_threshold_is_one(self):
        p = SystemParams(1e-3, 3.0, 0.0, 1.0, 1e-10)
        assert moment_approx(p, 1) == 1.0

    def test_noiseless_equals_exact(self):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)
        for n in (1, 2, 5):
            assert moment_approx(p, n) == pytest.approx(moment_exact(p, n, 1e-12), abs=1e-11)

    def test_gamma_near_two_limit(self):
        p = SystemParams(1e-3, 2.01, 1.0, 1.0, 1e-10)
        assert moment_approx(p, 1) == pytest.approx(moment_exact(p, 1, 1e-12), abs=1e-4)

    def test_monotone_nonincreasing_in_n(self, paper_params):
        exact = [moment_exact(paper_params, n) for n in range(1, 11)]
        approx = [moment_approx(paper_params, n) for n in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(exact, exact[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(approx, approx[1:]))

    def test_hausdorff_forward_differences(self, paper_params):
        # Complete monotonicity diagnostic: (-1)^k Delta^k mu_n >= 0.
        mu = [1.0] + [moment_exact(paper_params, n, 1e-12) for n in range(1, 11)]
        diffs = np.array(mu)
        for k in range(1, 5):
            diffs = np.diff(diffs)
            assert np.all((-1.0) ** k * diffs >= -1e-9)


class TestThetaMonotonicity:
    # theta stays at or below 20 dB: from 28 dB up, gauss_2f1's series stops
    # at its term cap before it converges, so rho_n and both moments are
    # wrong there (ROADMAP item 1).
    @settings(max_examples=200, deadline=None)
    @given(
        theta_db=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
        gamma=st.floats(2.0, 6.0, exclude_min=True),
        log10_lambda=st.floats(-4.0, -2.0),
        noise_dbm=st.one_of(st.none(), st.floats(-120.0, -80.0)),
    )
    def test_mu1_does_not_increase_with_theta(self, theta_db, gamma, log10_lambda, noise_dbm):
        noise = 0.0 if noise_dbm is None else 10.0 ** (noise_dbm / 10.0)

        def params(t_db):
            return SystemParams(10.0**log10_lambda, gamma, 10.0 ** (t_db / 10.0), 1.0, noise)

        lo, hi = (params(t) for t in sorted(theta_db))
        # Slack for rounding only: thetas a few ulps apart move either value
        # by up to about 3e-14.
        assert moment_exact(hi, 1) <= moment_exact(lo, 1) + 1e-12
        assert moment_approx(hi, 1) <= moment_approx(lo, 1) + 1e-12


class TestErrorBound:
    def test_zero_b_is_exact(self):
        assert approx_error_bound(1.0, 0.0, 4.0) == 0.0

    def test_formula_at_gamma_four(self):
        # with M = e^(1/pi): bound = (gM/2K)[B^(2/g)/(Gamma(2/g)K) + Gamma(g/2)(B^(2/g)/K)^(g/2)]
        m = math.exp(1.0 / math.pi)
        k = 1.0 + 4.0 / (2.0 * math.gamma(0.5))
        expected = (4.0 * m / (2.0 * k)) * (
            1.0 / (math.gamma(0.5) * k) + math.gamma(2.0) * (1.0 / k) ** 2.0
        )
        assert approx_error_bound(1.0, 1.0, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_bounds_true_error_at_gamma_four(self):
        k = 1.0 + 4.0 / (2.0 * math.gamma(0.5))
        i = si.quad(lambda z: math.exp(-(z + z * z)), 0.0, np.inf, epsabs=1e-12, epsrel=0.0)[0]
        assert abs(i - 1.0 / k) <= approx_error_bound(1.0, 1.0, 4.0)

    def test_vanishes_for_large_a(self):
        bounds = [approx_error_bound(a, 1.0, 3.0) for a in (1e3, 1e6, 1e9)]
        assert bounds[0] < 1e-5
        assert bounds[0] > bounds[1] > bounds[2]

    def test_moment_bound_property(self, paper_params):
        # |mu_exact - mu_approx| <= pi lambda * bound(A_n, B_n, gamma), a grid
        # that also exercises gamma = 3 where noise matters most.
        scenarios = [
            paper_params,
            SystemParams(1e-3, 3.0, 1.0, 1.0, 1e-10),
            SystemParams(1e-3, 3.0, 0.5, 1.0, 1e-7),
            SystemParams(5e-3, 4.0, 2.0, 0.5, 1e-8),
        ]
        for p in scenarios:
            for n in (1, 2, 5):
                c = coeffs(p, n)
                bound = math.pi * p.lambda_bs * approx_error_bound(
                    c.a_coef, c.b_coef, p.gamma_pl
                )
                diff = abs(moment_exact(p, n, 1e-12) - moment_approx(p, n))
                assert diff <= bound + 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            approx_error_bound(0.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            approx_error_bound(1.0, -1.0, 4.0)
        with pytest.raises(ValueError):
            approx_error_bound(1.0, 1.0, 2.0)


class TestBigM:
    def test_gamma_four_closed_form(self):
        assert big_m_constant(4.0) == pytest.approx(math.exp(1.0 / math.pi), rel=1e-12)

    def test_matches_numeric_maximization(self):
        for g in (2.5, 3.0, 4.0, 5.0):
            assert big_m_constant(g) == pytest.approx(max_exp_neg_f(g, 1.0), rel=1e-10)

    def test_independent_of_b(self):
        for g in (3.0, 4.0):
            vals = [max_exp_neg_f(g, b) for b in (0.1, 1.0, 10.0)]
            assert max(vals) - min(vals) <= 1e-10 * max(vals)

    def test_gamma_to_two_limit(self):
        assert big_m_constant(2.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_at_least_one(self):
        for g in np.linspace(2.01, 12.0, 25):
            assert big_m_constant(float(g)) >= 1.0


class TestMomentSequenceBuilder:
    def test_methods_and_shape(self, paper_params):
        for method in (METHOD_EXACT, METHOD_CLOSED_FORM):
            seq = moment_sequence(paper_params, 5, method=method)
            assert seq.method == method
            assert len(seq) == 6
            assert seq[0] == 1.0

    def test_empirical_not_computable(self, paper_params):
        with pytest.raises(ValueError):
            moment_sequence(paper_params, 3, method="empirical")


class TestOneQuadraturePerSequence:
    """The exact mu_1..mu_N are the rows of one engine call."""

    def test_one_engine_call(self, paper_params, monkeypatch):
        calls = []
        real = moments.integrate_semi_infinite_decaying

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(moments, "integrate_semi_infinite_decaying", spy)
        moment_sequence(paper_params, 10)
        assert len(calls) == 1

    @pytest.mark.parametrize("theta_db, gamma, noise", [
        (-10.0, 3.0, 1e-10),
        (0.0, 5.0, 1e-10),
        (10.0, 4.0, 1e-8),
        (20.0, 2.5, 1e-12),
        (20.0, 5.0, 1e-9),
    ])
    def test_each_moment_against_scipy(self, theta_db, gamma, noise):
        # At or below 20 dB the package's 2F1 agrees with scipy's, so the
        # reference is built from scipy alone.
        lam, theta, d = 1e-3, 10.0 ** (theta_db / 10.0), 2.0 / gamma
        seq = moment_sequence(SystemParams(lam, gamma, theta, 1.0, noise), 10)
        for n in range(1, 11):
            a_coef = math.pi * lam * hyp2f1(n, -d, 1.0 - d, -theta)
            # u = A_n z scales the integral to (0, 1].
            k = n * theta * noise / a_coef ** (gamma / 2.0)
            ref, _ = si.quad(lambda u: math.exp(-u - k * u ** (gamma / 2.0)), 0.0, np.inf,
                             epsabs=1e-15, epsrel=1e-13, limit=400)
            assert abs(seq[n] - math.pi * lam * ref / a_coef) <= DEFAULT_TOL

    def test_sequence_against_scipy_over_the_cli_range(self):
        # gamma in (2, 20], theta -60..20 dB, lambda 1e-10..1e2 per m^2,
        # noise 0 or -250..-10 dBm at p = 1 mW, n_max 1..40.
        rng = np.random.default_rng(21)
        for _ in range(60):
            g, theta = rng.uniform(2.001, 20.0), 10.0 ** rng.uniform(-6.0, 2.0)
            lam = 10.0 ** rng.uniform(-10.0, 2.0)
            noise = 10.0 ** rng.uniform(-25.0, -1.0) if rng.random() < 0.8 else 0.0
            n_max = int(rng.integers(1, 41))
            seq = moment_sequence(SystemParams(lam, g, theta, 1.0, noise), n_max)
            for n in range(1, n_max + 1):
                a_coef = math.pi * lam * hyp2f1(n, -2.0 / g, 1.0 - 2.0 / g, -theta)
                b_coef = n * theta * noise
                # u = z / L with L = 1 / (A_n + B_n^(2/g)), the length on which
                # the integrand decays: the integral in u is of order 1.
                length = 1.0 / (a_coef + b_coef ** (2.0 / g))
                al, bl = a_coef * length, b_coef * length ** (g / 2.0)
                ref, _ = si.quad(lambda u: math.exp(-(al * u + bl * u ** (g / 2.0))),
                                 0.0, np.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
                assert abs(seq[n] - math.pi * lam * length * ref) <= DEFAULT_TOL, (g, theta, lam)


class TestRhoMemo:
    """Each 2F1 runs once per order and SystemParams object."""

    SCENARIO = (1e-3, 5.0, 1.0, 1.0, 1e-10)

    def _counted(self, monkeypatch):
        calls = []
        real = moments.gauss_2f1

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(moments, "gauss_2f1", counted)
        return calls

    def test_one_call_per_order(self, monkeypatch):
        calls = self._counted(monkeypatch)
        p = SystemParams(*self.SCENARIO)
        moment_sequence(p, 10)
        moment_sequence(p, 10, method=METHOD_CLOSED_FORM)
        for n in range(1, 11):
            coeffs(p, n)
        min_power(p, QosSpec(x_rel=0.1, epsilon=0.6))
        assert len(calls) == 10
        assert len(set(calls)) == 10
        # An equal but separate object computes its own.
        coeffs(SystemParams(*self.SCENARIO), 1)
        assert len(calls) == 11

    def test_memo_is_not_part_of_the_scenario(self):
        p, fresh = SystemParams(*self.SCENARIO), SystemParams(*self.SCENARIO)
        moment_sequence(p, 4)
        assert p == fresh
        assert hash(p) == hash(fresh)
        assert repr(p) == repr(fresh) == (
            "SystemParams(lambda_bs=0.001, gamma_pl=5.0, theta=1.0, power=1.0, noise=1e-10)"
        )

    def test_replace_starts_empty(self, monkeypatch):
        p = SystemParams(*self.SCENARIO)
        rho_n(p, 2)
        calls = self._counted(monkeypatch)
        rho_n(dataclasses.replace(p, lambda_bs=2e-3), 2)
        rho_n(dataclasses.replace(p), 2)
        assert len(calls) == 2
        rho_n(p, 2)
        assert len(calls) == 2
