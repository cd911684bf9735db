"""Moment machinery: exact quadrature vs closed-form approximation vs the
analytic error bound, plus the exactness limits."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import PAPER_SCENARIO
from oracles import (
    beta_moments, max_exp_neg_f, moment_quad, moment_t_mpmath, one_plus_rho_scipy,
    rho_quadrature,
)
from spies import spy

# Regression constant: mu_1 at the reference scenario, frozen from the
# package's quadrature; test_each_moment_against_scipy checks the same float
# against scipy.integrate.quad (oracles.moment_quad).
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
        # The message names the sequence's method, so a CLI user can tell
        # which column failed.
        with pytest.raises(ValueError, match=r"^exact_quadrature moments must be nonincreasing"):
            MomentSequence((1.0, 0.4, 0.6), METHOD_EXACT)
        with pytest.raises(ValueError, match=r"^closed_form moments must be nonincreasing"):
            MomentSequence((1.0, 0.4, 0.6), METHOD_CLOSED_FORM)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"^exact_quadrature moments: mu_1=-0.1 outside \[0, 1\]"):
            MomentSequence((1.0, -0.1), METHOD_EXACT)
        with pytest.raises(ValueError, match=r"^empirical moments: mu_1=\S+ outside \[0, 1\]"):
            MomentSequence((1.0, 1.0 + 1e-9), METHOD_EMPIRICAL)

    def test_zero_moments_valid(self):
        # A sample mean of c^n underflows to 0.0 when every sample is tiny.
        seq = MomentSequence((1.0, 1e-200, 0.0, 0.0), METHOD_EMPIRICAL)
        assert seq.values == (1.0, 1e-200, 0.0, 0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MomentSequence((1.0, 0.5), "guesswork")


class TestRho:
    def test_zero_threshold(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        for n in (1, 4, 9):
            assert rho_n(p, n) == 0.0

    def test_arctan_closed_form(self):
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10)
        assert rho_n(p, 1) == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_oracle_gamma5(self, paper_params):
        assert rho_n(paper_params, 3) == pytest.approx(rho_quadrature(3, 5.0, 1.0), rel=1e-8)

    @pytest.mark.parametrize("function", [coeffs, moment_exact, moment_approx, rho_n])
    @pytest.mark.parametrize("n", [0, -1])
    def test_functions_of_n_require_positive_n(self, paper_params, function, n):
        with pytest.raises(ValueError, match="requires n >= 1"):
            function(paper_params, n)

    def test_2f1_below_one_raises(self):
        # The 2F1 series returns 1.6e-25 here; rho_n >= 0 for every scenario.
        p = SystemParams(1e-3, 5.0, 1e6, 1.0, 1e-10)
        with pytest.raises(ValueError, match=r"1 \+ rho_10 must be at least 1"):
            rho_n(p, 10)


class TestHausdorff:
    def test_beta_moments_pass(self):
        MomentSequence(beta_moments(2.7, 1.3, 20), METHOD_EMPIRICAL).check_hausdorff()

    def test_point_mass_contradiction_fails(self):
        # mu_2 - 2 mu_3 + mu_4 = E[C^2 (1-C)^2] = -0.1.
        seq = MomentSequence((1.0, 0.5, 0.3, 0.2, 0.0), METHOD_EMPIRICAL)
        with pytest.raises(ValueError, match="k=2, n=2 is -0.1 <"):
            seq.check_hausdorff()

    def test_slack_doubles_with_k(self):
        MomentSequence((1.0, 0.5, 0.5 + 0.9e-9), METHOD_EMPIRICAL).check_hausdorff()
        # A first difference below -1e-9 is a rising pair, which no sequence holds.
        with pytest.raises(ValueError, match="must be nonincreasing"):
            MomentSequence((1.0, 0.5, 0.5 + 1.1e-9), METHOD_EMPIRICAL)
        # E[(1-C)^2] = mu_0 - 2 mu_1 + mu_2 may reach -2e-9 but not below.  It
        # is the variance plus (1 - mu_1)^2, so only mu_1 = 1 lets it dip
        # below 0 while the variance stays within its own margin.
        MomentSequence((1.0, 1.0, 1.0 - 1.8e-9), METHOD_EMPIRICAL).check_hausdorff()
        with pytest.raises(ValueError, match="k=2, n=0"):
            MomentSequence((1.0, 1.0, 1.0 - 2.2e-9), METHOD_EMPIRICAL).check_hausdorff()

    def test_negative_variance_fails(self):
        # Every difference with n + k <= 2 is >= 0, yet mu_2 - mu_1^2 = -0.05.
        with pytest.raises(ValueError, match=r"^mu2=0.2 lies below mu1\^2=0.25: a negative "
                                             r"variance, so these are not the moments"):
            MomentSequence((1.0, 0.5, 0.2), METHOD_EMPIRICAL).check_hausdorff()
        # mu_2 = 0 at mu_1 = 1/2 is a variance of -0.25, within every difference margin.
        with pytest.raises(ValueError, match="negative variance"):
            MomentSequence((1.0, 0.5 + 0.9e-9, 0.0), METHOD_EMPIRICAL).check_hausdorff()

    def test_variance_margin_is_twice_the_slack(self):
        MomentSequence((1.0, 0.5, 0.25 - 1.9e-9), METHOD_EMPIRICAL).check_hausdorff()
        with pytest.raises(ValueError, match="negative variance"):
            MomentSequence((1.0, 0.5, 0.25 - 2.1e-9), METHOD_EMPIRICAL).check_hausdorff()

    @pytest.mark.parametrize("values, hankel", [
        # N = 4: E[C^2 (1-C)]^2 = 0.0025 exceeds E[C (1-C)] E[C^3 (1-C)] =
        # 0.001, which Cauchy-Schwarz forbids.
        ((1.0, 0.6, 0.5, 0.45, 0.44), r"\[E\[C\^\(i\+j\+1\) \(1-C\)\]\]"),
        # N = 3: E[C^2]^2 = 0.16 exceeds E[C] E[C^3] = 0.15.
        ((1.0, 0.5, 0.4, 0.3), r"\[E\[C\^\(i\+j\+1\)\]\]"),
    ], ids=["even", "odd"])
    def test_hankel_matrix_fails(self, values, hankel):
        # Every difference and the variance pass.
        with pytest.raises(ValueError, match=f"the Hankel matrix {hankel}, i, j = 0..1, has "
                                             f"eigenvalue -0.012"):
            MomentSequence(values, METHOD_EMPIRICAL).check_hausdorff()

    @pytest.mark.parametrize("n, sign", [(4, 1.0), (3, -1.0)], ids=["even", "odd"])
    def test_hankel_margin_is_the_size_times_the_slack(self, n, sign):
        # The point mass at 1/2 makes one 2 x 2 Hankel matrix singular, the
        # last for N = 4 and the first for N = 3.  Moving mu_N by sign e gives
        # it the eigenvalue -0.8 e to first order, and leaves every difference
        # and the variance far inside their margins.  Its margin is 2e-9.
        mu = [0.5**j for j in range(n)]
        last = 0.5**n
        MomentSequence((*mu, last + sign * 2.4e-9), METHOD_EMPIRICAL).check_hausdorff()
        with pytest.raises(ValueError, match="Hankel matrix .* has eigenvalue -2.08e-09 < 0"):
            MomentSequence((*mu, last + sign * 2.6e-9), METHOD_EMPIRICAL).check_hausdorff()

    def test_difference_is_the_beta_law_value(self):
        # For Beta(a, b), E[C^n (1-C)^k] = B(a+n, b+k) / B(a, b).
        a, b = 2.7, 1.3
        seq = MomentSequence(beta_moments(a, b, 12), METHOD_EMPIRICAL)
        log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        diffs = seq.differences(12)
        assert [len(row) for row in diffs] == list(range(13, 0, -1))
        for n, row in enumerate(diffs):
            for k, diff in enumerate(row):
                exact = math.exp(math.lgamma(a + n) + math.lgamma(b + k)
                                 - math.lgamma(a + b + n + k) - log_norm)
                assert diff == pytest.approx(exact, rel=1e-10)

    def test_differences_are_one_fsum_per_entry(self):
        # Each entry is the one math.fsum of C(m, j) (-1)^j mu_{l+j}, to the bit.
        mu = moment_sequence(SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10), 20).values
        diffs = MomentSequence(mu, METHOD_EMPIRICAL).differences(20)
        for l, row in enumerate(diffs):
            assert row == [math.fsum(math.comb(m, j) * (-1.0) ** j * mu[l + j]
                                     for j in range(m + 1)) for m in range(21 - l)]

    def test_differences_need_the_moments(self):
        seq = MomentSequence((1.0, 0.5, 0.3), METHOD_EMPIRICAL)
        assert seq.differences(0) == [[1.0]]
        with pytest.raises(ValueError, match=r"up to order 3 need mu_0..mu_3, got mu_0..mu_2"):
            seq.differences(3)

    @pytest.mark.parametrize("method", [METHOD_EXACT, METHOD_CLOSED_FORM])
    def test_scenario_moments_pass(self, method):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = SystemParams(10.0 ** rng.uniform(-4.0, -2.0), rng.uniform(2.5, 6.0),
                             10.0 ** rng.uniform(-2.0, 2.0), 1.0,
                             10.0 ** rng.uniform(-12.0, -8.0))
            moment_sequence(p, 20, method).check_hausdorff()


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
    def test_noiseless_closed_form(self):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)
        for n in (1, 3, 6):
            assert moment_exact(p, n) == pytest.approx(
                1.0 / one_plus_rho_scipy(p, n), abs=1e-11
            )

    def test_reference_regression_value(self, paper_params):
        assert moment_exact(paper_params, 1) == pytest.approx(
            MU1_REFERENCE, abs=1e-9
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
            assert moment_approx(p, n) == pytest.approx(1.0 / one_plus_rho_scipy(p, n),
                                                        abs=1e-11)

    def test_gamma_near_two_limit(self):
        p = SystemParams(1e-3, 2.01, 1.0, 1.0, 1e-10)
        assert moment_approx(p, 1) == pytest.approx(moment_t_mpmath(p, 1), abs=1e-4)

    def test_monotone_nonincreasing_in_n(self, paper_params):
        exact = [moment_exact(paper_params, n) for n in range(1, 11)]
        approx = [moment_approx(paper_params, n) for n in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(exact, exact[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(approx, approx[1:]))

    def test_hausdorff_forward_differences(self, paper_params):
        # Complete monotonicity diagnostic: (-1)^k Delta^k mu_n >= 0.
        mu = [1.0] + [moment_exact(paper_params, n) for n in range(1, 11)]
        diffs = np.array(mu)
        for k in range(1, 5):
            diffs = np.diff(diffs)
            assert np.all((-1.0) ** k * diffs >= -1e-9)


class TestThetaMonotonicity:
    # theta stays at or below 20 dB: from 28 dB up, gauss_2f1's series stops
    # at its term cap before it converges, so rho_n and both moments are
    # wrong there (ROADMAP item 1).
    @settings(max_examples=200)
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

    def test_inf_only_past_the_doubles(self):
        # Gamma(gamma/2) alone overflows above gamma 343.2.  The bound reads
        # inf where its second term exceeds the doubles; below that it is
        # the product formula, and a large A keeps it finite at any gamma.
        g = 300.0
        k = 1.0 + g / (2.0 * math.gamma(2.0 / g))
        expected = (g * big_m_constant(g) / (2.0 * k)) * (
            1.0 / (math.gamma(2.0 / g) * k) + math.gamma(g / 2.0) * (1.0 / k) ** (g / 2.0)
        )
        assert approx_error_bound(1.0, 1.0, g) == pytest.approx(expected, rel=1e-12)
        assert approx_error_bound(1e-3, 1.0, 400.0) == math.inf
        assert 0.0 < approx_error_bound(1e9, 1.0, 1e6) < 1e-9

    def test_vanishes_for_large_a(self):
        bounds = [approx_error_bound(a, 1.0, 3.0) for a in (1e3, 1e6, 1e9)]
        assert bounds[0] < 1e-5
        assert bounds[0] > bounds[1] > bounds[2]

    def test_moment_bound_property(self, paper_params):
        # |mu_exact - mu_approx| <= pi lambda * bound(A_n, B_n, gamma), a grid
        # that also exercises gamma = 3 where noise matters most.  A_n is
        # scipy's, and mu_exact is mpmath's (oracles.moment_t_mpmath).
        scenarios = [
            paper_params,
            SystemParams(1e-3, 3.0, 1.0, 1.0, 1e-10),
            SystemParams(1e-3, 3.0, 0.5, 1.0, 1e-7),
            SystemParams(5e-3, 4.0, 2.0, 0.5, 1e-8),
        ]
        for p in scenarios:
            for n in (1, 2, 5):
                scale = math.pi * p.lambda_bs
                bound = scale * approx_error_bound(
                    scale * one_plus_rho_scipy(p, n), n * p.theta * p.noise / p.power,
                    p.gamma_pl,
                )
                diff = abs(moment_t_mpmath(p, n) - moment_approx(p, n))
                assert diff <= bound + 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            approx_error_bound(0.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            approx_error_bound(1.0, -1.0, 4.0)
        with pytest.raises(ValueError):
            approx_error_bound(1.0, 1.0, 2.0)
        # An infinite B would make the bound inf / inf = NaN.
        with pytest.raises(ValueError, match="finite"):
            approx_error_bound(1.0, math.inf, 4.0)


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

    @pytest.mark.parametrize("gamma", [2.0, 1.5, math.nan])
    def test_requires_gamma_above_two(self, gamma):
        with pytest.raises(ValueError, match="requires gamma_pl > 2"):
            big_m_constant(gamma)

    def test_at_least_one(self):
        for g in np.linspace(2.01, 12.0, 25):
            assert big_m_constant(float(g)) >= 1.0


class TestMomentSequenceBuilder:
    def test_methods_and_shape(self, paper_params):
        # Each row of a sequence is its one-row call, as a Python float: at
        # lambda 3.2e-313 c_n is finite for some rows and inf for others, and
        # the benchmark builds lambda as a numpy scalar, whose c_n overflows
        # silently too.
        scenarios = [
            paper_params,
            SystemParams(3.2e-313, 5, 1, 1, 1e-10),
            SystemParams(1e-3, 5, 1, 1, 0.0),
            SystemParams(np.float64(1e-3), 5, 1, 1, 1e-10),
            SystemParams(np.float64(3.2e-313), 5, 1, 1, 1e-10),
        ]
        for p in scenarios:
            for method, one_row in ((METHOD_EXACT, moment_exact),
                                    (METHOD_CLOSED_FORM, moment_approx)):
                seq = moment_sequence(p, 10, method=method)
                assert seq.method == method
                assert len(seq) == 11
                assert seq[0] == 1.0
                for n in range(1, 11):
                    assert type(seq.values[n]) is float
                    assert repr(one_row(p, n)) == repr(seq.values[n]), (p, method, n)

    def test_negative_n_max_rejected(self, paper_params):
        with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
            moment_sequence(paper_params, -1)

    def test_empirical_not_computable(self, paper_params):
        with pytest.raises(ValueError):
            moment_sequence(paper_params, 3, method="empirical")


class TestOneQuadraturePerSequence:
    """The exact mu_1..mu_N are the rows of one engine call; the closed form makes none."""

    def test_one_engine_call(self, paper_params, monkeypatch):
        calls = spy(monkeypatch, moments, "integrate_semi_infinite_decaying")
        moment_sequence(paper_params, 10)
        assert len(calls) == 1
        moment_sequence(paper_params, 10, method=METHOD_CLOSED_FORM)
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
        # reference is built from scipy alone (moment_quad).
        p = SystemParams(1e-3, gamma, 10.0 ** (theta_db / 10.0), 1.0, noise)
        seq = moment_sequence(p, 10)
        for n in range(1, 11):
            assert abs(seq[n] - moment_quad(p, n)) <= DEFAULT_TOL

    def test_sequence_against_scipy_over_the_cli_range(self):
        # gamma in (2, 20], theta -60..20 dB, lambda 1e-10..1e2 per m^2,
        # noise 0 or -250..-10 dBm at p = 1 mW, n_max 1..40.
        rng = np.random.default_rng(21)
        for _ in range(60):
            g, theta = rng.uniform(2.001, 20.0), 10.0 ** rng.uniform(-6.0, 2.0)
            lam = 10.0 ** rng.uniform(-10.0, 2.0)
            noise = 10.0 ** rng.uniform(-25.0, -1.0) if rng.random() < 0.8 else 0.0
            n_max = int(rng.integers(1, 41))
            p = SystemParams(lam, g, theta, 1.0, noise)
            seq = moment_sequence(p, n_max)
            for n in range(1, n_max + 1):
                assert abs(seq[n] - moment_quad(p, n)) <= DEFAULT_TOL, (g, theta, lam)


class TestNoiseRoot:
    """lambda, p and sigma2 reach the moments only through c_1 = noise_root."""

    def test_value(self, paper_params):
        # (theta sigma2 / p)^(2/gamma) / (pi lambda) = (1e-10)^0.4 / (pi 1e-3).
        assert paper_params.noise_root == pytest.approx(1e-4 / (math.pi * 1e-3), rel=1e-14)

    @pytest.mark.parametrize("theta, noise", [(1.0, 0.0), (0.0, 1e-10)])
    def test_noise_free_is_one_over_a_without_quadrature(self, theta, noise, monkeypatch):
        calls = spy(monkeypatch, moments, "integrate_semi_infinite_decaying")
        p = SystemParams(1e-3, 5.0, theta, 1.0, noise)
        assert p.noise_root == 0.0
        # Both methods take 1 / a_n, bit for bit; scipy's 2F1 is the reference.
        exact = moment_sequence(p, 10).values
        assert moment_sequence(p, 10, method=METHOD_CLOSED_FORM).values == exact
        expected = [1.0] + [1.0 / one_plus_rho_scipy(p, n) for n in range(1, 11)]
        assert list(exact) == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert calls == []

    @pytest.mark.parametrize("j", [-3, -1, 1, 4])
    def test_equal_root_gives_equal_moments(self, j):
        # gamma = 4: (lambda, p) -> (4^j lambda, 16^-j p) leaves c_1 unchanged,
        # and every step of it is exact in binary.
        base = SystemParams(1e-3, 4.0, 2.0, 1.0, 1e-10)
        moved = dataclasses.replace(base, lambda_bs=4.0**j * 1e-3, power=16.0**-j)
        assert moved.noise_root == base.noise_root
        for method in (METHOD_EXACT, METHOD_CLOSED_FORM):
            assert moment_sequence(moved, 10, method).values == (
                moment_sequence(base, 10, method).values)

    def test_overflowing_root_gives_zero(self):
        # c_1 = 1e-4 / (pi 1e-320) overflows: mu_n is below the normal doubles.
        # Each c_n = inf is a row with r_n = a_n / inf = 0, whose integrand the
        # rule sums to exactly 0.0.
        p = SystemParams(1e-320, 5.0, 1.0, 1.0, 1e-10)
        assert p.noise_root == math.inf
        assert moment_sequence(p, 3).values == (1.0, 0.0, 0.0, 0.0)
        assert moment_approx(p, 1) == 0.0
        # c_1 = 1e-4 / (pi 3.2e-313) is about 1e308: c_n = n^0.4 c_1 is finite
        # up to n = 4 and overflows from n = 5, all rows of one engine call.
        p = SystemParams(3.2e-313, 5.0, 1.0, 1.0, 1e-10)
        values = moment_sequence(p, 10).values
        assert [repr(v) for v in values[1:5]] == [
            "8.91974877070748e-309", "6.759905490436034e-309",
            "5.747832722944616e-309", "5.123050369949243e-309",
        ]
        assert values[5:] == (0.0,) * 6
        # The closed form takes the same subnormals where gamma c_n would
        # overflow, and 0.0 where c_n does.
        approx = moment_sequence(p, 10, method=METHOD_CLOSED_FORM).values
        for n in range(1, 5):
            assert approx[n] == pytest.approx(values[n], rel=1e-12, abs=0.0), n
        assert approx[5:] == (0.0,) * 6

    @settings(max_examples=300)
    @given(
        gamma=st.floats(2.05, 20.0),
        theta_db=st.floats(-60.0, 20.0),
        log10_lambda=st.floats(-8.0, 0.0),
        noise_dbm=st.floats(-200.0, -30.0),
    )
    def test_closed_form_never_exceeds_exact(self, gamma, theta_db, log10_lambda, noise_dbm):
        # What makes min_power safe: the closed-form mu_2 it solves on is at
        # most the exact one.  theta stops at 20 dB, below the 2F1's defect.
        p = SystemParams(10.0**log10_lambda, gamma, 10.0 ** (theta_db / 10.0), 1.0,
                         10.0 ** (noise_dbm / 10.0))
        exact = moment_sequence(p, 10).values
        approx = moment_sequence(p, 10, method=METHOD_CLOSED_FORM).values
        for n in range(1, 11):
            assert approx[n] <= exact[n] * (1.0 + DEFAULT_TOL), n


class TestEnvelope:
    """mu_approx <= mu_n <= min(1/a_n, Gamma(1 + 2/gamma) / c_n), and two Jensen
    lower bounds below mu_n.

    In the t-form mu_n = int_0^inf e^(-a_n t) e^(-(c_n t)^(gamma/2)) dt, each
    factor is at most 1, which gives 1/a_n and Gamma(1 + 2/gamma) / c_n.  The
    paper's closed form 1 / (a_n + c_n / Gamma(1 + 2/gamma)) replaces the
    Weibull survival by the exponential of the same integral; the two cross
    once, so against the decreasing weight e^(-a_n t) the closed form is a
    lower bound.  Jensen's inequality for the convex exp(-x), with T ~
    Exp(a_n) and with s = (c_n t)^(gamma/2), gives

        L1 = (1/a_n) exp(-Gamma(1 + gamma/2) (c_n/a_n)^(gamma/2)),
        L2 = (G/c_n) exp(-(a_n/c_n) Gamma(2 delta) / Gamma(delta)),

    with delta = 2/gamma and G = Gamma(1 + delta).
    """

    def test_closed_form_and_exact_within_the_envelope(self):
        # gamma log-uniform in [2.01, 20], theta -20..20 dB (below the 2F1's
        # defect), lambda 1e-6..1e-1 per m^2, noise -150..-50 dBm at p = 1 mW.
        rng = np.random.default_rng(13)
        for _ in range(300):
            g = math.exp(rng.uniform(math.log(2.01), math.log(20.0)))
            theta = 10.0 ** (rng.uniform(-20.0, 20.0) / 10.0)
            lam = 10.0 ** rng.uniform(-6.0, -1.0)
            noise = 10.0 ** (rng.uniform(-150.0, -50.0) / 10.0)
            p = SystemParams(lam, g, theta, 1.0, noise)
            exact = moment_sequence(p, 10).values
            gamma_c = math.gamma(1.0 + 2.0 / g)
            for n in range(1, 11):
                a_n = 1.0 + rho_n(p, n)
                c_n = n ** (2.0 / g) * p.noise_root
                case = (g, theta, lam, noise, n)
                assert moment_approx(p, n) <= exact[n] * (1.0 + 1e-12), case
                assert exact[n] <= min(1.0 / a_n, gamma_c / c_n) * (1.0 + 1e-12), case

    @settings(max_examples=30)
    @given(
        gamma=st.floats(2.0, 20.0, exclude_min=True),
        theta_db=st.floats(-20.0, 20.0),
        noise_dbm=st.floats(-150.0, -50.0),
        n=st.sampled_from([1, 2, 5, 10]),
    )
    def test_envelope_against_mpmath(self, gamma, theta_db, noise_dbm, n):
        # mu from mpmath and one_plus_rho_scipy alone; c_n and every power from
        # logs.  gamma reaches down to the double just above 2, where 1 + rho_n
        # is mpmath's 2F1 (scipy's is inf once 1 - 2/gamma falls below 5e-14).
        theta, noise = 10.0 ** (theta_db / 10.0), 10.0 ** (noise_dbm / 10.0)
        p = SystemParams(1e-3, gamma, theta, 1.0, noise)
        mu = moment_t_mpmath(p, n)
        delta = 2.0 / gamma
        log_a = math.log(one_plus_rho_scipy(p, n))
        log_c = delta * math.log(n * theta * noise / p.power) - math.log(math.pi * p.lambda_bs)
        upper = min(math.exp(-log_a), math.exp(math.lgamma(1.0 + delta) - log_c))
        l1 = math.exp(-log_a - math.exp(math.lgamma(1.0 + gamma / 2.0)
                                        + gamma / 2.0 * (log_c - log_a)))
        l2 = math.exp(math.lgamma(1.0 + delta) - log_c - math.exp(
            log_a - log_c + math.lgamma(2.0 * delta) - math.lgamma(delta)))
        slack = 1.0 + 1e-12
        assert moment_approx(p, n) <= mu * slack
        assert mu <= upper * slack
        assert max(l1, l2) <= mu * slack
        assert abs(moment_exact(p, n) - mu) <= DEFAULT_TOL * mu


class TestRhoMemo:
    """Each 2F1 runs once per order and SystemParams object.

    Each test builds its own objects: the shared paper_params fixture's memo
    fills up across tests.
    """

    def test_one_call_per_order(self, monkeypatch):
        calls = spy(monkeypatch, moments, "gauss_2f1")
        p = SystemParams(**PAPER_SCENARIO)
        moment_sequence(p, 10)
        moment_sequence(p, 10, method=METHOD_CLOSED_FORM)
        for n in range(1, 11):
            coeffs(p, n)
        min_power(p, QosSpec(x_rel=0.1, epsilon=0.6))
        assert len(calls) == 10
        assert len(set(calls)) == 10
        # An equal but separate object computes its own.
        coeffs(SystemParams(**PAPER_SCENARIO), 1)
        assert len(calls) == 11

    def test_memo_is_not_part_of_the_scenario(self):
        p, fresh = SystemParams(**PAPER_SCENARIO), SystemParams(**PAPER_SCENARIO)
        moment_sequence(p, 4)
        assert p == fresh
        assert hash(p) == hash(fresh)
        assert repr(p) == repr(fresh) == (
            "SystemParams(lambda_bs=0.001, gamma_pl=5.0, theta=1.0, power=1.0, noise=1e-10)"
        )

    def test_replace_starts_empty(self, monkeypatch):
        p = SystemParams(**PAPER_SCENARIO)
        rho_n(p, 2)
        calls = spy(monkeypatch, moments, "gauss_2f1")
        rho_n(dataclasses.replace(p, lambda_bs=2e-3), 2)
        rho_n(dataclasses.replace(p), 2)
        assert len(calls) == 2
        rho_n(p, 2)
        assert len(calls) == 2
