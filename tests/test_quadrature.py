"""Quadrature engine against closed forms, scipy.integrate.quad and mpmath."""
import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from metadist import moments
from metadist.quadrature import (
    DEFAULT_TOL,
    QuadratureError,
    integrate_semi_infinite_decaying,
)

from oracles import moment_t_mpmath, one_plus_rho_scipy


class TestFinite:
    """A finite value within the tolerance, or an error."""

    def test_constant(self):
        # I_h and I_2h are both exactly 0, which meets the tolerance.  A 1-D
        # integrand is one row: its value and estimate have shape (1,).
        res = integrate_semi_infinite_decaying(np.zeros_like)
        assert res.value.tolist() == [0.0]
        assert res.abs_error_estimate.tolist() == [0.0]
        assert res.evaluations == 321

    def test_linearity(self):
        f = lambda z: np.exp(-z) * np.sin(0.5 * z)
        g = lambda z: np.exp(-z) * z
        combined = integrate_semi_infinite_decaying(lambda z: 2.0 * f(z) - 5.0 * g(z))
        separate = (
            2.0 * integrate_semi_infinite_decaying(f).value[0]
            - 5.0 * integrate_semi_infinite_decaying(g).value[0]
        )
        assert abs(combined.value[0] - separate) <= 2.0 * DEFAULT_TOL

    def test_agrees_with_scipy_on_smooth_kernel(self):
        f = lambda z: np.exp(-(z**2)) * np.cos(2.0 * z)
        res = integrate_semi_infinite_decaying(f)
        ref, _ = si.quad(lambda z: math.exp(-(z**2)) * math.cos(2.0 * z), 0.0, np.inf,
                         epsabs=1e-14)
        assert res.abs_error_estimate[0] <= 1e-12 * res.value[0]
        assert res.value[0] == pytest.approx(ref, abs=1e-12)

    def test_nonconvergence_raises(self):
        # A kink at z = 1 slows the trapezoid rule to O(h^2): the estimate
        # is about 7.7e-4, and the rule has no finer step to try.
        with pytest.raises(QuadratureError, match="321-node rule"):
            integrate_semi_infinite_decaying(lambda z: np.exp(-np.abs(z - 1.0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_integrand_raises(self, value):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(lambda z: np.full_like(z, value))


class TestSemiInfinite:
    def test_plain_exponential(self):
        res = integrate_semi_infinite_decaying(lambda z: np.exp(-z))
        assert res.value[0] == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_exponential_closed_form(self):
        # int_0^inf exp(-(z + z^2)) dz = (sqrt(pi)/2) e^(1/4) erfc(1/2)
        f = lambda z: np.exp(-(z + z * z))
        res = integrate_semi_infinite_decaying(f)
        assert res.abs_error_estimate[0] <= 1e-12 * res.value[0]
        closed = (math.sqrt(math.pi) / 2.0) * math.exp(0.25) * float(erfc(0.5))
        assert res.value[0] == pytest.approx(closed, abs=1e-11)
        assert closed == pytest.approx(0.5456413, abs=1e-7)

    def test_nearest_distance_density_normalization(self):
        # The density's mass sits on the length 1 / (pi lambda), 318 m, far
        # off the rule's unit scale.
        lam = 0.001
        rate = math.pi * lam
        f = lambda z: rate * np.exp(-rate * z)
        res = integrate_semi_infinite_decaying(f)
        assert res.value[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [1e-6, 1.0, 1e6])
    def test_tail_truncation_bound(self, a):
        # The window u in [-4.5, 3.5] truncates both ends of (0, inf).  At
        # the unit rate what the window drops, or the step misses, stays
        # below the tolerance relative to the value 1/a.  A rate six decades
        # off the unit scale moves the mass toward one end, where the fixed
        # step cannot resolve it: the estimates are about 4e-5 (a = 1e-6)
        # and 7e-7 (a = 1e6) of the value, and the rule raises.
        f = lambda z: np.exp(-a * z)
        if a != 1.0:
            with pytest.raises(QuadratureError):
                integrate_semi_infinite_decaying(f)
            return
        res = integrate_semi_infinite_decaying(f)
        assert res.abs_error_estimate[0] <= DEFAULT_TOL * res.value[0]
        assert abs(res.value[0] - 1.0 / a) <= DEFAULT_TOL / a

    def test_sharp_interior_mass_not_missed(self):
        # The integrand falls on the length 1 / (a + b^(2/g)), about 1.6e4
        # times shorter than the slow rate's 1 / a; the unit-scale rule
        # still finds the mass.
        a, b, g = 1e-3, 1e3, 5.0
        f = lambda z: np.exp(-(a * z + b * z ** (g / 2.0)))
        ref, _ = si.quad(
            lambda z: math.exp(-(a * z + b * z ** (g / 2.0))), 0.0, np.inf,
            epsabs=1e-14, epsrel=1e-14,
        )
        res = integrate_semi_infinite_decaying(f)
        assert res.value[0] == pytest.approx(ref, abs=1e-10)

    def test_nan_tail_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(
                lambda z: np.where(z > 1.0, np.nan, np.exp(-z))
            )


class TestLevels:
    """One level: one integrand call on the rule's 321 abscissae, no refinement."""

    # Oscillating, but slowly enough for the rule: the estimate is about
    # 3e-15 of the value 0.4.
    OSCILLATING = staticmethod(lambda z: np.exp(-z) * np.sin(0.5 * z))

    def test_integrand_gets_1d_arrays(self):
        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return self.OSCILLATING(z)

        res = integrate_semi_infinite_decaying(f)
        assert shapes == [(321,)]
        assert res.value[0] == pytest.approx(0.4, abs=1e-10)

    def test_ladder_evaluation_count(self):
        # Smooth or oscillating, every integrand takes the 321 nodes.
        assert integrate_semi_infinite_decaying(lambda z: np.exp(-z)).evaluations == 321
        assert integrate_semi_infinite_decaying(self.OSCILLATING).evaluations == 321

    def test_moment_evaluation_count(self, paper_params, monkeypatch):
        results = []

        def spy(*args, **kwargs):
            results.append(integrate_semi_infinite_decaying(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(moments, "integrate_semi_infinite_decaying", spy)
        moments.moment_exact(paper_params, 1)
        moments.moment_sequence(paper_params, 10)
        assert [r.evaluations for r in results] == [321, 321]


class TestRows:
    """Several integrand rows on one shared set of abscissae."""

    RATES = (0.5, 2.0, 7.0)
    NOISE = (1e-3, 0.0, 0.4)

    def _rows(self, z):
        a = np.array(self.RATES)[:, None]
        b = np.array(self.NOISE)[:, None]
        return np.exp(-(a * z + b * z**2.5))

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_each_row_within_tol_of_scipy(self, tol):
        res = integrate_semi_infinite_decaying(self._rows)
        assert res.value.shape == res.abs_error_estimate.shape == (3,)
        assert (res.abs_error_estimate <= tol * res.value).all()
        for value, a, b in zip(res.value, self.RATES, self.NOISE):
            ref, _ = si.quad(lambda z: math.exp(-(a * z + b * z**2.5)), 0.0, np.inf,
                             epsabs=1e-14, epsrel=1e-13, limit=200)
            assert abs(value - ref) <= tol

    def test_one_row_matrix_matches_vector(self):
        # Stretched by 100, so that its mass sits 100 times closer to 0, f
        # has an estimate of 0 instead of 2e-12 of its value.
        f = lambda z: np.exp(-(0.3 * z + 0.01 * z**2.5))
        for stretch in (1.0, 100.0):
            g = lambda z: stretch * f(stretch * z)
            vector = integrate_semi_infinite_decaying(g)
            matrix = integrate_semi_infinite_decaying(lambda z: g(z)[None, :])
            assert matrix.value.tolist() == vector.value.tolist()
            assert matrix.abs_error_estimate.tolist() == vector.abs_error_estimate.tolist()
            assert matrix.evaluations == vector.evaluations == 321
        assert vector.abs_error_estimate.tolist() == [0.0]

    def test_nan_row_raises(self):
        def f(z):
            rows = self._rows(z)
            rows[1] = np.nan
            return rows

        with pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(f)

    def test_integrand_gets_1d_arrays(self):
        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return 0.1 * self._rows(0.1 * z)

        # Rows whose mass sits 10 times farther out still take one call.
        res = integrate_semi_infinite_decaying(f)
        assert shapes == [(321,)]
        assert res.evaluations == sum(s[0] for s in shapes)


class TestMomentRange:
    """The moment integrand over the package's range, against mpmath."""

    def test_rows_within_1e_13_relative_of_mpmath(self):
        # gamma in (2, 20], theta -60..20 dB, lambda 1e-10..1e2 per m^2,
        # noise 0 or -250..-10 dBm at p = 1 mW, n_max 1..40.  a_n =
        # 2F1(n, -2/g; 1-2/g; -theta) from one_plus_rho_scipy and c_n = (n
        # theta sigma2 / p)^(2/g) / (pi lambda) go to the engine directly, one row
        # per n, in the Weibull form that moments._moments integrates:
        # mu_n = (1/a_n) times the integral of e^-u (-expm1(-r_n u^(2/g))),
        # r_n = a_n / c_n.  Every row's estimate is within 1e-14 of its
        # value, and rows 1 and n_max are checked against the t-form.
        rng = np.random.default_rng(20)
        for _ in range(24):
            g, theta = rng.uniform(2.001, 20.0), 10.0 ** rng.uniform(-6.0, 2.0)
            lam = 10.0 ** rng.uniform(-10.0, 2.0)
            noise = 10.0 ** rng.uniform(-25.0, -1.0) if rng.random() < 0.8 else 0.0
            n_max = int(rng.integers(1, 41))
            p = moments.SystemParams(lam, g, theta, 1.0, noise)
            n = np.arange(1, n_max + 1)
            a = np.array([one_plus_rho_scipy(p, k) for k in range(1, n_max + 1)])
            c = (n * theta * noise) ** (2.0 / g) / (math.pi * lam)
            with np.errstate(divide="ignore"):
                r = a / c
            res = integrate_semi_infinite_decaying(
                lambda u: np.exp(-u) * -np.expm1(-r[:, None] * u ** (2.0 / g)))
            assert (res.abs_error_estimate <= 1e-14 * res.value).all(), (g, theta, lam, noise)
            for k in {0, n_max - 1}:
                ref = moment_t_mpmath(p, k + 1)
                assert abs(res.value[k] / a[k] / ref - 1.0) <= 1e-13, (g, theta, lam, noise, k + 1)

    def test_weibull_rows_for_every_delta_and_ratio(self):
        # The Weibull-form rows e^-u (-expm1(-r u^delta)) for delta = 2/gamma
        # from 1e-7 to 1 - 1e-12 (gamma near infinity and near 2) and r =
        # 10^k, k = -300, -295, ..., 300: 6292 rows in 52 engine calls, each
        # on the rule's 321 abscissae and within the tolerance relative to
        # every row (the worst estimate is about 9e-14 of its value).  r u^delta
        # overflows to inf for the largest r, where -expm1(-inf) = 1 is the
        # exact limit.
        r = 10.0 ** np.arange(-300, 301, 5)[:, None]
        deltas = np.concatenate([np.logspace(-7.0, math.log10(0.98), 40),
                                 1.0 - np.logspace(-1.0, -12.0, 12)])
        for delta in deltas:
            def rows(u):
                with np.errstate(over="ignore"):
                    ru = r * u**delta
                return np.exp(-u) * -np.expm1(-ru)

            res = integrate_semi_infinite_decaying(rows)
            assert res.evaluations == 321
            assert (res.abs_error_estimate <= DEFAULT_TOL * res.value).all(), delta

    def test_tiny_moments_within_1e_13_relative_of_mpmath(self):
        # mu_n ~ 1e-7: the default tolerance is relative to each moment, so
        # these get the digits that moments near 1 get.
        p = moments.SystemParams(1e-8, 8.0, 1.0, 1.0, 1e-3)
        seq = moments.moment_sequence(p, 10)
        for n in range(1, 11):
            assert abs(seq[n] / moment_t_mpmath(p, n) - 1.0) <= 1e-13

    def test_small_moments_meet_the_tolerance_relative_to_themselves(self):
        # mu_1 is 1.8e-6 here (gamma 19.9, lambda 2e-9, -33 dB, -213.6 dBm):
        # an absolute 1e-10 would leave it four significant digits, and the
        # tolerance relative to each row gives it fourteen.
        p = moments.SystemParams(2e-9, 19.9, 10.0**-3.3, 1.0, 10.0**-21.36)
        seq = moments.moment_sequence(p, 10)
        assert seq[1] == pytest.approx(1.8e-6, rel=1e-2)
        for n in range(1, 11):
            assert abs(seq[n] / moment_t_mpmath(p, n) - 1.0) <= 1e-14, n

    @pytest.mark.parametrize("noise", [0.0, 1e-10])
    def test_steep_path_loss_beyond_the_range(self, noise):
        # The t-form's cliff at t = 1/c_n is the Exp(1) weight e^-u of the
        # Weibull form, so every gamma takes the same rule.  The mpmath
        # reference integrates the t-form, split at the cliff.
        for g in (80.0, 100.0, 120.0, 150.0, 180.0, 200.0, 220.0, 510.0, 1e4, 1e6):
            p = moments.SystemParams(1e-3, g, 1.0, 1.0, noise)
            seq = moments.moment_sequence(p, 5)
            for n in (1, 5):
                assert abs(seq[n] / moment_t_mpmath(p, n) - 1.0) <= 1e-13, (g, n)

    @settings(max_examples=40)
    @given(log_excess=st.floats(-3.0, 6.0), log_r=st.floats(-12.0, 12.0))
    def test_base_rule_for_every_gamma_and_ratio(self, log_excess, log_r):
        # gamma - 2 in [1e-3, 1e6] and r_1 = a_1 / c_1 in [1e-12, 1e12],
        # set through lambda at 0 dB, p = 1 mW and -100 dBm: the base rule's
        # 321 abscissae meet the tolerance.
        g = 2.0 + 10.0**log_excess
        a_1 = 1.0 + moments.rho_n(moments.SystemParams(1.0, g, 1.0, 1.0, 1e-10), 1)
        lam = 1e-10 ** (2.0 / g) * 10.0**log_r / (math.pi * a_1)
        p = moments.SystemParams(lam, g, 1.0, 1.0, 1e-10)
        results = []

        def spy(*args, **kwargs):
            results.append(integrate_semi_infinite_decaying(*args, **kwargs))
            return results[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments, "integrate_semi_infinite_decaying", spy)
            mu = moments.moment_exact(p, 1)
        assert [r.evaluations for r in results] == [321]
        assert abs(mu / moment_t_mpmath(p, 1) - 1.0) <= 1e-13, (g, p.lambda_bs)
