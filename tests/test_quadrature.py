"""Quadrature engine against closed forms, scipy.integrate.quad and mpmath."""
import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, hyp2f1

from metadist import moments
from metadist.quadrature import (
    QuadratureError,
    integrate_semi_infinite_decaying,
)

from oracles import moment_integral_mpmath, moment_mpmath, moment_t_mpmath


class TestFinite:
    """A finite value within the tolerance, or an error."""

    def test_constant(self):
        # I_h and I_2h are both exactly 0, so the base rule stops.
        res = integrate_semi_infinite_decaying(np.zeros_like, 1e-10)
        assert res.value == 0.0
        assert res.abs_error_estimate == 0.0
        assert res.evaluations == 321

    def test_linearity(self):
        tol = 1e-10
        f = lambda z: np.exp(-z) * np.sin(3.0 * z)
        g = lambda z: np.exp(-z) * z
        combined = integrate_semi_infinite_decaying(lambda z: 2.0 * f(z) - 5.0 * g(z), tol)
        separate = (
            2.0 * integrate_semi_infinite_decaying(f, tol).value
            - 5.0 * integrate_semi_infinite_decaying(g, tol).value
        )
        assert abs(combined.value - separate) <= 2.0 * tol

    def test_agrees_with_scipy_on_smooth_kernel(self):
        f = lambda z: np.exp(-(z**2)) * np.cos(5.0 * z)
        res = integrate_semi_infinite_decaying(f, 1e-12)
        ref, _ = si.quad(lambda z: math.exp(-(z**2)) * math.cos(5.0 * z), 0.0, np.inf,
                         epsabs=1e-14)
        assert res.value == pytest.approx(ref, abs=1e-12)

    def test_nonconvergence_raises(self):
        # A kink at z = 1 slows the trapezoid rule to O(h^2): after the last
        # halving the estimate is still about 3e-6.  (A tolerance below the
        # rounding of a smooth integral need not raise: its I_h and I_2h
        # round to the same double, and the estimate is 0.)
        with pytest.raises(QuadratureError, match="after 4 halvings"):
            integrate_semi_infinite_decaying(lambda z: np.exp(-np.abs(z - 1.0)), 1e-18)

    def test_invalid_interval(self):
        # A zero tolerance cannot be met.
        with pytest.raises(ValueError):
            integrate_semi_infinite_decaying(lambda z: np.exp(-z), 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_integrand_raises(self, value):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(lambda z: np.full_like(z, value))


class TestSemiInfinite:
    def test_plain_exponential(self):
        res = integrate_semi_infinite_decaying(lambda z: np.exp(-z), 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_exponential_closed_form(self):
        # int_0^inf exp(-(z + z^2)) dz = (sqrt(pi)/2) e^(1/4) erfc(1/2)
        f = lambda z: np.exp(-(z + z * z))
        res = integrate_semi_infinite_decaying(f, 1e-12)
        closed = (math.sqrt(math.pi) / 2.0) * math.exp(0.25) * float(erfc(0.5))
        assert res.value == pytest.approx(closed, abs=1e-11)
        assert closed == pytest.approx(0.5456413, abs=1e-7)

    def test_nearest_distance_density_normalization(self):
        # The density's mass sits on the length 1 / (pi lambda), 318 m, far
        # off the rule's unit scale.
        lam = 0.001
        rate = math.pi * lam
        f = lambda z: rate * np.exp(-rate * z)
        res = integrate_semi_infinite_decaying(f, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [1e-6, 1.0, 1e6])
    def test_tail_truncation_bound(self, a):
        # The window u in [-4.5, 3.5] truncates both ends of (0, inf).  A
        # rate a off the unit scale moves the mass toward one end; what the
        # window drops, or the coarse step misses, stays below tol relative
        # to the value 1/a.
        tol = 1e-10
        res = integrate_semi_infinite_decaying(lambda z, a=a: np.exp(-a * z), tol)
        assert res.abs_error_estimate <= tol * res.value
        assert abs(res.value - 1.0 / a) <= tol / a

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
        res = integrate_semi_infinite_decaying(f, 1e-10)
        assert res.value == pytest.approx(ref, abs=1e-10)

    def test_invalid_args(self):
        for tol in (-1e-10, np.nan):
            with pytest.raises(ValueError):
                integrate_semi_infinite_decaying(lambda z: np.exp(-z), tol)

    def test_nan_tail_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(
                lambda z: np.where(z > 1.0, np.nan, np.exp(-z))
            )


class TestLevels:
    """One integrand call per level: the base rule, then each halving's midpoints."""

    # Oscillation slows convergence: this needs two halvings at 1e-10.
    OSCILLATING = staticmethod(lambda z: np.exp(-z) * np.sin(3.0 * z))

    def test_integrand_gets_1d_arrays(self):
        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return self.OSCILLATING(z)

        res = integrate_semi_infinite_decaying(f, 1e-10)
        assert shapes == [(321,), (320,), (640,)]
        assert res.value == pytest.approx(0.3, abs=1e-10)

    def test_ladder_evaluation_count(self):
        # 321 nodes, then 320 * 2^(k-1) midpoints at the k-th halving.
        assert integrate_semi_infinite_decaying(lambda z: np.exp(-z)).evaluations == 321
        assert integrate_semi_infinite_decaying(self.OSCILLATING, 1e-10).evaluations == 1281

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
        res = integrate_semi_infinite_decaying(self._rows, tol)
        assert res.value.shape == res.abs_error_estimate.shape == (3,)
        assert (res.abs_error_estimate <= tol).all()
        for value, a, b in zip(res.value, self.RATES, self.NOISE):
            ref, _ = si.quad(lambda z: math.exp(-(a * z + b * z**2.5)), 0.0, np.inf,
                             epsabs=1e-14, epsrel=1e-13, limit=200)
            assert abs(value - ref) <= tol

    def test_one_row_matrix_matches_vector(self):
        # Stretched by 1e6, so that its mass sits 1e6 times closer to 0, f
        # takes two halvings.
        f = lambda z: np.exp(-(0.3 * z + 0.01 * z**2.5))
        for stretch in (1.0, 1e6):
            g = lambda z: stretch * f(stretch * z)
            vector = integrate_semi_infinite_decaying(g, 1e-12)
            matrix = integrate_semi_infinite_decaying(lambda z: g(z)[None, :], 1e-12)
            assert matrix.value.tolist() == [vector.value]
            assert matrix.abs_error_estimate.tolist() == [vector.abs_error_estimate]
            assert matrix.evaluations == vector.evaluations
        assert vector.evaluations == 1281

    def test_nan_row_raises(self):
        def f(z):
            rows = self._rows(z)
            rows[1] = np.nan
            return rows

        with pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(f, 1e-10)

    def test_integrand_gets_1d_arrays(self):
        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return 1e-6 * self._rows(1e-6 * z)

        # Rows whose mass sits 1e6 times farther out need two halvings at 1e-12.
        res = integrate_semi_infinite_decaying(f, 1e-12)
        assert shapes == [(321,), (320,), (640,)]
        assert res.evaluations == sum(s[0] for s in shapes)


class TestMomentRange:
    """The moment integrand over the package's range, against mpmath."""

    def test_rows_within_1e_13_relative_of_mpmath(self):
        # gamma in (2, 20], theta -60..20 dB, lambda 1e-10..1e2 per m^2,
        # noise 0 or -250..-10 dBm at p = 1 mW, n_max 1..40.  A_n = pi lambda
        # 2F1(n, -2/g; 1-2/g; -theta) from scipy and B_n = n theta sigma2 / p
        # go to the engine directly, one row per n, in the Weibull form that
        # moments._moments_exact integrates: I(A_n, B_n) = (1/A_n) times the
        # integral of e^-u (-expm1(-r_n u^(2/g))), r_n = A_n / B_n^(2/g),
        # with a tolerance of 1e-14 relative to every row; rows 1 and n_max
        # are checked.
        rng = np.random.default_rng(20)
        for _ in range(24):
            g, theta = rng.uniform(2.001, 20.0), 10.0 ** rng.uniform(-6.0, 2.0)
            lam = 10.0 ** rng.uniform(-10.0, 2.0)
            noise = 10.0 ** rng.uniform(-25.0, -1.0) if rng.random() < 0.8 else 0.0
            n_max = int(rng.integers(1, 41))
            n = np.arange(1, n_max + 1)
            a = math.pi * lam * hyp2f1(n, -2.0 / g, 1.0 - 2.0 / g, -theta)
            b = n * theta * noise
            with np.errstate(divide="ignore"):
                r = a / b ** (2.0 / g)
            res = integrate_semi_infinite_decaying(
                lambda u: np.exp(-u) * -np.expm1(-r[:, None] * u ** (2.0 / g)), 1e-14)
            for k in {0, n_max - 1}:
                ref = moment_integral_mpmath(a[k], b[k], g)
                assert abs(res.value[k] / a[k] / ref - 1.0) <= 1e-13, (g, theta, lam, noise, k + 1)

    def test_tiny_moments_within_1e_13_relative_of_mpmath(self):
        # mu_n ~ 1e-7: the default tolerance is relative to each moment, so
        # these get the digits that moments near 1 get.
        p = moments.SystemParams(1e-8, 8.0, 1.0, 1.0, 1e-3)
        seq = moments.moment_sequence(p, 10)
        for n in range(1, 11):
            assert abs(seq[n] / moment_mpmath(p, n) - 1.0) <= 1e-13

    def test_small_moments_meet_the_tolerance_relative_to_themselves(self):
        # mu_1 is 1.8e-6 here (gamma 19.9, lambda 2e-9, -33 dB, -213.6 dBm):
        # an absolute 1e-10 would leave it four significant digits, and the
        # tolerance relative to each row gives it fourteen.
        p = moments.SystemParams(2e-9, 19.9, 10.0**-3.3, 1.0, 10.0**-21.36)
        seq = moments.moment_sequence(p, 10)
        assert seq[1] == pytest.approx(1.8e-6, rel=1e-2)
        for n in range(1, 11):
            assert abs(seq[n] / moment_mpmath(p, n) - 1.0) <= 1e-14, n

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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log_excess=st.floats(-3.0, 6.0), log_r=st.floats(-12.0, 12.0))
    def test_base_rule_for_every_gamma_and_ratio(self, log_excess, log_r):
        # gamma - 2 in [1e-3, 1e6] and r_1 = a_1 / c_1 in [1e-12, 1e12],
        # set through lambda at 0 dB, p = 1 mW and -100 dBm: the base rule's
        # 321 abscissae meet the tolerance, with no halving.
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
