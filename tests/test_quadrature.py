"""Quadrature engine against closed forms, an independent Riemann sum, and
scipy.integrate.quad."""
import math

import numpy as np
import pytest
import scipy.integrate as si
from scipy.special import erfc

from metadist import moments
from metadist.quadrature import (
    QuadratureError,
    integrate_finite,
    integrate_semi_infinite_decaying,
)
from metadist.specfun import gauss_2f1

from oracles import riemann_semi_infinite


class TestFinite:
    def test_constant(self):
        res = integrate_finite(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations == 15

    def test_endpoint_singularity(self):
        res = integrate_finite(lambda x: x**-0.5, 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_rho_identity_integrand(self):
        # 2 int_0^1 (1 - (1+y^5)^-1) y^-3 dy = 2F1(1, -2/5; 3/5; -1) - 1
        res = integrate_finite(
            lambda y: 2.0 * (1.0 - (1.0 + y**5) ** -1.0) * y**-3.0, 0.0, 1.0, 1e-8
        )
        expected = gauss_2f1(1.0, -0.4, 0.6, -1.0) - 1.0
        assert res.value == pytest.approx(expected, abs=1e-8)

    def test_linearity(self):
        tol = 1e-10
        f = lambda x: np.sin(3.0 * x)
        g = lambda x: np.exp(-x) * x
        combined = integrate_finite(lambda x: 2.0 * f(x) - 5.0 * g(x), 0.0, 2.0, tol)
        separate = (
            2.0 * integrate_finite(f, 0.0, 2.0, tol).value
            - 5.0 * integrate_finite(g, 0.0, 2.0, tol).value
        )
        assert abs(combined.value - separate) <= 2.0 * tol

    def test_agrees_with_scipy_on_smooth_kernel(self):
        f = lambda x: np.exp(-(x**2)) * np.cos(5.0 * x)
        res = integrate_finite(f, 0.0, 3.0, 1e-12)
        ref, _ = si.quad(lambda x: math.exp(-(x**2)) * math.cos(5.0 * x), 0.0, 3.0,
                         epsabs=1e-14)
        assert res.value == pytest.approx(ref, abs=1e-12)

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError):
            integrate_finite(lambda x: x**-0.5, 0.0, 1.0, 1e-10, max_intervals=5)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_integrand_raises(self, value):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_finite(lambda x: np.full_like(x, value), 0.0, 1.0)


class TestSemiInfinite:
    def test_plain_exponential(self):
        res = integrate_semi_infinite_decaying(lambda z: np.exp(-z), 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_exponential_closed_form(self):
        # int_0^inf exp(-(z + z^2)) dz = (sqrt(pi)/2) e^(1/4) erfc(1/2)
        f = lambda z: np.exp(-(z + z * z))
        res = integrate_semi_infinite_decaying(f, 1.0, 1e-12)
        closed = (math.sqrt(math.pi) / 2.0) * math.exp(0.25) * float(erfc(0.5))
        assert res.value == pytest.approx(closed, abs=1e-11)
        assert closed == pytest.approx(0.5456413, abs=1e-7)
        # fully independent cross-check
        assert riemann_semi_infinite(f, 40.0) == pytest.approx(res.value, abs=1e-7)

    def test_nearest_distance_density_normalization(self):
        lam = 0.001
        rate = math.pi * lam
        f = lambda z: rate * np.exp(-rate * z)
        res = integrate_semi_infinite_decaying(f, rate, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [1e-6, 1.0, 1e6])
    def test_tail_truncation_bound(self, a):
        # tolerance scaled so the target stays meaningful in float64 when 1/a
        # is large; the property under test is that the truncated tail never
        # shows up above tol.
        tol = 1e-10 * max(1.0, 1.0 / a)
        res = integrate_semi_infinite_decaying(lambda z, a=a: np.exp(-a * z), a, tol)
        assert abs(res.value - 1.0 / a) <= tol

    def test_sharp_interior_mass_not_missed(self):
        # Mass concentrated ~1e9 times below the tail cutoff; the dyadic
        # opening ladder must still see it.
        a, b, g = 1e-3, 1e3, 5.0
        f = lambda z: np.exp(-(a * z + b * z ** (g / 2.0)))
        res = integrate_semi_infinite_decaying(f, a, 1e-10)
        ref, _ = si.quad(
            lambda z: math.exp(-(a * z + b * z ** (g / 2.0))), 0.0, np.inf,
            epsabs=1e-14, epsrel=1e-14,
        )
        assert res.value == pytest.approx(ref, abs=1e-10)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite_decaying(lambda z: np.exp(-z), 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_semi_infinite_decaying(lambda z: np.exp(-z), 1.0, -1e-10)


    def test_nan_tail_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(
                lambda z: np.where(z > 1.0, np.nan, np.exp(-z)), 1.0
            )


class TestBatchedPanels:
    """Many panels per integrand call, with the same panel ladder and counts."""

    def _recording(self, f, shapes):
        def g(x):
            shapes.append(np.shape(x))
            return f(x)
        return g

    def test_integrand_gets_1d_arrays(self):
        shapes = []
        integrate_finite(self._recording(lambda x: x**-0.5, shapes), 0.0, 1.0, 1e-10)
        integrate_semi_infinite_decaying(self._recording(lambda z: np.exp(-z), shapes),
                                         1.0, 1e-10)
        assert shapes and all(len(shape) == 1 for shape in shapes)
        # Opening panels in one call, then both halves of a bisection per call.
        assert shapes[0] == (15,)
        assert set(shapes[1:-2]) == {(30,)}
        assert shapes[-2:] == [(53 * 15,), (30,)]

    def test_ladder_evaluation_count(self):
        # The 53-panel dyadic ladder alone meets 1e-9; 1e-10 takes one bisection.
        f = lambda z: np.exp(-z)
        assert integrate_semi_infinite_decaying(f, 1.0, 1e-9).evaluations == 53 * 15
        assert integrate_semi_infinite_decaying(f, 1.0, 1e-10).evaluations == 53 * 15 + 30

    def test_moment_ladder_evaluation_count(self, paper_params, monkeypatch):
        results = []

        def spy(*args, **kwargs):
            results.append(integrate_semi_infinite_decaying(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(moments, "integrate_semi_infinite_decaying", spy)
        moments.moment_exact(paper_params, 1)
        assert [r.evaluations for r in results] == [795]

    def test_refined_evaluation_count(self):
        # 67 bisections of the singular left end: 15 + 67 * 30 evaluations.
        res = integrate_finite(lambda x: x**-0.5, 0.0, 1.0, 1e-10)
        assert res.evaluations == 2025
