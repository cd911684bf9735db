"""Quadrature engine against closed forms, an independent Riemann sum, and
scipy.integrate.quad."""
import math

import numpy as np
import pytest
import scipy.integrate as si
from scipy.special import erfc

from metadist import moments
from metadist.quadrature import (
    _MAX_INTERVALS,
    QuadratureError,
    integrate_semi_infinite_decaying,
)

from oracles import riemann_semi_infinite


class TestFinite:
    """A finite value within the tolerance, or an error."""

    def test_constant(self):
        # Zero on every panel: the tail allowance is the whole error estimate.
        res = integrate_semi_infinite_decaying(np.zeros_like, 1.0, 1e-10)
        assert res.value == 0.0
        assert res.abs_error_estimate == 1e-10 / 10.0
        assert res.evaluations == 53 * 15

    def test_linearity(self):
        tol = 1e-10
        f = lambda z: np.exp(-z) * np.sin(3.0 * z)
        g = lambda z: np.exp(-z) * z
        combined = integrate_semi_infinite_decaying(lambda z: 2.0 * f(z) - 5.0 * g(z), 0.5, tol)
        separate = (
            2.0 * integrate_semi_infinite_decaying(f, 0.5, tol).value
            - 5.0 * integrate_semi_infinite_decaying(g, 0.5, tol).value
        )
        assert abs(combined.value - separate) <= 2.0 * tol

    def test_agrees_with_scipy_on_smooth_kernel(self):
        f = lambda z: np.exp(-(z**2)) * np.cos(5.0 * z)
        res = integrate_semi_infinite_decaying(f, 1.0, 1e-12)
        ref, _ = si.quad(lambda z: math.exp(-(z**2)) * math.cos(5.0 * z), 0.0, np.inf,
                         epsabs=1e-14)
        assert res.value == pytest.approx(ref, abs=1e-12)

    def test_nonconvergence_raises(self):
        # Each panel's error estimate is floored at 50 eps times its mass, so
        # a tolerance below that floor spends the whole interval budget.
        with pytest.raises(QuadratureError, match=f"after {_MAX_INTERVALS} intervals"):
            integrate_semi_infinite_decaying(lambda z: np.exp(-z), 1.0, 1e-18)

    def test_invalid_interval(self):
        # The finite part [0, z_max] is set by decay_rate and tol; a NaN rate
        # or a zero tolerance leaves it undefined.
        with pytest.raises(ValueError):
            integrate_semi_infinite_decaying(lambda z: np.exp(-z), np.nan, 1e-10)
        with pytest.raises(ValueError):
            integrate_semi_infinite_decaying(lambda z: np.exp(-z), 1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_integrand_raises(self, value):
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(lambda z: np.full_like(z, value), 1.0)


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
        integrate_semi_infinite_decaying(self._recording(lambda z: np.exp(-z), shapes),
                                         1.0, 1e-10)
        # Opening panels in one call, then both halves of a bisection per call.
        assert shapes == [(53 * 15,), (30,)]

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


class TestRows:
    """Several integrand rows on one shared panel set."""

    RATES = (0.5, 2.0, 7.0)
    NOISE = (1e-3, 0.0, 0.4)

    def _rows(self, z):
        a = np.array(self.RATES)[:, None]
        b = np.array(self.NOISE)[:, None]
        return np.exp(-(a * z + b * z**2.5))

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_each_row_within_tol_of_scipy(self, tol):
        res = integrate_semi_infinite_decaying(self._rows, min(self.RATES), tol)
        assert res.value.shape == res.abs_error_estimate.shape == (3,)
        assert (res.abs_error_estimate <= tol).all()
        for value, a, b in zip(res.value, self.RATES, self.NOISE):
            ref, _ = si.quad(lambda z: math.exp(-(a * z + b * z**2.5)), 0.0, np.inf,
                             epsabs=1e-14, epsrel=1e-13, limit=200)
            assert abs(value - ref) <= tol

    def test_one_row_matrix_matches_vector(self):
        f = lambda z: np.exp(-(0.3 * z + 0.01 * z**2.5))
        vector = integrate_semi_infinite_decaying(f, 0.3, 1e-12)
        matrix = integrate_semi_infinite_decaying(lambda z: f(z)[None, :], 0.3, 1e-12)
        assert matrix.value.tolist() == [vector.value]
        assert matrix.abs_error_estimate.tolist() == [vector.abs_error_estimate]
        assert matrix.evaluations == vector.evaluations

    def test_nan_row_raises(self):
        def f(z):
            rows = self._rows(z)
            rows[1] = np.nan
            return rows

        with pytest.raises(QuadratureError):
            integrate_semi_infinite_decaying(f, min(self.RATES), 1e-10)

    def test_integrand_gets_1d_arrays(self):
        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return self._rows(z)

        res = integrate_semi_infinite_decaying(f, min(self.RATES), 1e-12)
        assert shapes[0] == (53 * 15,) and set(shapes[1:]) <= {(30,)}
        assert res.evaluations == sum(s[0] for s in shapes)
