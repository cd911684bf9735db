"""Jacobi polynomial machinery and the moment-to-distribution round trip."""
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import poch

from metadist import jacobi
from metadist.jacobi import (
    DegenerateMomentsError,
    JacobiBasis,
    ReconstructedDistribution,
    convergence_diagnostic,
    eval_cdf,
    eval_pdf,
    fourier_jacobi_coeffs,
    meta_reliability,
    moment_match_basis,
    norm_h,
    reconstruct,
)
from metadist.moments import METHOD_EMPIRICAL, MomentSequence, SystemParams, moment_sequence
from metadist.specfun import reg_inc_beta

from oracles import (
    beta_moments,
    binom_exact,
    gauss_jacobi_integral,
    jacobi_poly,
    jacobi_poly_explicit,
)

BASES = [(0.0, 0.0), (-0.4354, 0.1118), (0.3, 1.7), (2.0, 0.5)]


def _beta_27_13_distribution(order=10):
    seq = MomentSequence(beta_moments(2.7, 1.3, order), METHOD_EMPIRICAL)
    basis = moment_match_basis(seq[1], seq[2], order=order)
    return fourier_jacobi_coeffs(seq, basis)


class TestJacobiPoly:
    def test_degree_zero_is_one(self):
        for al, be in BASES:
            assert jacobi_poly(al, be, 0, 0.37) == 1.0

    def test_shifted_legendre_degree_one(self):
        for x in np.linspace(0.0, 1.0, 11):
            assert jacobi_poly(0.0, 0.0, 1, float(x)) == pytest.approx(
                2.0 * x - 1.0, abs=1e-14
            )

    def test_value_at_one(self):
        for al, be in BASES:
            for n in range(13):
                expected = poch(al + 1.0, n) / math.factorial(n)
                assert jacobi_poly(al, be, n, 1.0) == pytest.approx(expected, rel=1e-11)

    def test_recurrence_matches_explicit_sum(self):
        xs = np.linspace(0.0, 1.0, 101)
        for al, be in BASES:
            for n in range(13):
                explicit = np.array([jacobi_poly_explicit(al, be, n, float(x)) for x in xs])
                recur = jacobi_poly(al, be, n, xs)
                scale = max(1.0, float(np.max(np.abs(explicit))))
                assert np.max(np.abs(recur - explicit)) <= 1e-10 * scale

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.05, 0.95, 7)
        vec = jacobi_poly(0.3, 1.7, 5, xs)
        assert vec == pytest.approx([jacobi_poly(0.3, 1.7, 5, float(x)) for x in xs])


class TestNormH:
    def test_n0_is_beta_normalization(self):
        for al, be in BASES:
            expected = math.exp(
                math.lgamma(al + 1.0) + math.lgamma(be + 1.0) - math.lgamma(al + be + 2.0)
            )
            assert norm_h(al, be, 0) == pytest.approx(expected, rel=1e-13)

    def test_chebyshev_weight_mass(self):
        assert norm_h(-0.5, -0.5, 0) == pytest.approx(math.pi, rel=1e-13)

    def test_direct_substitution_case(self):
        assert norm_h(1.0, 0.0, 1) == pytest.approx(0.25, rel=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="norm_h requires n >= 0, got -1"):
            norm_h(0.0, 0.0, -1)

    def test_against_quadrature(self):
        for al, be in [(0.3, 1.7), (1.0, 0.0)]:
            for n in (1, 4, 8):
                val = gauss_jacobi_integral(lambda x: jacobi_poly(al, be, n, x) ** 2, al, be)
                assert val == pytest.approx(norm_h(al, be, n), rel=1e-9)


class TestOrthogonality:
    def test_cross_terms_vanish(self):
        for al, be in [(0.0, 0.0), (0.3, 1.7)]:
            for m in range(7):
                for n in range(m + 1, 8):
                    f = lambda x: jacobi_poly(al, be, m, x) * jacobi_poly(al, be, n, x)
                    assert abs(gauss_jacobi_integral(f, al, be)) <= 1e-9

    def test_chebyshev_pair_at_float_floor(self):
        # The Gauss-Jacobi rule carries the singular (1-x)^(-1/2) x^(-1/2)
        # weight itself, so no mass next to an endpoint is lost.
        al = be = -0.5
        for m in range(5):
            for n in range(m, 5):
                f = lambda x: jacobi_poly(al, be, m, x) * jacobi_poly(al, be, n, x)
                val = gauss_jacobi_integral(f, al, be)
                expected = norm_h(al, be, n) if m == n else 0.0
                assert val == pytest.approx(expected, abs=2e-7)


class TestRodriguesAntiderivative:
    def test_identity(self):
        for al, be in BASES:
            for n in range(1, 9):
                for x in (0.2, 0.5, 0.8):
                    # weight="alg" carries t^be on [0, x], so quad sees no singularity.
                    f = lambda t: (1 - t) ** al * jacobi_poly(al, be, n, t)
                    lhs = quad(f, 0.0, x, weight="alg", wvar=(be, 0.0),
                               epsabs=1e-11, epsrel=0.0)[0]
                    rhs = (
                        -(1.0 / n)
                        * (1.0 - x) ** (al + 1.0)
                        * x ** (be + 1.0)
                        * jacobi_poly(al + 1.0, be + 1.0, n - 1, x)
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-8)


class TestCoefficients:
    def test_a0_is_inverse_h0(self):
        seq = MomentSequence(beta_moments(2.0, 3.0, 4), METHOD_EMPIRICAL)
        for al, be in BASES:
            dist = fourier_jacobi_coeffs(seq, JacobiBasis(al, be, 4))
            assert dist.coefficients[0] == pytest.approx(1.0 / norm_h(al, be, 0), rel=1e-12)

    def test_beta_moments_kill_corrections(self):
        dist = _beta_27_13_distribution()
        assert max(abs(c) for c in dist.coefficients[1:]) < 1e-8

    def test_matched_basis_zeroes_first_two(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        a0 = dist.coefficients[0]
        assert abs(dist.coefficients[1]) < 1e-9 * abs(a0)
        assert abs(dist.coefficients[2]) < 1e-9 * abs(a0)

    def test_insufficient_moments(self):
        seq = MomentSequence((1.0, 0.6, 0.4), METHOD_EMPIRICAL)
        with pytest.raises(ValueError):
            fourier_jacobi_coeffs(seq, JacobiBasis(0.0, 0.0, 5))

    @pytest.mark.parametrize("values", [(1.0,), (1.0, 0.6)])
    def test_moment_matching_needs_two_moments(self, values):
        with pytest.raises(ValueError, match="moment matching needs mu_1 and mu_2"):
            reconstruct(MomentSequence(values, METHOD_EMPIRICAL), order=0)


# Scenarios (lambda, gamma, theta dB, noise dBm) whose moment-matched bases
# the exact test of the coefficient map runs at orders 2, 10 and 20.
_MAP_SCENARIOS = [(1e-3, 5.0, 0.0, -100.0), (1e-4, 3.0, 10.0, -90.0), (1e-2, 4.0, -10.0, -120.0)]


def _map_case(case):
    """(moments, basis) of one exact-map case."""
    if case[0] == "explicit":
        _, alpha, beta = case
        return MomentSequence(beta_moments(2.7, 1.3, 20), METHOD_EMPIRICAL), JacobiBasis(alpha, beta, 20)
    (lam, gamma, theta_db, noise_dbm), order = case
    params = SystemParams(lam, gamma, 10.0 ** (theta_db / 10.0), 1.0, 10.0 ** (noise_dbm / 10.0))
    seq = moment_sequence(params, order)
    return seq, moment_match_basis(seq[1], seq[2], order=order)


@pytest.mark.filterwarnings("ignore:truncation order")
class TestCoefficientMapExact:
    """Every a_n against the map summed in exact rationals over the same doubles.

    S_n = sum_l sum_k C(n+alpha, l) C(n+beta, n-l) C(n-l, k) (-1)^k mu_{n-k}
    and T_n is the same sum of the terms' magnitudes.  Two exact sums and a
    division, each correctly rounded, leave a_n within 2 eps T_n / |h_n| of
    S_n / h_n, h_n being the double norm_h returns.
    """

    @pytest.mark.parametrize("case", [
        *[(scenario, order) for scenario in _MAP_SCENARIOS for order in (2, 10, 20)],
        ("explicit", -0.5, -0.5),
        ("explicit", 3.0, 0.2),
    ])
    def test_within_two_eps_of_exact(self, case):
        seq, basis = _map_case(case)
        mu = [Fraction(v) for v in seq.values]
        a, b = basis.alpha, basis.beta
        coeffs = fourier_jacobi_coeffs(seq, basis).coefficients
        for n, a_n in enumerate(coeffs):
            exact = total = Fraction(0)
            for ell in range(n + 1):
                weight = binom_exact(n + a, ell) * binom_exact(n + b, n - ell)
                for k in range(n - ell + 1):
                    term = weight * math.comb(n - ell, k) * (-1) ** k * mu[n - k]
                    exact += term
                    total += abs(term)
            h_n = Fraction(norm_h(a, b, n))
            assert abs(Fraction(a_n) - exact / h_n) <= 2 * sys.float_info.epsilon * total / abs(h_n)


class TestMomentMatching:
    def test_beta22(self):
        basis = moment_match_basis(0.5, 0.3, order=0)
        assert basis.alpha == pytest.approx(1.0, abs=1e-12)
        assert basis.beta == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self):
        basis = moment_match_basis(0.5, 1.0 / 3.0, order=0)
        assert basis.alpha == pytest.approx(0.0, abs=1e-12)
        assert basis.beta == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_rejected(self):
        with pytest.raises(DegenerateMomentsError):
            moment_match_basis(0.5, 0.25)
        with pytest.raises(DegenerateMomentsError, match="zero-variance"):
            moment_match_basis(1e-13, 1e-13 * 1e-13)

    def test_tiny_mean_keeps_its_variance(self):
        # Beta(0.5, 5e12): mu2 = 3 mu1^2, about 3e-26, far below an absolute 1e-14.
        mu = beta_moments(0.5, 5e12, 2)
        basis = moment_match_basis(mu[1], mu[2], order=0)
        assert basis.beta == pytest.approx(-0.5, rel=1e-9)
        assert basis.alpha == pytest.approx(5e12 - 1.0, rel=1e-9)

    def test_bad_mu1_rejected(self):
        with pytest.raises(DegenerateMomentsError):
            moment_match_basis(1.0, 0.5)
        with pytest.raises(DegenerateMomentsError):
            moment_match_basis(0.0, 0.0)

    def test_mu2_above_mu1_rejected(self):
        with pytest.raises(DegenerateMomentsError):
            moment_match_basis(0.5, 0.6)


class TestBasisValidation:
    def test_weight_integrability(self):
        with pytest.raises(ValueError):
            JacobiBasis(-1.0, 0.0, 3)
        with pytest.raises(ValueError):
            JacobiBasis(0.0, -1.5, 3)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0)])
    def test_parameters_are_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="must be finite and exceed -1"):
            JacobiBasis(alpha, beta, 3)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            JacobiBasis(0.0, 0.0, 21)

    def test_check_order_is_the_basis_rule(self):
        for order in (0, jacobi.ORDER_HARD_CAP):
            jacobi.check_order(order)
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            jacobi.check_order(-1)
        with pytest.raises(ValueError, match="order 21 exceeds the cap of 20"):
            jacobi.check_order(21)

    def test_precision_warning(self):
        with pytest.warns(UserWarning) as record:
            JacobiBasis(0.0, 0.0, 15)
        # The warning names the line that built the basis, not the dataclass
        # __init__ (filename "<string>").
        assert [w.filename for w in record] == [__file__]


class TestPdf:
    def test_beta_round_trip(self):
        dist = _beta_27_13_distribution()
        basis = dist.basis
        xs = np.linspace(0.01, 0.99, 99)
        vals = eval_pdf(dist, xs)
        ref = (1 - xs) ** basis.alpha * xs**basis.beta / norm_h(basis.alpha, basis.beta, 0)
        assert np.max(np.abs(vals - ref)) < 1e-8

    def test_order_zero_is_beta_density(self, paper_params):
        seq = moment_sequence(paper_params, 2)
        dist = reconstruct(seq, order=0)
        basis = dist.basis
        x = 0.37
        expected = (
            (1 - x) ** basis.alpha * x**basis.beta / norm_h(basis.alpha, basis.beta, 0)
        )
        assert eval_pdf(dist, x) == pytest.approx(expected, rel=1e-12)

    def test_unit_mass(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        mass = quad(lambda x: eval_pdf(dist, x), 0.0, 1.0, epsabs=1e-9, epsrel=0.0)[0]
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_2d_input_matches_flat_call(self, paper_params):
        dist = reconstruct(moment_sequence(paper_params, 6), order=6)
        xs = np.array([[0.1, 0.35, 0.5], [0.62, 0.8, 0.97]])
        vals = eval_pdf(dist, xs)
        assert vals.shape == (2, 3)
        np.testing.assert_array_equal(vals, eval_pdf(dist, xs.ravel()).reshape(2, 3))

    def test_open_interval_only(self):
        dist = _beta_27_13_distribution()
        with pytest.raises(ValueError):
            eval_pdf(dist, 0.0)
        with pytest.raises(ValueError):
            eval_pdf(dist, 1.0)
        # NaN, alone or among points inside, is no point of (0, 1) either.
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"pdf is defined on the open interval \(0, 1\)"):
                eval_pdf(dist, x)


class TestCdf:
    def test_endpoints(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        assert eval_cdf(dist, 0.0) == 0.0
        assert eval_cdf(dist, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_one_at_one_on_random_scenarios(self):
        # The leading term is mu_0 I_x, so F(1) = mu_0 = 1 exactly; through
        # h_0 (mu_0 / h_0) it missed 1 by an ulp in about one case in six.
        rng = np.random.default_rng(23)
        for _ in range(300):
            params = SystemParams(10.0 ** rng.uniform(-4.0, -2.0), rng.uniform(2.5, 6.0),
                                  10.0 ** rng.uniform(-2.0, 2.0), 1.0,
                                  10.0 ** rng.uniform(-12.0, -8.0))
            dist = reconstruct(moment_sequence(params, 10), order=10)
            assert eval_cdf(dist, 1.0) == 1.0
            assert meta_reliability(dist, 1.0) == 0.0

    def test_beta_round_trip(self):
        dist = _beta_27_13_distribution()
        xs = np.linspace(0.0, 1.0, 101)
        vals = eval_cdf(dist, xs)
        ref = np.array([reg_inc_beta(float(x), 2.7, 1.3) for x in xs])
        assert np.max(np.abs(vals - ref)) < 1e-8

    def test_derivative_recovers_pdf(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        h = 1e-5
        for x in (0.25, 0.5, 0.75):
            num = (eval_cdf(dist, x + h) - eval_cdf(dist, x - h)) / (2.0 * h)
            assert num == pytest.approx(eval_pdf(dist, x), abs=1e-7)

    def test_monotone_on_poisson_grid(self):
        scenarios = [
            SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10),
            SystemParams(1e-3, 3.0, 1.0, 1.0, 1e-10),
            SystemParams(1e-3, 4.0, 0.1, 1.0, 1e-10),
            SystemParams(5e-3, 5.0, 10.0, 1.0, 1e-10),
        ]
        xs = np.linspace(0.0, 1.0, 1001)
        for p in scenarios:
            dist = reconstruct(moment_sequence(p, 10), order=10)
            cdf = eval_cdf(dist, xs)
            assert np.min(np.diff(cdf)) >= -1e-6

    def test_domain(self):
        dist = _beta_27_13_distribution()
        with pytest.raises(ValueError):
            eval_cdf(dist, -0.01)
        with pytest.raises(ValueError):
            eval_cdf(dist, 1.01)
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"cdf is defined on \[0, 1\]"):
                eval_cdf(dist, x)


class TestCdfMemo:
    """A distribution keeps the CDF of the last grid eval_cdf evaluated."""

    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.fixture
    def inc_beta_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return reg_inc_beta(*args)

        monkeypatch.setattr(jacobi, "reg_inc_beta", counted)
        return calls

    def test_reliability_after_cdf_is_one_incomplete_beta(self, inc_beta_calls):
        dist = _beta_27_13_distribution()
        cdf = eval_cdf(dist, self.GRID)
        rel = meta_reliability(dist, self.GRID)
        assert len(inc_beta_calls) == 1
        np.testing.assert_array_equal(rel, np.clip(1.0 - cdf, 0.0, 1.0))
        fresh = _beta_27_13_distribution()
        np.testing.assert_array_equal(meta_reliability(fresh, self.GRID), rel)

    def test_another_grid_is_evaluated_again(self, inc_beta_calls):
        dist = _beta_27_13_distribution()
        grids = [self.GRID, self.GRID[::-1], self.GRID.reshape(7, 143), self.GRID]
        expected = [eval_cdf(_beta_27_13_distribution(), grid) for grid in grids]
        inc_beta_calls.clear()
        for k, (grid, ref) in enumerate(zip(grids, expected), start=1):
            np.testing.assert_array_equal(eval_cdf(dist, grid), ref)
            assert len(inc_beta_calls) == k
        # The same array, changed in place, is another grid.
        grid = self.GRID.copy()
        eval_cdf(dist, grid)
        grid[500] = 0.25
        assert eval_cdf(dist, grid)[500] == eval_cdf(dist, 0.25)
        assert len(inc_beta_calls) == 6

    def test_returned_arrays_are_copies(self, inc_beta_calls):
        dist = _beta_27_13_distribution()
        first = eval_cdf(dist, self.GRID)
        expected = first.copy()
        first[:] = 7.0
        second = eval_cdf(dist, self.GRID)
        np.testing.assert_array_equal(second, expected)
        second[:] = -1.0
        np.testing.assert_array_equal(eval_cdf(dist, self.GRID), expected)
        assert len(inc_beta_calls) == 1

    def test_memo_is_not_part_of_the_identity(self, inc_beta_calls):
        dist, twin = _beta_27_13_distribution(), _beta_27_13_distribution()
        before = (repr(dist), hash(dist))
        eval_cdf(dist, self.GRID)
        assert dist == twin
        assert (repr(dist), hash(dist)) == before == (repr(twin), hash(twin))
        copy = dataclasses.replace(dist)
        assert copy == dist and copy._last_cdf == {}
        eval_cdf(copy, self.GRID)
        assert len(inc_beta_calls) == 2


class TestReliability:
    def test_endpoints(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        assert meta_reliability(dist, 0.0) == 1.0
        assert meta_reliability(dist, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_integral_recovers_mean_coverage(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        integral = quad(lambda x: meta_reliability(dist, x), 0.0, 1.0, epsabs=1e-8, epsrel=0.0)[0]
        assert integral == pytest.approx(seq[1], abs=2e-3)

    def test_clamped_to_unit_interval(self):
        dist = _beta_27_13_distribution()
        xs = np.linspace(0.0, 1.0, 101)
        rel = meta_reliability(dist, xs)
        assert np.all((rel >= 0.0) & (rel <= 1.0))


class TestProjectionConsistency:
    def test_coefficients_are_fixed_point(self, paper_params):
        seq = moment_sequence(paper_params, 10)
        dist = reconstruct(seq, order=10)
        # pdf / weight is a polynomial of degree 10, so the Gauss-Jacobi rule
        # integrates x^k pdf exactly.  The order-10 coefficient map amplifies
        # raw-moment errors about 6e6-fold: scalar quad at 1e-10 misses the
        # bound by 9e-5.
        al, be = dist.basis.alpha, dist.basis.beta
        raw = [
            gauss_jacobi_integral(
                lambda x, k=k: x**k * eval_pdf(dist, x) / ((1 - x) ** al * x**be), al, be
            )
            for k in range(11)
        ]
        seq2 = MomentSequence(tuple(m / raw[0] for m in raw), METHOD_EMPIRICAL)
        dist2 = fourier_jacobi_coeffs(seq2, dist.basis)
        dev = max(abs(a - b) for a, b in zip(dist.coefficients, dist2.coefficients))
        assert dev < 1e-6


class TestConvergenceDiagnostic:
    def test_beta_round_trip_converges(self):
        # |a_n| sits at the float64 cancellation floor (~1e-9 by n = 10); the
        # diagnostic weights it by e^(alpha n) ~ e^3, hence the 5e-8 ceiling.
        dist = _beta_27_13_distribution()
        report = convergence_diagnostic(dist)
        assert not report.warning
        assert max(report.decay_terms[1:]) < 5e-8

    def test_order_zero_trivial(self, paper_params):
        seq = moment_sequence(paper_params, 2)
        dist = reconstruct(seq, order=0)
        report = convergence_diagnostic(dist)
        assert not report.warning
        assert len(report.decay_terms) == 1

    def test_flat_coefficients_warn(self):
        seq = MomentSequence(beta_moments(2.0, 2.0, 10), METHOD_EMPIRICAL)
        dist = ReconstructedDistribution(
            basis=JacobiBasis(0.5, 0.5, 10),
            coefficients=tuple([1.0] * 11),
            source_moments=seq,
        )
        report = convergence_diagnostic(dist)
        assert report.warning
