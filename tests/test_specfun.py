"""Special-function kernels against closed forms, scipy, and the defining
integrals (dual-route: our series/continued-fraction code vs independent
oracles)."""
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from metadist import sim, specfun
from metadist.moments import SystemParams
from metadist.sim import BLOCK_SIZE, SimConfig, draw_ppp
from metadist.specfun import gauss_2f1, reg_inc_beta

from oracles import far_integral_parts_full, gauss_2f1_series_reference, rho_quadrature


class TestGauss2F1:
    def test_unit_at_zero_argument(self):
        for a, b, c in [(1.0, -0.5, 0.5), (3.0, 0.2, 1.7), (0.0, 1.0, 2.0)]:
            assert gauss_2f1(a, b, c, 0.0) == 1.0

    def test_terminating_series(self):
        assert gauss_2f1(0.0, -0.5, 0.5, -1.0) == 1.0

    def test_arctan_closed_form(self):
        # 2F1(1, -1/2; 1/2; -t) = 1 + sqrt(t) arctan(sqrt(t))
        assert gauss_2f1(1.0, -0.5, 0.5, -1.0) == pytest.approx(
            1.0 + math.pi / 4.0, rel=1e-12
        )
        for t in (0.1, 2.0, 10.0):
            expected = 1.0 + math.sqrt(t) * math.atan(math.sqrt(t))
            assert gauss_2f1(1.0, -0.5, 0.5, -t) == pytest.approx(expected, rel=1e-12)

    def test_against_rho_quadrature_oracle(self):
        # 2F1(n, -2/g; 1-2/g; -theta) - 1 equals the defining y-integral.
        for g in (3.0, 4.0, 5.0):
            for theta in (0.1, 1.0, 10.0):
                for n in range(1, 11):
                    series = gauss_2f1(n, -2.0 / g, 1.0 - 2.0 / g, -theta) - 1.0
                    oracle = rho_quadrature(n, g, theta)
                    assert series == pytest.approx(oracle, rel=1e-8)

    def test_against_scipy(self):
        for a in (0.5, 1.0, 4.0, 10.0):
            for b in (-0.9, -0.4, 0.3):
                for z in (-0.2, -1.0, -15.0):
                    c = 1.0 + b
                    assert gauss_2f1(a, b, c, z) == pytest.approx(
                        float(sp.hyp2f1(a, b, c, z)), rel=1e-10
                    )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, -3.0, -1.0)


def _same_float(got, want) -> bool:
    return type(got) is type(want) and (got == want or (math.isnan(got) and math.isnan(want)))


def _stop_term(a, b, c, z):
    """Index of the term the reference series stops on; None at the cap."""
    w = z / (z - 1.0)
    term = total = 1.0
    for k in range(specfun._SERIES_MAX_TERMS):
        term *= (a + k) * (c - b + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= specfun._SERIES_RTOL * abs(total):
            return k
    return None


class TestGauss2F1BitIdentical:
    """The chunked series returns exactly the scalar loop's float."""

    def test_rho_grid(self):
        # theta every 0.5 dB over the CLI range and n = 1..20: short series,
        # every chunk size, and the silent cap from about 24 dB up.  A capped
        # reference call costs ~3 ms, so each (theta, n) point takes one of
        # six gammas in turn rather than all of them.
        gammas = (2.05, 2.5, 3.0, 4.0, 5.0, 8.0)
        for i, theta_db in enumerate(np.arange(-20.0, 60.25, 0.5)):
            theta = 10.0 ** (float(theta_db) / 10.0)
            for n in range(1, 21):
                g = gammas[(i + n) % len(gammas)]
                args = (float(n), -2.0 / g, 1.0 - 2.0 / g, -theta)
                assert _same_float(gauss_2f1(*args), gauss_2f1_series_reference(*args)), args

    @settings(max_examples=200)
    @given(
        st.floats(-30.0, 30.0),
        st.floats(-30.0, 30.0),
        st.floats(-30.0, 30.0),
        st.floats(-1e6, 0.0),
    )
    def test_random_arguments(self, a, b, c, z):
        try:
            want = gauss_2f1_series_reference(a, b, c, z)
        except ValueError:
            with pytest.raises(ValueError):
                gauss_2f1(a, b, c, z)
            return
        assert _same_float(gauss_2f1(a, b, c, z), want)

    @pytest.mark.parametrize(
        ("args", "stop"),
        [
            # Short series (w^64 <= 1e-16): the last Python term and the
            # first term of the numpy chunk that follows it.
            ((20.0, -0.4, 0.6, -1.24), specfun._SERIES_PYTHON_TERMS - 1),
            ((20.0, -0.4, 0.6, -1.25), specfun._SERIES_PYTHON_TERMS),
            # Long series, all in numpy: w = 2/3 estimates 90.9 terms, so the
            # first chunk holds 136 and this series stops on its last.
            ((8.0, -0.4, 0.6, -2.0), 135),
            # w = 41/42 estimates 1,528.9 terms, a first chunk of 2,293: this
            # series stops on the first term of the second chunk.
            ((9.0, -0.4, 0.6, -41.0), 2293),
            # Series that carry terms large enough to move the sum across a
            # boundary: 128 Python terms, then a numpy chunk of 79 that holds
            # the stop; and chunks of 136, 272 and 544, the stop in the third.
            ((60.0, -0.4, 0.6, -1.0), 184),
            ((200.0, -0.4, 0.6, -2.0), 733),
        ],
    )
    def test_stops_either_side_of_a_boundary(self, args, stop):
        # Gamma 5, so b = -0.4 and c = 0.6; n = 8 to 200.
        assert _stop_term(*args) == stop
        assert _same_float(gauss_2f1(*args), gauss_2f1_series_reference(*args))

    def test_silent_cap(self):
        # n = 10 at 40 dB runs all 10,000 terms and returns without raising.
        args = (10.0, -0.4, 0.6, -1e4)
        assert _stop_term(*args) is None
        assert _same_float(gauss_2f1(*args), gauss_2f1_series_reference(*args))

    # The chunks read the ratio factors of the last (b2, c) pair from a
    # one-entry cache; these cases replace that pair, reuse it and bring back
    # an evicted one.  Every series below runs in numpy.
    @staticmethod
    def _rho_args(n, gamma, theta_db):
        return (float(n), -2.0 / gamma, 1.0 - 2.0 / gamma, -(10.0 ** (theta_db / 10.0)))

    def test_alternating_gammas_replace_the_cached_pair(self):
        specfun._series_factors.cache_clear()
        for i in range(8):
            args = self._rho_args(1 + i, (2.5, 4.5)[i % 2], 20.0 + i)
            assert _same_float(gauss_2f1(*args), gauss_2f1_series_reference(*args)), args
        assert specfun._series_factors.cache_info().misses == 8

    def test_a_gamma_that_comes_back(self):
        specfun._series_factors.cache_clear()
        first = self._rho_args(3, 3.0, 24.0)
        got = gauss_2f1(*first)
        for g in (4.0, 5.0, 6.0):
            args = self._rho_args(3, g, 24.0)
            assert _same_float(gauss_2f1(*args), gauss_2f1_series_reference(*args)), args
        again = gauss_2f1(*first)
        assert _same_float(again, got)
        assert _same_float(again, gauss_2f1_series_reference(*first))
        assert specfun._series_factors.cache_info().misses == 5

    @pytest.mark.parametrize(
        ("args", "stop"),
        [
            ((20.0, -0.4, 0.6, -1.25), specfun._SERIES_PYTHON_TERMS),
            ((9.0, -0.4, 0.6, -41.0), 2293),
            ((10.0, -0.4, 0.6, -1e4), None),
        ],
    )
    def test_cold_and_warm_cache(self, args, stop):
        # Just past the Python loop, on the first term of a second chunk and
        # at the 10,000-term cap: first with another gamma's pair cached,
        # then with its own, then after the other gamma has replaced it again.
        assert _stop_term(*args) == stop
        other = self._rho_args(2, 3.0, 30.0)
        want = gauss_2f1_series_reference(*args)
        for call in (other, args, args, other, args):
            expected = want if call is args else gauss_2f1_series_reference(*call)
            assert _same_float(gauss_2f1(*call), expected), call

    def test_nan_overflow_and_terminating(self):
        # z = -inf makes w = z/(z-1) NaN and z = -1e17 makes it round to
        # 1.0: both size the first chunk as the cap.  c - b = -4.2 gives
        # terms that change sign.
        assert 1e17 / (1e17 + 1.0) == 1.0
        for args in [
            (1.0, -0.4, 0.6, math.nan),
            (400.0, 300.0, 1.5, -1e6),
            (0.0, -0.5, 0.5, -1.0),
            (-3.0, 2.0, 1.5, -1e6),
            (1.0, -0.4, 0.6, -math.inf),
            (1.0, -0.4, 0.6, -1e17),
            (2.0, 5.7, 1.5, -50.0),
        ]:
            assert _same_float(gauss_2f1(*args), gauss_2f1_series_reference(*args)), args


class TestRegIncBeta:
    def test_boundary_values(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = float(rng.uniform(0.05, 40.0))
            b = float(rng.uniform(0.05, 40.0))
            x = float(rng.uniform(0.0, 1.0))
            assert abs(reg_inc_beta(x, a, b) - sp.betainc(a, b, x)) <= 1e-12

    @settings(max_examples=200)
    @given(
        st.floats(1e-3, 1.0 - 1e-3),
        st.floats(0.05, 30.0),
        st.floats(0.05, 30.0),
    )
    def test_symmetry(self, x, a, b):
        # x restricted to where 1 - x is well conditioned: for x below ~1e-4
        # with small a, the eps-level rounding of 1 - x alone shifts
        # I_{1-x}(b, a) by more than the tolerance (I has unbounded slope
        # at the endpoints).
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("k", [2, 10, 20, 40])
    def test_symmetry_at_dyadic_extremes(self, k):
        # 2^-k and 1 - 2^-k are both exact doubles, so the identity must hold
        # tightly even deep into the tails.
        x = 2.0**-k
        for a, b in [(0.125, 1.0), (2.7, 1.3), (10.0, 0.3)]:
            assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_nondecreasing_in_x(self):
        xs = np.linspace(0.0, 1.0, 201)
        for a, b in [(0.3, 0.7), (2.7, 1.3), (5.0, 5.0)]:
            vals = [reg_inc_beta(float(x), a, b) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -2.0)
        # A non-finite parameter is rejected before any work, even where x
        # needs no continued fraction.
        for args in [(0.5, math.inf, 1.0), (0.0, math.inf, 1.0), (1.0, 1.0, math.inf)]:
            with pytest.raises(ValueError):
                reg_inc_beta(*args)


class TestBetaContFrac:
    def test_lanes_of_both_pairs_equal_one_side_calls(self):
        a, b = 0.6, 2.4
        rng = np.random.default_rng(2)
        swap = rng.integers(0, 2, 200).astype(bool)
        x = rng.uniform(0.0, 0.12, 200)
        vals = specfun._beta_cont_frac(a, b, swap, x)
        for side, (c, d) in [(False, (a, b)), (True, (b, a))]:
            lanes = swap == side
            one = specfun._beta_cont_frac(a, b, np.full(lanes.sum(), side), x[lanes])
            np.testing.assert_array_equal(vals[lanes], one)
            ref = sp.betainc(c, d, x[lanes]) * c / (
                x[lanes] ** c * (1.0 - x[lanes]) ** d / sp.beta(c, d))
            np.testing.assert_allclose(one, ref, rtol=1e-12)

    @pytest.mark.parametrize("a, b, bad", [
        (1.0, 1.0, 1.0),  # 1 + d_1 = 1 - (a+b) x / (a+1) is zero at x = 1
        (2.0, 3.0, np.nan),
        (2.0, 3.0, np.inf),
    ])
    def test_zero_or_non_finite_denominator_raises(self, a, b, bad):
        with pytest.raises(ArithmeticError):
            specfun._beta_cont_frac(a, b, np.zeros(2, bool), np.array([0.2, bad]))


class TestRegIncBetaArray:
    @settings(max_examples=200)
    @given(
        st.floats(0.05, 30.0),
        st.floats(0.05, 30.0),
        st.lists(st.floats(0.0, 1.0), max_size=20),
        st.floats(1e-9, 0.2),
    )
    def test_against_scipy(self, a, b, xs, gap):
        # The endpoints, the continued-fraction split (a+1)/(a+b+2) and
        # points just either side of it, plus arbitrary lanes.
        split = (a + 1.0) / (a + b + 2.0)
        x = np.array([0.0, 1.0, split, max(split - gap, 0.0), min(split + gap, 1.0), *xs])
        # Above 1/2 the reference is 1 - I_{1-x}(b, a), with 1 - x exact:
        # scipy's I_x(0.5, 0.5) at x = 1 - 2^-53 is 0.99999999051, where
        # (2/pi) arcsin(sqrt(x)) is 0.99999999329.
        ref = np.where(x > 0.5, 1.0 - sp.betainc(b, a, 1.0 - x), sp.betainc(a, b, x))
        np.testing.assert_allclose(reg_inc_beta(x, a, b), ref, rtol=0.0, atol=1e-12)

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(3)
        # At (2000, 2000.5) the lanes at the split take 71 steps.
        for a, b in [(0.3, 0.7), (2.7, 1.3), (12.0, 40.0), (2000.0, 2000.5)]:
            split = (a + 1.0) / (a + b + 2.0)
            xs = np.concatenate([[0.0, 1.0, split, np.nextafter(split, 0.0)],
                                 rng.uniform(0.0, 1.0, 60), 2.0 ** -np.arange(1.0, 50.0)])
            vals = reg_inc_beta(xs, a, b)
            assert vals.shape == xs.shape
            np.testing.assert_array_equal(vals, [reg_inc_beta(float(x), a, b) for x in xs])
            np.testing.assert_array_equal(reg_inc_beta(xs[:112].reshape(-1, 4), a, b),
                                          vals[:112].reshape(-1, 4))

    def test_scalar_in_scalar_out(self):
        assert type(reg_inc_beta(0.25, 2.0, 3.0)) is float
        assert reg_inc_beta(np.empty(0), 2.0, 3.0).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_any_bad_lane_raises(self, bad):
        with pytest.raises(ValueError):
            reg_inc_beta(np.array([0.2, bad, 0.7]), 2.0, 3.0)

    def test_against_scipy_on_the_reconstruction_range(self):
        # eval_cdf's leading term is I_x(beta+1, alpha+1) on a 1001-point
        # grid.  Sweep bases at -20 dB reach beta ~ 106, where the slowest
        # lanes take about 50 steps.
        xs = np.linspace(0.0, 1.0, 1001)
        rng = np.random.default_rng(11)
        cases = [(1.0, 2.0), (1.0, 1e-3), (107.0, 1.5), (200.0, 2.0), (200.0, 1e-3),
                 *zip(rng.uniform(1.0, 200.0, 30), rng.uniform(1e-3, 2.0, 30))]
        for a, b in cases:
            np.testing.assert_allclose(reg_inc_beta(xs, a, b), sp.betainc(a, b, xs),
                                       rtol=0.0, atol=1e-12, err_msg=f"a={a}, b={b}")

    def test_one_unconverged_lane_raises(self):
        # At a = b = 1e6 the fraction converges at x = 0.3 but needs far more
        # than the 500-step cap at x = 0.5.
        assert reg_inc_beta(0.3, 1e6, 1e6) == 0.0
        with pytest.raises(ArithmeticError):
            reg_inc_beta(0.5, 1e6, 1e6)
        with pytest.raises(ArithmeticError):
            reg_inc_beta(np.array([0.3, 0.5]), 1e6, 1e6)
        # The message names the caller's a, b and x on either side of the
        # split, 2/3 at (2e6, 1e6).
        for x in [0.6666665545556296, 0.6666665565556296]:
            message = re.escape(f"(a=2000000.0, b=1000000.0, x={x})")
            with pytest.raises(ArithmeticError, match=message):
                reg_inc_beta(np.array([0.2, x]), 2e6, 1e6)


class TestFarIntegral:
    # Lengths at which the power table may stop (see specfun.far_integral_parts).
    LADDER = (2, 4, 8, 16, 32, specfun._F_TERMS)

    # F(s) = int_0^s x^-delta / (1 + x) dx = s^(1-delta) / (1-delta) 2F1(1, 1-delta;
    # 2-delta; -s), in 40-digit arithmetic by mpmath.  The series take about
    # 9.1e-15 relative at gamma 2.01, where F(inf) = pi / sin(pi delta) is
    # about 200 and its rounding dominates, and below 3.5e-15 elsewhere.
    REL_TOL = 1.5e-14

    @staticmethod
    def far_integral(s, delta):
        offset, series = specfun.far_integral_parts(np.asarray(s, dtype=float), delta)
        return offset + series

    @pytest.mark.parametrize("gamma", [2.01, 2.5, 4.0, 5.0, 8.0, 20.0])
    def test_matches_mpmath(self, gamma):
        delta = 2.0 / gamma
        s = np.concatenate([np.logspace(-20.0, 20.0, 81), [0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
                                                           2.0, 6e15]])
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            expected = np.array([float(mpmath.mpf(x) ** (1 - d) / (1 - d)
                                       * mpmath.hyp2f1(1, 1 - d, 2 - d, -mpmath.mpf(x)))
                                 for x in s])
        got = self.far_integral(s, delta)
        assert np.max(np.abs(got - expected) / expected) <= self.REL_TOL

    @pytest.mark.parametrize("gamma", [2.01, 4.0, 20.0])
    def test_zero_is_exact(self, gamma):
        # An s that underflows to 0 takes no log of zero and gives F = 0.
        assert self.far_integral(np.zeros(3), 2.0 / gamma).tolist() == [0.0] * 3

    @pytest.mark.parametrize("gamma", [2.01, 2.5, 4.0, 5.0, 8.0, 20.0])
    def test_cut_table_is_the_full_table(self, gamma):
        # The table stops at the first ladder length J with every z^J < 2^-54;
        # the rows it leaves out cannot change a float of the sums.  One s per
        # call, so that each takes its own J, and the grid reaches every J.
        delta = 2.0 / gamma
        s = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 601), np.logspace(-9.0, 1.0, 201),
                            [1.0 - 1e-12, 1.0, 1.0 + 1e-12]])
        z = np.where(s <= 1.0, s / (1.0 + s), 1.0 / (1.0 + s))
        cuts = {next(j for j in self.LADDER if j == self.LADDER[-1] or x**j < 2.0**-54)
                for x in z.tolist()}
        assert cuts == set(self.LADDER)
        for x in s:
            (offset, series), (full_offset, full_series) = (
                parts(np.array([x]), delta)
                for parts in (specfun.far_integral_parts, far_integral_parts_full))
            assert offset == full_offset and series == full_series

    @pytest.mark.parametrize("gamma", [2.01, 4.0, 20.0])
    @pytest.mark.parametrize("rung", [1, 2, 3, 4, 5])
    def test_largest_z_sets_the_table_of_the_call(self, gamma, rung):
        # One table length serves a whole call.  Many tiny z of both branches,
        # which alone stop at J = 2, share a call with one s whose z lies at
        # the rung's threshold (where z squared `rung` times first falls below
        # 2^-54) or one float either side of it, on either branch.
        delta = 2.0 / gamma
        tiny = np.concatenate([[0.0], np.logspace(-300.0, -20.0, 29),
                               np.logspace(20.0, 300.0, 29)])

        def below(s, squarings):
            # Every z of s, squared elementwise, below 2^-54.
            z = np.fmin(s, 1.0) / (1.0 + s)
            for _ in range(squarings):
                z = z * z
            return bool(np.all(z < 2.0**-54))

        def table_length(s):
            return next((j for i, j in enumerate(self.LADDER[:-1], 1) if below(s, i)),
                        self.LADDER[-1])

        lengths = set()
        # Below s = 1, z = s / (1 + s) rises with s; above it, z = 1 / (1 + s)
        # falls.  Bisect the bit patterns of s for the two adjacent floats
        # between which z squared `rung` times crosses 2^-54.
        for lo, hi in ((1e-300, 1.0), (1.0, 1e300)):
            lo_bits, hi_bits = np.array([lo, hi]).view(np.int64).tolist()
            side = below(np.array([lo]), rung)
            while hi_bits - lo_bits > 1:
                mid = (lo_bits + hi_bits) // 2
                if below(np.array([mid]).view(np.float64), rung) == side:
                    lo_bits = mid
                else:
                    hi_bits = mid
            edge = np.array([lo_bits - 1, lo_bits, hi_bits, hi_bits + 1]).view(np.float64)
            for x in edge:
                s = np.insert(tiny, tiny.size // 2, x)
                lengths.add(table_length(s))
                got = specfun.far_integral_parts(s, delta)
                full = far_integral_parts_full(s, delta)
                assert np.array_equal(got[0], full[0]) and np.array_equal(got[1], full[1])
        assert lengths == set(self.LADDER[rung - 1:rung + 1])

    @pytest.mark.parametrize("theta_db", [-60.0, 0.0, 60.0])
    @pytest.mark.parametrize("gamma", [2.05, 4.0])
    def test_kernel_blocks_match_the_full_table(self, gamma, theta_db, monkeypatch):
        # A campaign block's log(1/C) is the same float with the 54-row table:
        # on the default disk (mean count 785, where no t_K passes the edge),
        # at the block's median t_K (half the rows end past it, take s_m for
        # s_K and mask their BSs past it) and on the plane.
        p = SystemParams(1e-3, gamma, 10.0 ** (theta_db / 10.0), 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=BLOCK_SIZE)
        arrivals, _ = draw_ppp(cfg, BLOCK_SIZE, np.random.default_rng([35, int(theta_db) + 60]))
        edges = (cfg.mean_count, float(np.median(arrivals[:, -1])), math.inf)
        assert [np.count_nonzero(arrivals[:, -1] > m) for m in edges] == [0, BLOCK_SIZE // 2, 0]
        got = [sim._log_inv_ccp(arrivals, p, m) for m in edges]
        monkeypatch.setattr(sim, "far_integral_parts", far_integral_parts_full)
        for m, log_inv in zip(edges, got):
            assert np.array_equal(sim._log_inv_ccp(arrivals, p, m), log_inv)

    def test_difference_above_one_cancels_the_limit(self):
        # Two arguments above s = 1 cancel F(inf) exactly in the offsets, so
        # a tiny difference keeps its relative accuracy.
        delta = 2.0 / 2.01
        (off_a, off_b), (ser_a, ser_b) = specfun.far_integral_parts(np.array([1e6, 2e6]), delta)
        assert off_a == off_b > 0.0
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            expected = float(mpmath.quad(lambda x: x**-d / (1 + x), [1e6, 2e6]))
        assert (off_b - off_a) + (ser_b - ser_a) == pytest.approx(expected, rel=1e-13)
