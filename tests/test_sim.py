"""Point-process simulator: geometry, per-realization coverage, campaigns
(seeded blocks, run one after another on the calling thread, with the same
bytes on any thread), and statistical agreement with the analytic moments.
The far-field integral F that the kernel takes from specfun is tested in
test_specfun."""
import csv
import dataclasses
import io
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, chisquare, expon, ks_2samp, kstest

from metadist.moments import METHOD_EMPIRICAL, SystemParams, moment_exact, moment_sequence
from metadist import jacobi, sim
from metadist.sim import (
    BLOCK_SIZE,
    NEAREST_BS,
    EmpiricalMeta,
    SimConfig,
    ccp_analytic,
    ccp_sampled,
    draw_ppp,
    empirical_moments,
    empirical_reliability,
    read_samples_csv,
    run_campaign,
    write_samples_csv,
)

from oracles import (
    ccp_sampled_reference,
    disk_arrivals,
    disk_ccp,
    disk_distances,
    log_inv_ccp_reference,
)
from spies import spy


def far_field_reference(row: np.ndarray, params: SystemParams, mean_count: float) -> float:
    """-log of the PGFL of the disk beyond a row's last arrival, by quad in t.

    int_{t_K}^{m} (1 - 1 / (1 + theta (t_1/t)^(gamma/2))) dt, 0 when t_K >= m.
    """
    nearest, last = row[0], row[-1]
    if last >= mean_count:
        return 0.0
    half, theta = 0.5 * params.gamma_pl, params.theta
    value, _ = quad(lambda t: 1.0 / (1.0 + (t / nearest) ** half / theta), last, mean_count,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def pooled_bins(observed: np.ndarray, expected: np.ndarray, floor: float = 5.0):
    """Adjacent bins merged left to right until each expects at least `floor`;
    a short remainder joins the last bin.  Returns (observed, expected)."""
    obs, exp = [], []
    o = e = 0.0
    for ok, ek in zip(observed, expected):
        o, e = o + ok, e + ek
        if e >= floor:
            obs.append(o)
            exp.append(e)
            o = e = 0.0
    obs[-1] += o
    exp[-1] += e
    return np.array(obs), np.array(exp)


class TestConfigValidation:
    def test_bad_values_rejected(self, paper_params):
        with pytest.raises(ValueError):
            SimConfig(params=paper_params, num_realizations=0)
        with pytest.raises(ValueError):
            SimConfig(params=paper_params, num_realizations=1, region_radius=0.0)
        with pytest.raises(ValueError):
            SimConfig(params=paper_params, num_realizations=1, num_channel_draws=0)
        with pytest.raises(ValueError):
            SimConfig(params=paper_params, num_realizations=1, fading_mode="psychic")
        with pytest.raises(ValueError):
            SimConfig(params=paper_params, num_realizations=1, rng_seed=-1)
        with pytest.raises(ValueError, match="region_radius must be positive, got nan"):
            SimConfig(params=paper_params, num_realizations=1, region_radius=math.nan)

    def test_almost_surely_empty_disk_rejected(self):
        # lambda pi R^2 underflows to 0 although lambda and R are positive:
        # the disk is empty with probability 1, so no nearest BS can be drawn.
        p = SystemParams(1e-200, 5.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"mean BS count lambda pi R\^2 is not positive at "
                                             r"lambda = 1e-200 and region_radius = 1e-200"):
            SimConfig(params=p, num_realizations=1, region_radius=1e-200)

    def test_overflowing_mean_count_is_the_plane(self, paper_params):
        # lambda pi R^2 overflows to inf at R = 1e300 and at R = 1e200 (lambda
        # 1e-3): the same campaign as R = inf, the infinite plane, in both
        # modes, with no empty disk and no warning.
        for mode in ("analytic", "sampled"):
            runs = [run_campaign(SimConfig(params=paper_params, num_realizations=600,
                                           region_radius=radius, fading_mode=mode,
                                           rng_seed=3))
                    for radius in (math.inf, 1e300, 1e200)]
            assert [emp.redraws for emp in runs] == [0, 0, 0]
            assert len({emp.ccp_samples.tobytes() for emp in runs}) == 1

    def test_huge_mean_count_accepted(self, paper_params):
        # lambda pi R^2 = 3.1e15 BSs: a realization still draws only its
        # NEAREST_BS nearest, and the far field runs to the edge.
        cfg = SimConfig(params=paper_params, num_realizations=3, region_radius=1e9)
        emp = run_campaign(cfg)
        assert emp.redraws == 0
        assert np.all((emp.ccp_samples > 0.0) & (emp.ccp_samples <= 1.0))

    def test_empirical_meta_validation(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=2)
        with pytest.raises(ValueError):
            EmpiricalMeta(ccp_samples=np.array([0.5]), config=cfg)
        with pytest.raises(ValueError):
            EmpiricalMeta(ccp_samples=np.array([0.5, 1.5]), config=cfg)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            EmpiricalMeta(ccp_samples=np.array([0.5, math.nan]), config=cfg)


class TestDrawPpp:
    # At lambda 1e-5 the disk holds Poisson(7.85) BSs and a row's NEAREST_BS
    # arrivals reach past the edge, so the arrivals inside are all its BSs.
    SPARSE = SystemParams(1e-5, 5.0, 1.0, 1.0, 1e-10)

    def test_mean_count(self):
        # A nonempty disk holds Poisson(m) BSs conditioned on at least one:
        # mean m / (1 - exp(-m)), variance below that mean.
        cfg = SimConfig(params=self.SPARSE, num_realizations=1)
        arrivals, _ = draw_ppp(cfg, 2000, np.random.default_rng(0))
        m = cfg.mean_count
        counts = (arrivals <= m).sum(axis=1)
        assert counts.max() < NEAREST_BS and counts.min() >= 1
        mean = m / -math.expm1(-m)
        assert abs(np.mean(counts) - mean) <= 3.0 * math.sqrt(mean / 2000.0)

    def test_points_inside_disk(self, paper_params):
        # Rows increase, and the nearest BS of every row lies in the disk.
        cfg = SimConfig(params=paper_params, num_realizations=1)
        arrivals, redraws = draw_ppp(cfg, 300, np.random.default_rng(3))
        assert arrivals.shape == (300, NEAREST_BS) and redraws == 0
        assert np.all(arrivals[:, 0] >= 0.0) and np.all(np.diff(arrivals, axis=1) >= 0.0)
        assert np.all(arrivals[:, 0] <= cfg.mean_count)
        r = disk_distances(cfg, np.random.default_rng(3))
        assert r.ndim == 1 and r.size > NEAREST_BS
        assert np.all((r >= 0.0) & (r <= cfg.region_radius))

    def test_radial_law(self):
        # Given their count, the BSs are uniform on the disk: pooled over
        # realizations, P(r <= t) = (t/R)^2 with r = R sqrt(t_j / m).
        cfg = SimConfig(params=self.SPARSE, num_realizations=1)
        arrivals, _ = draw_ppp(cfg, 2000, np.random.default_rng(1))
        inside = arrivals[arrivals <= cfg.mean_count]
        radius = cfg.region_radius
        r = radius * np.sqrt(inside / cfg.mean_count)
        assert r.size > 10_000
        assert kstest(r, lambda t: np.clip(t / radius, 0.0, 1.0) ** 2).pvalue > 0.01

    def test_gaps_are_unit_exponentials(self, paper_params):
        # The arrivals of a unit-rate Poisson process: the gaps after the
        # nearest BS are standard exponentials, and the nearest one is an
        # exponential conditioned to lie in the disk, P(t_1 <= t) =
        # (1 - e^-t) / (1 - e^-m).
        # At lambda 1e-12 every disk is empty at first draw, so every t_1
        # comes from the conditioned draw.
        cfg = SimConfig(params=paper_params, num_realizations=1)
        arrivals, _ = draw_ppp(cfg, 500, np.random.default_rng(2))
        assert kstest(np.diff(arrivals, axis=1).ravel(), expon.cdf).pvalue > 0.01
        for lam in (1e-6, 1e-12):
            sparse = SimConfig(params=SystemParams(lam, 5.0, 1.0, 1.0, 1e-10), num_realizations=1)
            arrivals, redraws = draw_ppp(sparse, 2000, np.random.default_rng(2))
            assert redraws == 2000 if lam == 1e-12 else 0 < redraws < 2000
            assert kstest(np.diff(arrivals, axis=1).ravel(), expon.cdf).pvalue > 0.01
            m = sparse.mean_count
            assert kstest(arrivals[:, 0],
                          lambda t: np.expm1(-np.minimum(t, m)) / math.expm1(-m)).pvalue > 0.01

    def test_vanishing_density_gives_empty(self):
        # The disk is empty with probability 0.9992: the block draws the
        # nearest BS of each empty realization once more, inside the disk,
        # and counts those realizations.
        p = SystemParams(1e-9, 5.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1)
        arrivals, redraws = draw_ppp(cfg, 20, np.random.default_rng(0))
        assert arrivals.shape == (20, NEAREST_BS)
        assert np.all(arrivals[:, 0] <= cfg.mean_count)
        assert 19 <= redraws <= 20

    @pytest.mark.parametrize("lam", [1e-3, 1e-6, 1e-12])
    def test_arrivals_are_the_exponential_draw(self, lam):
        # The arrivals are the cumulative sums of one standard exponential
        # draw whose k empty rows take their first gap, in order, from one
        # random(k) call as -log1p(u expm1(-m)), and nothing else is drawn.
        p = SystemParams(lam, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1)
        drawn = np.random.default_rng(8)
        arrivals, redraws = draw_ppp(cfg, 50, drawn)
        rng = np.random.default_rng(8)
        mean = cfg.mean_count
        gaps = rng.standard_exponential((50, NEAREST_BS))
        empty = gaps[:, 0] > mean
        k = int(empty.sum())
        if k:
            gaps[empty, 0] = -np.log1p(rng.random(k) * math.expm1(-mean))
        assert arrivals.tolist() == np.cumsum(gaps, axis=1).tolist()
        assert redraws == k and (k > 0) == (lam < 1e-3) and (k == 50) == (lam == 1e-12)
        assert drawn.bit_generator.state == rng.bit_generator.state

    def test_plane_has_no_empty_row(self):
        # On the plane (m = inf) the arrivals are the cumulative sums of the
        # one standard exponential draw, even at lambda 1e-12, where every
        # 500 m disk is empty at first draw.
        p = SystemParams(1e-12, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1, region_radius=math.inf)
        drawn = np.random.default_rng(8)
        arrivals, redraws = draw_ppp(cfg, 50, drawn)
        rng = np.random.default_rng(8)
        assert arrivals.tolist() == np.cumsum(rng.standard_exponential((50, NEAREST_BS)),
                                              axis=1).tolist()
        assert redraws == 0
        assert drawn.bit_generator.state == rng.bit_generator.state


class TestCcpAnalytic:
    def test_zero_threshold(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        r = np.array([10.0, 30.0, 40.0 * math.sqrt(2.0)])
        assert ccp_analytic(r, p) == 1.0

    def test_single_station_noise_only(self):
        p = SystemParams(1e-3, 4.0, 2.0, 1.0, 1e-8)
        r0 = 120.0
        expected = math.exp(-2.0 * 1e-8 * r0**4 / 1.0)
        assert ccp_analytic(np.array([r0]), p) == pytest.approx(expected, rel=1e-12)

    def test_two_station_closed_form(self):
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 0.0)
        r = np.array([100.0, 200.0])
        assert ccp_analytic(r, p) == pytest.approx(16.0 / 17.0, rel=1e-12)

    def test_permutation_invariance(self, paper_params):
        rng = np.random.default_rng(5)
        r = rng.uniform(1.0, 500.0, size=50)
        base = ccp_analytic(r, paper_params)
        perm = ccp_analytic(r[rng.permutation(50)], paper_params)
        assert perm == pytest.approx(base, rel=1e-12)

    def test_no_underflow_with_1e5_interferers(self):
        # ~1e5-point realization: the log-space product must stay positive.
        p = SystemParams(0.13, 5.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1, region_radius=500.0)
        r = disk_distances(cfg, np.random.default_rng(1))
        assert len(r) > 90_000
        val = ccp_analytic(r, p)
        assert 0.0 < val <= 1.0

    def test_empty_realization_rejected(self, paper_params):
        with pytest.raises(ValueError):
            ccp_analytic(np.empty(0), paper_params)

    @pytest.mark.parametrize("r", [1e200, math.inf, math.nan])
    def test_non_finite_arrival_rejected(self, r, paper_params):
        # pi lambda r^2 overflows at r = 1e200 and lambda 1e-3; an infinite
        # or NaN distance has no arrival either.  The error names the distance,
        # alone or among finite ones, and no overflow warning comes first.
        for distances in ([r], [40.0, r, 90.0]):
            with pytest.raises(ValueError, match=re.escape(f"r = {r!r}")):
                ccp_analytic(np.array(distances), paper_params)

    @pytest.mark.parametrize("theta", [1e-2, 1.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("gamma", [2.5, 4.0, 6.0])
    def test_block_kernel_matches_reference(self, theta, gamma):
        # Eight rows of nearest BSs against a disk edge m at their median last
        # arrival, so four rows take the far field and four end outside the
        # disk; faint noise.  The kernel's log(1/C) is the product over the
        # BSs inside plus the PGFL of the disk beyond the last, by quad.
        p = SystemParams(1e-3, gamma, theta, 1.0, 1e-16)
        cfg = SimConfig(params=p, num_realizations=1)
        seed = [4, int(gamma * 10), int(math.log10(theta) + 2)]
        arrivals, _ = draw_ppp(cfg, 8, np.random.default_rng(seed))
        m = float(np.median(arrivals[:, -1]))
        rows = [np.sqrt(row[row <= m] / (math.pi * p.lambda_bs)) for row in arrivals]
        near = np.array([log_inv_ccp_reference(r, p) for r in rows])
        far = np.array([far_field_reference(row, p, m) for row in arrivals])
        assert np.count_nonzero(far) == 4
        assert sim._log_inv_ccp(arrivals, p, m) == pytest.approx(near + far, rel=1e-12)
        # ccp_analytic is the one-row call with no far field.
        assert [ccp_analytic(r, p) for r in rows] == pytest.approx(np.exp(-near), rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("gamma", [2.5, 4.0])
    def test_plane_kernel_matches_reference(self, theta, gamma):
        # At edge = inf no BS is masked and the far field runs to infinity:
        # the quad of the PGFL from each row's last arrival on.
        p = SystemParams(1e-3, gamma, theta, 1.0, 1e-16)
        cfg = SimConfig(params=p, num_realizations=1, region_radius=math.inf)
        arrivals, _ = draw_ppp(cfg, 8, np.random.default_rng([5, int(gamma * 10)]))
        rows = [np.sqrt(row / (math.pi * p.lambda_bs)) for row in arrivals]
        near = np.array([log_inv_ccp_reference(r, p) for r in rows])
        far = np.array([far_field_reference(row, p, math.inf) for row in arrivals])
        assert np.all(far > 0.0)
        assert sim._log_inv_ccp(arrivals, p, math.inf) == pytest.approx(near + far, rel=1e-12)

    def test_station_on_the_user(self):
        # r0 = 0: interferers see ratio 0; a second BS on the user sees 0/0,
        # read as ratio 1, with no warning.
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10)
        assert ccp_analytic(np.array([0.0, 30.0, 80.0]), p) == 1.0
        assert ccp_analytic(np.array([0.0, 30.0, 0.0]), p) == 0.5
        # Every BS on the user: the far field's ratio is 0/0 too.
        assert ccp_analytic(np.zeros(3), p) == 0.25


class TestCcpSampled:
    @pytest.mark.parametrize("distances", [[math.nan, 10.0], [10.0, math.inf], [math.inf],
                                           [-5.0, 10.0]])
    def test_bad_distance_rejected_as_in_ccp_analytic(self, distances, paper_params):
        # No BS lies at a NaN, infinite or negative distance (squaring -5
        # would place one at 5 m); both functions name the first bad one.
        r = np.array(distances)
        bad = next(d for d in distances if not 0.0 <= d < math.inf)
        with pytest.raises(ValueError, match=re.escape(f"got r = {bad!r}")):
            ccp_sampled(r, paper_params, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape(f"r = {bad!r}")):
            ccp_analytic(r, paper_params)

    def test_zero_threshold(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        r = np.array([10.0, 30.0])
        assert ccp_sampled(r, p, 100, np.random.default_rng(0)) == 1.0

    @pytest.mark.parametrize("draws", [0, -1])
    def test_no_draws_rejected(self, draws, paper_params):
        with pytest.raises(ValueError, match=f"need at least one channel draw, got {draws}"):
            ccp_sampled(np.array([10.0, 30.0]), paper_params, draws, np.random.default_rng(0))

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_matches_explicit_interference_sum(self, theta):
        p = SystemParams(1e-3, 5.0, theta, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1, rng_seed=42)
        for i in range(4):
            r = disk_distances(cfg, np.random.default_rng([cfg.rng_seed, i, 0]))
            got = ccp_sampled(r, p, 700, np.random.default_rng([42, i]))
            assert got == ccp_sampled_reference(r, p, 700, np.random.default_rng([42, i]))

    @pytest.mark.parametrize("draws", [1, 7, 700])
    @pytest.mark.parametrize("size", [1, 46, 47, 785])
    def test_matches_explicit_interference_sum_on_a_disk(self, size, draws):
        # N BSs uniform on the 500 m disk, from a lone BS to the reference
        # scenario's mean count; both draw one (draws, N) gains matrix.
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10)
        r = 500.0 * np.sqrt(np.random.default_rng([5, size]).uniform(size=size))
        rng, oracle_rng = (np.random.default_rng([3, size, draws]) for _ in range(2))
        assert ccp_sampled(r, p, draws, rng) == ccp_sampled_reference(r, p, draws, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_single_station_noise_only(self, paper_params):
        # At r = 100 m the mean SNR is 100^-5 / 1e-10 = 1, so about e^-1 of
        # the draws clear theta = 1.
        r = np.array([100.0])
        got = ccp_sampled(r, paper_params, 500, np.random.default_rng(8))
        assert got == ccp_sampled_reference(r, paper_params, 500, np.random.default_rng(8))
        assert 0.25 < got < 0.5

    def test_single_station_noise_free(self):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)
        r = np.array([100.0])
        got = ccp_sampled(r, p, 500, np.random.default_rng(8))
        assert got == 1.0
        assert ccp_sampled_reference(r, p, 500, np.random.default_rng(8)) == 1.0

    def test_two_stations_on_the_user(self, paper_params):
        # Equal powers: a draw is covered when g_0 > theta g_1, with
        # probability 1 / (1 + theta), ccp_analytic's value.
        draws = 20_000
        exact = 1.0 / (1.0 + paper_params.theta)
        assert ccp_analytic(np.array([0.0, 0.0]), paper_params) == exact
        got = ccp_sampled(np.array([0.0, 0.0]), paper_params, draws, np.random.default_rng(9))
        assert abs(got - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / draws)

    def test_station_on_the_user_covers_every_draw(self, paper_params):
        r = np.array([0.0, 30.0])
        assert ccp_sampled(r, paper_params, 700, np.random.default_rng(9)) == 1.0

    def test_far_stations(self, paper_params):
        # r0^gamma overflows a double.  Without noise only r0 / r1 = 1/2
        # matters, covered with probability 1 / (1 + 2^-5); with noise no
        # draw clears theta = 1, and every draw clears theta = 0.
        r = np.array([1e100, 2e100])
        draws = 20_000
        exact = 1.0 / (1.0 + 2.0**-5)
        rng = np.random.default_rng(9)
        got = ccp_sampled(r, SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0), draws, rng)
        assert abs(got - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / draws)
        assert ccp_sampled(r, paper_params, 700, rng) == 0.0
        assert ccp_sampled(r, SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10), 700, rng) == 1.0

    def test_law_is_binomial_of_the_analytic_ccp(self):
        # Given the geometry a Rayleigh draw is covered with probability
        # exactly the analytic CCP, so M draws cover Binomial(M, CCP) of them.
        # The first two geometries of seeds (7, i) with a CCP in 0.2-0.8;
        # tail bins are pooled until each expects at least five counts.
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1)
        draws, reps = 50, 2000
        geometries = (disk_distances(cfg, np.random.default_rng([7, i])) for i in range(20))
        tested = 0
        for r in geometries:
            exact = ccp_analytic(r, p)
            if not 0.2 <= exact <= 0.8:
                continue
            rng = np.random.default_rng([8, tested])
            covered = [round(ccp_sampled(r, p, draws, rng) * draws) for _ in range(reps)]
            observed = np.bincount(covered, minlength=draws + 1)
            expected = reps * binom.pmf(np.arange(draws + 1), draws, exact)
            assert chisquare(*pooled_bins(observed, expected)).pvalue > 1e-3
            tested += 1
            if tested == 2:
                break
        assert tested == 2


class TestCampaign:
    def test_zero_threshold_all_ones(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        emp = run_campaign(SimConfig(params=p, num_realizations=40, rng_seed=3))
        assert np.all(emp.ccp_samples == 1.0)

    def test_mean_matches_first_moment(self, paper_params):
        emp = run_campaign(SimConfig(params=paper_params, num_realizations=2000, rng_seed=5))
        mu1 = moment_exact(paper_params, 1)
        se = float(np.std(emp.ccp_samples, ddof=1)) / math.sqrt(2000.0)
        assert abs(float(np.mean(emp.ccp_samples)) - mu1) <= 3.0 * se

    def test_empty_realizations_redrawn(self):
        # Noise-free, so every CCP is a finite product of factors in (0, 1]:
        # with noise, a lone BS far out underflows exp(-theta sigma2 r0^gamma / p).
        p = SystemParams(1e-9, 5.0, 1.0, 1.0, 0.0)
        emp = run_campaign(SimConfig(params=p, num_realizations=2, rng_seed=0))
        assert emp.redraws > 0
        assert len(emp.ccp_samples) == 2
        assert np.all((emp.ccp_samples > 0.0) & (emp.ccp_samples <= 1.0))

    @pytest.mark.parametrize("lam", [1e-12, 1e-15])
    def test_almost_empty_disk_is_one_uniform_bs(self, lam):
        # Every disk is empty at first draw (m = 7.9e-7 or 7.9e-10), and a
        # nonempty disk holds one BS, uniform on it, up to O(m).  So r^4 =
        # R^4 U^2 and C = exp(-a U^2) with a = theta sigma2 R^4 / p = 1:
        # P(C <= c) = 1 - sqrt(-log(c) / a).
        p = SystemParams(lam, 4.0, 1.0, 1.0, 1.6e-11)
        emp = run_campaign(SimConfig(params=p, num_realizations=2000, rng_seed=9))
        assert emp.redraws == 2000
        a = p.theta * p.noise * 500.0**4 / p.power
        law = lambda c: 1.0 - np.sqrt(np.clip(-np.log(c) / a, 0.0, 1.0))
        assert kstest(emp.ccp_samples, law).pvalue > 0.01

    def test_redraws_counted_across_block_boundary(self):
        p = SystemParams(1e-9, 5.0, 1.0, 1.0, 0.0)
        one = run_campaign(SimConfig(params=p, num_realizations=BLOCK_SIZE, rng_seed=0))
        two = run_campaign(SimConfig(params=p, num_realizations=BLOCK_SIZE + 1, rng_seed=0))
        assert one.redraws > 0
        assert two.redraws > one.redraws
        assert np.array_equal(two.ccp_samples[:BLOCK_SIZE], one.ccp_samples)
        assert np.all((two.ccp_samples > 0.0) & (two.ccp_samples <= 1.0))

    def test_sampled_factorial_moments_match_exact(self):
        # K = M * sample covered draws of M: E[K(K-1)] = M(M-1) mu_2 and
        # E[K] = M mu_1, so the thinned campaign checks against the exact
        # moments with no widened standard error.  Few draws make the
        # binomial term (mu_1 - mu_2) / M of E[sample^2] about 3 SE here.
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10)
        draws, n = 20, 20_000
        emp = run_campaign(SimConfig(params=p, num_realizations=n, fading_mode="sampled",
                                     num_channel_draws=draws, rng_seed=1))
        k = np.rint(emp.ccp_samples * draws)
        assert np.array_equal(k / draws, emp.ccp_samples)
        for values, n_moment in ((emp.ccp_samples, 1), (k * (k - 1) / (draws * (draws - 1)), 2)):
            se = float(np.std(values, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(values)) - moment_exact(p, n_moment)) <= 4.0 * se

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_whole_blocks_are_a_prefix(self, mode):
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)

        def campaign(n):
            cfg = SimConfig(params=p, num_realizations=n, fading_mode=mode,
                            num_channel_draws=20, rng_seed=11)
            return run_campaign(cfg).ccp_samples

        short, long = campaign(2 * BLOCK_SIZE), campaign(3 * BLOCK_SIZE)
        assert np.array_equal(long[: 2 * BLOCK_SIZE], short)

    def test_block_stream_layout(self):
        # Block b is seeded with (seed, b), draws its arrivals as one
        # standard exponential call, and makes one kernel call on them.
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=BLOCK_SIZE + 2, rng_seed=6)
        emp = run_campaign(cfg)
        expected = []
        for block, size in enumerate((BLOCK_SIZE, 2)):
            rng = np.random.default_rng([cfg.rng_seed, block])
            arrivals = np.cumsum(rng.standard_exponential((size, NEAREST_BS)), axis=1)
            expected += np.exp(-sim._log_inv_ccp(arrivals, p, cfg.mean_count)).tolist()
        assert emp.redraws == 0
        assert emp.ccp_samples.tolist() == expected

    def test_sampled_block_stream_layout(self, monkeypatch):
        # The sampled twin: the block's generator draws the same arrivals,
        # then thins the analytic CCPs with one binomial call of M draws
        # each, on the same generator.
        p = SystemParams(1e-2, 4.0, 1.0, 1.0, 1e-10)
        draws = 20
        cfg = SimConfig(params=p, num_realizations=3, fading_mode="sampled",
                        num_channel_draws=draws, rng_seed=6)
        seen = spy(monkeypatch, sim, "_log_inv_ccp")
        emp = run_campaign(cfg)
        analytic = run_campaign(SimConfig(params=p, num_realizations=3, rng_seed=6))
        rng = np.random.default_rng([cfg.rng_seed, 0])
        arrivals, redraws = draw_ppp(cfg, 3, rng)
        expected = rng.binomial(draws, analytic.ccp_samples) / draws
        assert redraws == emp.redraws == 0
        assert emp.ccp_samples.tolist() == expected.tolist()
        # The BSs the sampled block saw are the analytic campaign's under the
        # same seed, bit for bit.
        ((a_sampled, *_), _), ((a_analytic, *_), _) = seen
        assert a_sampled.tobytes() == a_analytic.tobytes() == arrivals.tobytes()

    @pytest.mark.parametrize("lam", [1e-2, 3e-2])
    def test_campaign_memory_does_not_grow_with_density(self, lam):
        # A block holds its (256, NEAREST_BS) arrivals, a work array of the
        # same size and F's (54, 2, 256) powers: about 0.4 MiB at any
        # density.  Drawn whole, a block held 16 B per BS of its 256
        # realizations (63 MiB and 184 MiB here).
        p = SystemParams(lam, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=2 * BLOCK_SIZE, rng_seed=1)
        tracemalloc.start()
        try:
            run_campaign(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_concurrent_campaigns_are_the_lone_run(self, mode):
        # Campaigns hold no shared state: four runs of one campaign at once on
        # caller threads each give the bytes of a lone run and count the
        # redraws of its own five blocks, the last one partial.  About 92% of
        # realizations are empty at first draw at this density, so every
        # block redraws.  A short switch interval interleaves the threads often.
        p = SystemParams(1e-7, 5.0, 1.0, 1.0, 0.0)
        cfg = SimConfig(params=p, num_realizations=4 * BLOCK_SIZE + 37, fading_mode=mode,
                        num_channel_draws=20, rng_seed=4)
        per_block = [
            np.count_nonzero(
                np.random.default_rng([cfg.rng_seed, block]).standard_exponential(
                    (min(BLOCK_SIZE, cfg.num_realizations - first), NEAREST_BS))[:, 0]
                > cfg.mean_count)
            for block, first in enumerate(range(0, cfg.num_realizations, BLOCK_SIZE))
        ]
        assert min(per_block) > 0
        lone = run_campaign(cfg)
        assert lone.redraws == sum(per_block)
        runs = [None] * 4

        def run(k):
            emp = run_campaign(cfg)
            runs[k] = (emp.ccp_samples.tobytes(), emp.redraws)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert runs == [(lone.ccp_samples.tobytes(), lone.redraws)] * 4

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_one_block_runs_on_the_caller(self, mode, monkeypatch):
        # Every block of a campaign, one or eight, runs on the calling thread
        # and no thread is started.
        draw = sim.draw_ppp
        threads = set()

        def record(*args):
            threads.add((threading.get_ident(), threading.active_count()))
            return draw(*args)

        monkeypatch.setattr(sim, "draw_ppp", record)
        before = threading.active_count()
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        for total in (10, 8 * BLOCK_SIZE):
            run_campaign(SimConfig(params=p, num_realizations=total, fading_mode=mode,
                                   num_channel_draws=20, rng_seed=3))
        assert threads == {(threading.get_ident(), before)}

    def test_sampled_part_exception_is_raised(self, monkeypatch):
        # The kernel hands the binomial thinning of block 2 of five (the last
        # one partial) a CCP above 1, so the sampled part of that block raises
        # and no later block runs.
        block = 2
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=4 * BLOCK_SIZE + 37,
                        fading_mode="sampled", num_channel_draws=20, rng_seed=2)
        kernel = sim._log_inv_ccp
        calls = []

        def corrupt(arrivals, params, edge):
            log_inv = kernel(arrivals, params, edge)
            if len(calls) == block:
                log_inv[0] = -1.0
            calls.append(arrivals.shape[0])
            return log_inv

        monkeypatch.setattr(sim, "_log_inv_ccp", corrupt)
        with pytest.raises(ValueError, match="p > 1"):
            run_campaign(cfg)
        assert len(calls) == block + 1
        # The analytic campaign runs every block through and only its result
        # check rejects the sample.
        calls.clear()
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            run_campaign(dataclasses.replace(cfg, fading_mode="analytic"))
        assert calls == [BLOCK_SIZE] * 4 + [37]

    def test_edge_effects_negligible_at_500m(self, paper_params):
        base = run_campaign(
            SimConfig(params=paper_params, num_realizations=2000, rng_seed=29,
                      region_radius=500.0)
        )
        wide = run_campaign(
            SimConfig(params=paper_params, num_realizations=2000, rng_seed=29,
                      region_radius=1000.0)
        )
        se = float(np.std(base.ccp_samples, ddof=1)) / math.sqrt(2000.0)
        assert abs(float(np.mean(base.ccp_samples)) - float(np.mean(wide.ccp_samples))) <= 2.0 * se

    def test_independent_seeds_ks_consistent(self, paper_params):
        a = run_campaign(SimConfig(params=paper_params, num_realizations=5000, rng_seed=101))
        b = run_campaign(SimConfig(params=paper_params, num_realizations=5000, rng_seed=202))
        d = float(ks_2samp(a.ccp_samples, b.ccp_samples).statistic)
        crit_99 = 1.628 * math.sqrt(2.0 / 5000.0)
        assert d < crit_99


class TestFarField:
    # Paired against the full disk: oracles.disk_arrivals continues each
    # campaign row's arrivals past its NEAREST_BS nearest BSs until the edge,
    # so both see the same nearest BSs.  At lambda 1e-4 the disk holds about
    # 79 BSs, and the far field is about half of them.
    REALIZATIONS = 20_000
    # E[C_full^n] - E[C_K^n] >= 0 is the far field's Jensen gap.  Over these
    # cases it is at most 1.2e-3 of mu_n (gamma 2.05, 0 dB) where the paired
    # standard error is small; at 40 dB and gamma <= 2.5 a few realizations
    # carry the moments and the standard error dominates.
    JENSEN_MARGIN = 2e-3

    @pytest.mark.parametrize("theta_db", [-20.0, 0.0, 40.0])
    @pytest.mark.parametrize("gamma", [2.05, 2.5, 5.0])
    def test_campaign_is_the_mean_of_the_full_disk(self, gamma, theta_db):
        p = SystemParams(1e-4, gamma, 10.0 ** (theta_db / 10.0), 1.0, 1e-10)
        n = self.REALIZATIONS
        cfg = SimConfig(params=p, num_realizations=n, rng_seed=3)
        nearest = run_campaign(cfg).ccp_samples
        full = np.concatenate([
            disk_ccp(disk_arrivals(cfg, min(BLOCK_SIZE, n - first),
                                   np.random.default_rng([cfg.rng_seed, block])), cfg)
            for block, first in enumerate(range(0, n, BLOCK_SIZE))
        ])
        powers = np.arange(1, 11)[:, None]
        diff = full**powers - nearest**powers
        gap = diff.mean(axis=1)
        se = diff.std(axis=1, ddof=1) / math.sqrt(n)
        mu = np.mean(full**powers, axis=1)
        # E[C_full | nearest BSs] = C_K: the paired mean difference is 0.
        assert abs(gap[0]) <= 3.0 * se[0]
        # mu_2..mu_10: the gap is nonnegative and at most the margin, each
        # up to 3 paired standard errors.
        assert np.all(gap[1:] >= -3.0 * se[1:])
        assert np.all(gap[1:] <= self.JENSEN_MARGIN * mu[1:] + 3.0 * se[1:])


class TestPlaneMoments:
    # A plane campaign (R = inf) samples the law the package's moments
    # describe: its mean of C is exact, and its means of C^2 and C^3 lose
    # only the far field's Jensen gap.  The 500 m disk reads mu_1 +53
    # standard errors high at gamma 2.5 and 0 dB, and +132 at gamma 2.2.
    @pytest.mark.parametrize("gamma, theta_db", [(2.2, 0.0), (2.5, 0.0), (3.0, 0.0),
                                                 (3.0, 10.0), (3.5, 0.0)])
    def test_campaign_moments_are_the_planes(self, gamma, theta_db):
        p = SystemParams(1e-3, gamma, 10.0 ** (theta_db / 10.0), 1.0, 1e-13)
        n = 200_000
        samples = run_campaign(SimConfig(params=p, num_realizations=n, region_radius=math.inf,
                                         rng_seed=7)).ccp_samples
        powers = samples ** np.arange(1, 4)[:, None]
        se = powers.std(axis=1, ddof=1) / math.sqrt(n)
        mu = np.array(moment_sequence(p, 3).values[1:])
        margin = TestFarField.JENSEN_MARGIN * mu * np.array([0.0, 1.0, 1.0])
        assert np.all(np.abs(powers.mean(axis=1) - mu) <= 4.0 * se + margin)


class TestReconstructionInDkwBand:
    # With probability 1 - a, the empirical CDF of n samples is within
    # sqrt(ln(2/a) / (2n)) of the true CDF everywhere (Dvoretzky-Kiefer-
    # Wolfowitz): 8.5e-3 at n = 100,000 and a = 1e-6.  The order-10
    # Fourier-Jacobi series is itself off the true CDF by its truncation
    # error, up to 4.8e-3 at these gammas against the exact noise-free law,
    # so the bound adds a margin of 5e-3.  The interval keeps clear of the
    # endpoint singularities, where the truncation error is larger.  Below
    # gamma 4 the 500 m disk biases the campaign away from the plane's law
    # (by 0.081 at gamma 2.5 and 0 dB), so those cases run on the plane.
    N = 100_000
    BAND = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * N))
    TRUNCATION_MARGIN = 5e-3

    def max_gap(self, gamma: float, theta_db: float, radius: float) -> float:
        """max |F_FJ - F_emp| on the interval, F_emp from a campaign on `radius`."""
        p = SystemParams(1e-3, gamma, 10.0 ** (theta_db / 10.0), 1.0, 1e-10)
        xs = np.linspace(0.05, 0.95, 181)
        cdf = jacobi.eval_cdf(jacobi.reconstruct(moment_sequence(p, 10), order=10), xs)
        samples = np.sort(run_campaign(SimConfig(params=p, num_realizations=self.N,
                                                 region_radius=radius,
                                                 rng_seed=0)).ccp_samples)
        empirical = np.searchsorted(samples, xs, side="right") / self.N
        return float(np.max(np.abs(cdf - empirical)))

    @pytest.mark.parametrize("gamma, theta_db", [(4.0, 0.0), (5.0, 0.0), (4.0, 10.0),
                                                 (5.0, -10.0)])
    def test_order_10_cdf_within_the_band(self, gamma, theta_db):
        assert self.max_gap(gamma, theta_db, 500.0) <= self.BAND + self.TRUNCATION_MARGIN

    @pytest.mark.parametrize("gamma, theta_db", [(2.5, 0.0), (3.0, 0.0), (3.0, 10.0)])
    def test_order_10_cdf_of_the_plane_within_the_band(self, gamma, theta_db):
        assert self.max_gap(gamma, theta_db, math.inf) <= self.BAND + self.TRUNCATION_MARGIN


class TestEmpiricalStatistics:
    def test_all_ones(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=3)
        emp = EmpiricalMeta(ccp_samples=np.ones(3), config=cfg)
        seq = empirical_moments(emp.ccp_samples, 4)
        assert seq.method == METHOD_EMPIRICAL
        assert all(v == 1.0 for v in seq.values)

    def test_all_zeros(self):
        seq = empirical_moments(np.zeros(2), 2)
        assert seq.values == (1.0, 0.0, 0.0)

    def test_negative_max_n_rejected(self):
        with pytest.raises(ValueError, match="max_n must be nonnegative, got -1"):
            empirical_moments(np.array([0.5]), -1)

    def test_underflowing_samples(self):
        # c^2 of every sample underflows, so the sample means from mu_2 on are 0.0.
        seq = empirical_moments(np.array([1e-200, 3e-200, 0.0]), 3)
        assert seq[1] == pytest.approx(4e-200 / 3.0)
        assert seq.values[2:] == (0.0, 0.0)

    def test_moments_are_the_means_of_the_powers(self, paper_params):
        # c^n is computed only where it can be nonzero, yet every float is
        # mean(c**n)'s: on samples whose c^n spans the band [2^-1080, 2^-1022]
        # and the bound's neighbours for each n, with 0.0, the smallest
        # subnormal and ordinary CCPs; on each n's band alone; on 0.0 and
        # 5e-324 alone; and on two campaigns to n = 20, the reference
        # scenario and gamma 2.05 at 20 dB, where c^10 of most samples is
        # below the normal range.
        n_max = 12
        bands = [np.concatenate([2.0 ** (np.linspace(-1084.0, -1018.0, 23) / n),
                                 np.nextafter(2.0 ** (-1080.0 / n), [0.0, 1.0])])
                 for n in range(2, n_max + 1)]
        rng = np.random.default_rng(35)
        everything = np.concatenate([*bands, [0.0, 5e-324, 1.0], rng.random(50),
                                     rng.random(50) ** 400])
        for samples in [everything, *bands, np.array([0.0, 5e-324])]:
            expected = tuple(float(np.mean(samples**n)) for n in range(n_max + 1))
            assert empirical_moments(samples, n_max).values == expected
        assert empirical_moments(np.array([5e-324]), 3).values == (1.0, 5e-324, 0.0, 0.0)
        steep = SystemParams(lambda_bs=1e-3, gamma_pl=2.05, theta=100.0, power=1.0,
                             noise=1e-12)
        for params in (paper_params, steep):
            samples = run_campaign(SimConfig(params=params, num_realizations=5000,
                                             rng_seed=7)).ccp_samples
            expected = tuple(float(np.mean(samples**n)) for n in range(21))
            assert empirical_moments(samples, 20).values == expected
        assert np.mean(samples**10 < 2.0**-1022) > 0.5

    @pytest.mark.parametrize("samples", [np.empty(0), np.empty((0, 3))])
    @pytest.mark.parametrize("statistic", [
        pytest.param(lambda c: empirical_moments(c, 0), id="0"),
        pytest.param(lambda c: empirical_moments(c, 3), id="3"),
        pytest.param(lambda c: empirical_reliability(c, 0.5), id="reliability"),
    ])
    def test_empty_samples_rejected(self, samples, statistic):
        with pytest.raises(ValueError, match="need at least one sample"):
            statistic(samples)

    def test_nan_sample_makes_a_nan_mean(self):
        # As mean(c**n) is NaN, so is mu_1, which the sequence rejects.
        with pytest.raises(ValueError, match="mu_1=nan"):
            empirical_moments(np.array([0.5, math.nan, 1e-300]), 4)

    def test_reliability_is_the_mean_of_the_comparisons(self):
        # One sort and a search give the comparison matrix's mean, as floats:
        # tied samples, the ties themselves and -0.0 as x, NaN x, x outside
        # [0, 1], and 2-D x.
        rng = np.random.default_rng(36)
        samples = rng.integers(0, 5, 203) / 4.0
        grids = [np.array([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]), np.array([np.nan, 0.3, np.nan]),
                 np.array([-1.0, 2.0, -np.inf, np.inf, 5e-324, 1.0 - 2.0**-53]),
                 rng.random((3, 4)), np.linspace(0.0, 1.0, 101)]
        for xs in grids:
            got = empirical_reliability(samples, xs)
            expected = np.mean(samples > xs[..., None], axis=-1)
            assert got.shape == xs.shape and np.array_equal(got, expected)
        for x in (0.5, math.nan, -1.0, 2.0):
            got = empirical_reliability(samples, x)
            assert type(got) is float and got == float(np.mean(samples > x))

    def test_hand_arithmetic(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=2)
        emp = EmpiricalMeta(ccp_samples=np.array([0.2, 0.8]), config=cfg)
        seq = empirical_moments(emp.ccp_samples, 2)
        assert seq[1] == pytest.approx(0.5)
        assert seq[2] == pytest.approx(0.34)
        assert empirical_reliability(emp.ccp_samples, 0.5) == 0.5
        assert empirical_reliability(emp.ccp_samples, 0.0) == 1.0
        assert empirical_reliability(emp.ccp_samples, 1.0) == 0.0

    def test_reliability_strictness(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=2)
        emp = EmpiricalMeta(ccp_samples=np.array([0.5, 0.7]), config=cfg)
        assert empirical_reliability(emp.ccp_samples, 0.5) == 0.5

    def test_vectorized_reliability(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=4)
        emp = EmpiricalMeta(ccp_samples=np.array([0.1, 0.4, 0.6, 0.9]), config=cfg)
        grid = empirical_reliability(emp.ccp_samples, np.array([0.0, 0.5, 0.95]))
        assert grid == pytest.approx([1.0, 0.5, 0.0])


class TestSerialization:
    def test_csv_round_trip(self, paper_params, tmp_path):
        emp = run_campaign(SimConfig(params=paper_params, num_realizations=100, rng_seed=8))
        path = tmp_path / "samples.csv"
        write_samples_csv(emp.ccp_samples, path)
        back = read_samples_csv(path)
        assert np.array_equal(back, emp.ccp_samples)

    def test_csv_bytes_are_csv_writers(self, tmp_path):
        samples = np.array([0.0, 1.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 1.0 - 2.0**-53])
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["ccp"])
        for value in samples:
            writer.writerow([repr(float(value))])
        assert path.read_bytes() == reference.getvalue().encode()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n0.5\n")
        with pytest.raises(ValueError):
            read_samples_csv(path)

    @pytest.mark.parametrize(
        "content", ["ccp\n", "ccp\n0.5\n1.5\n", "ccp\n-0.1\n", "ccp\n0.5\nnan\n0.7\n"]
    )
    def test_samples_checked(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError):
            read_samples_csv(path)

    def test_random_doubles_round_trip_bit_for_bit(self, tmp_path):
        # Uniform bit patterns: every exponent, subnormals and -0.0 included.
        bits = np.random.default_rng(11).integers(0, 2**64, size=200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        path = tmp_path / "doubles.csv"
        write_samples_csv(values, path)
        back = sim.read_column_csv(path, "ccp", "no ccp header")
        assert back.dtype == np.float64
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_tiny_ccps_round_trip_bit_for_bit(self, tmp_path):
        # `simulate --theta-db 60 --gamma 2.05`: every CCP is below 1e-140,
        # and those that are not 0.0 reach down into the subnormals.
        p = SystemParams(1e-3, 2.05, 1e6, 1.0, 1e-10)
        samples = run_campaign(SimConfig(params=p, num_realizations=5000)).ccp_samples
        assert 0.0 < samples[samples > 0.0].min() < sys.float_info.min
        assert samples.max() < 1e-140
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        assert read_samples_csv(path).tobytes() == samples.tobytes()

    @pytest.mark.parametrize("field", ["0.5#", "#0.5", "0.5 # note"])
    def test_hash_is_no_comment(self, tmp_path, field):
        path = tmp_path / "samples.csv"
        path.write_text(f"ccp\n0.25\n{field}\n")
        with pytest.raises(ValueError) as info:
            read_samples_csv(path)
        assert str(info.value) == (
            f"{path}: could not convert string '{field}' to float64 at row 1, column 1.")

    def test_read_memory_is_about_the_array(self, tmp_path):
        # A list of 200,000 Python floats and its copy into an array peaked
        # at about 5 times the array's 1.6 MB.
        samples = np.random.default_rng(12).random(200_000)
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        tracemalloc.start()
        try:
            back = read_samples_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, samples)
        assert peak < 3 * samples.nbytes
