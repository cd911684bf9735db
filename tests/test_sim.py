"""Point-process simulator: geometry, per-realization coverage, campaign
determinism, and statistical agreement with the analytic moments."""
import csv
import dataclasses
import io
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.stats import binom, chisquare, ks_2samp, kstest

from metadist.moments import METHOD_EMPIRICAL, SystemParams, moment_exact
from metadist import sim
from metadist.sim import (
    BLOCK_SIZE,
    MIN_NONEMPTY_PROB,
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

from oracles import ccp_analytic_reference, ccp_sampled_reference


def one_realization(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """BS distances in m of a one-realization block."""
    return cfg.region_radius * np.sqrt(draw_ppp(cfg, 1, rng)[0])


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
        with pytest.raises(ValueError, match="finite"):
            SimConfig(params=paper_params, num_realizations=1, region_radius=math.inf)

    def test_almost_surely_empty_disk_rejected(self):
        # The floor is on P(disk nonempty) = 1 - exp(-lambda pi R^2).
        def config(lam, radius=500.0):
            p = SystemParams(lam, 5.0, 1.0, 1.0, 0.0)
            return SimConfig(params=p, num_realizations=1, region_radius=radius)

        per_lambda = math.pi * 500.0**2
        config(2.0 * MIN_NONEMPTY_PROB / per_lambda)
        for lam in (0.5 * MIN_NONEMPTY_PROB / per_lambda, 1e-12, 1e-15):
            with pytest.raises(ValueError, match="probability"):
                config(lam)
        config(1e-12, radius=1e4)

    def test_empirical_meta_validation(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=2)
        with pytest.raises(ValueError):
            EmpiricalMeta(ccp_samples=np.array([0.5]), config=cfg)
        with pytest.raises(ValueError):
            EmpiricalMeta(ccp_samples=np.array([0.5, 1.5]), config=cfg)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            EmpiricalMeta(ccp_samples=np.array([0.5, math.nan]), config=cfg)


class TestDrawPpp:
    def test_mean_count(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=1, rng_seed=0)
        u, starts, redraws = draw_ppp(cfg, 1000, np.random.default_rng(0))
        counts = np.diff(starts, append=u.size)
        assert starts[0] == 0 and redraws == 0
        mean = 1e-3 * math.pi * 500.0**2
        sigma = math.sqrt(mean / 1000.0)
        assert abs(np.mean(counts) - mean) <= 3.0 * sigma

    def test_points_inside_disk(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=1)
        u, starts, redraws = draw_ppp(cfg, 1, np.random.default_rng(3))
        assert starts.tolist() == [0] and redraws == 0
        r = cfg.region_radius * np.sqrt(u)
        assert r.ndim == 1 and r.size > 0
        assert np.all((r >= 0.0) & (r <= cfg.region_radius))

    def test_radial_law(self, paper_params):
        # Uniform positions on the disk: P(r <= t) = (t/R)^2.
        cfg = SimConfig(params=paper_params, num_realizations=1)
        r = np.concatenate([one_realization(cfg, np.random.default_rng([0, i])) for i in range(20)])
        radius = cfg.region_radius
        assert r.size > 10_000
        assert kstest(r, lambda t: np.clip(t / radius, 0.0, 1.0) ** 2).pvalue > 0.01

    def test_vanishing_density_gives_empty(self):
        # The disk is empty with probability 0.9992: the block redraws its
        # empty realizations until each holds a BS, and counts the redraws.
        p = SystemParams(1e-9, 5.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1)
        u, starts, redraws = draw_ppp(cfg, 20, np.random.default_rng(0))
        assert np.all(np.diff(starts, append=u.size) > 0)
        assert redraws >= 19

    def test_deterministic_under_seed(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=1)
        a = draw_ppp(cfg, 3, np.random.default_rng(11))
        b = draw_ppp(cfg, 3, np.random.default_rng(11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


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
        r = one_realization(cfg, np.random.default_rng(1))
        assert len(r) > 90_000
        val = ccp_analytic(r, p)
        assert 0.0 < val <= 1.0

    def test_empty_realization_rejected(self, paper_params):
        with pytest.raises(ValueError):
            ccp_analytic(np.empty(0), paper_params)

    @pytest.mark.parametrize("theta", [1e-2, 1.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("gamma", [2.5, 4.0, 6.0])
    def test_block_kernel_matches_reference(self, theta, gamma):
        # Five realizations of 1..30 BSs in one block, on a 50 m disk with
        # faint noise, so that no CCP underflows even at theta = 1e6.
        p = SystemParams(1e-3, gamma, theta, 1.0, 1e-16)
        radius = 50.0
        sizes = np.array([1, 2, 5, 12, 30])
        starts = np.cumsum(sizes) - sizes
        u = np.random.default_rng([4, int(gamma * 10), int(math.log10(theta) + 2)]).uniform(
            size=int(sizes.sum())
        )
        got = sim._ccp_rows(u, starts, p, radius)
        rows = np.split(radius * np.sqrt(u), starts[1:])
        expected = np.array([ccp_analytic_reference(r, p) for r in rows])
        assert np.all(expected > 0.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert [ccp_analytic(r, p) for r in rows] == pytest.approx(expected, rel=1e-12)

    def test_station_on_the_user(self):
        # r0 = 0: the serving ratio is 0/0, read as 1; interferers see ratio 0.
        p = SystemParams(1e-3, 4.0, 1.0, 1.0, 1e-10)
        assert ccp_analytic(np.array([0.0, 30.0, 80.0]), p) == 1.0


class TestCcpSampled:
    def test_zero_threshold(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        r = np.array([10.0, 30.0])
        assert ccp_sampled(r, p, 100, np.random.default_rng(0)) == 1.0

    def test_binomial_concentration_vs_analytic(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=1, rng_seed=42)
        violations = 0
        for i in range(100):
            rng = np.random.default_rng([cfg.rng_seed, i, 0])
            r = one_realization(cfg, rng)
            exact = ccp_analytic(r, paper_params)
            sampled = ccp_sampled(r, paper_params, 700, rng)
            se = math.sqrt(exact * (1.0 - exact) / 700.0)
            if abs(sampled - exact) > 4.0 * se:
                violations += 1
        assert violations == 0

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_matches_explicit_interference_sum(self, theta):
        p = SystemParams(1e-3, 5.0, theta, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1, rng_seed=42)
        for i in range(4):
            r = one_realization(cfg, np.random.default_rng([cfg.rng_seed, i, 0]))
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

    def test_single_station_noise_only(self):
        # At r = 100 m the mean SNR is 100^-5 / 1e-10 = 1, so about e^-1 of
        # the draws clear theta = 1.
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)
        r = np.array([100.0])
        got = ccp_sampled(r, p, 500, np.random.default_rng(8))
        assert got == ccp_sampled_reference(r, p, 500, np.random.default_rng(8))
        assert 0.25 < got < 0.5

    def test_single_station_noise_free(self):
        p = SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)
        r = np.array([100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ccp_sampled(r, p, 500, np.random.default_rng(8))
        assert got == 1.0
        assert ccp_sampled_reference(r, p, 500, np.random.default_rng(8)) == 1.0

    def test_law_is_binomial_of_the_analytic_ccp(self):
        # Given the geometry a Rayleigh draw is covered with probability
        # exactly the analytic CCP, so M draws cover Binomial(M, CCP) of them.
        # The first two geometries of seeds (7, i) with a CCP in 0.2-0.8;
        # tail bins are pooled until each expects at least five counts.
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=1)
        draws, reps = 50, 2000
        geometries = (one_realization(cfg, np.random.default_rng([7, i])) for i in range(20))
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

    def test_standard_error_budget(self):
        # se = sqrt(p(1-p)/700) is maximized at p = 1/2.
        assert math.sqrt(0.25 / 700.0) <= 0.019


class TestCampaign:
    def test_zero_threshold_all_ones(self):
        p = SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10)
        emp = run_campaign(SimConfig(params=p, num_realizations=40, rng_seed=3))
        assert np.all(emp.ccp_samples == 1.0)

    def test_deterministic(self, paper_params):
        cfg = SimConfig(params=paper_params, num_realizations=200, rng_seed=17)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert np.array_equal(a.ccp_samples, b.ccp_samples)

    def test_mean_matches_first_moment(self, paper_params):
        emp = run_campaign(SimConfig(params=paper_params, num_realizations=2000, rng_seed=5))
        mu1 = moment_exact(paper_params, 1, 1e-12)
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
        # Block b is seeded with (seed, b) and draws its counts, then its radii.
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=BLOCK_SIZE + 2, rng_seed=6)
        emp = run_campaign(cfg)
        mean = p.lambda_bs * math.pi * cfg.region_radius**2
        expected = []
        for block, size in enumerate((BLOCK_SIZE, 2)):
            rng = np.random.default_rng([cfg.rng_seed, block])
            counts = rng.poisson(mean, size=size)
            r = cfg.region_radius * np.sqrt(rng.uniform(size=int(counts.sum())))
            expected += [ccp_analytic_reference(x, p) for x in np.split(r, np.cumsum(counts)[:-1])]
        assert emp.redraws == 0
        assert emp.ccp_samples == pytest.approx(expected, rel=1e-12)

    def test_sampled_block_stream_layout(self, monkeypatch):
        # The sampled twin: the block's generator draws the same counts and
        # radii, then thins the analytic CCPs with one binomial call of M
        # draws each, on the same generator.
        p = SystemParams(1e-2, 4.0, 1.0, 1.0, 1e-10)
        draws = 20
        cfg = SimConfig(params=p, num_realizations=3, fading_mode="sampled",
                        num_channel_draws=draws, rng_seed=6)
        seen = self.spy_calls(monkeypatch, "draw_ppp")
        emp = run_campaign(cfg)
        analytic = run_campaign(SimConfig(params=p, num_realizations=3, rng_seed=6))
        rng = np.random.default_rng([cfg.rng_seed, 0])
        u, starts, redraws = draw_ppp(cfg, 3, rng)
        expected = rng.binomial(draws, analytic.ccp_samples) / draws
        assert redraws == emp.redraws == 0
        assert emp.ccp_samples.tolist() == expected.tolist()
        # The radii the sampled block saw are the analytic campaign's under
        # the same seed, bit for bit.
        (_, (u_sampled, _, _)), (_, (u_analytic, _, _)) = seen
        assert u_sampled.tobytes() == u_analytic.tobytes() == u.tobytes()

    # Three blocks, the last one partial, so every worker count splits them
    # differently: one worker takes all three, two share them, four are
    # capped at one worker per block.
    CONCURRENT_REALIZATIONS = 2 * BLOCK_SIZE + 37

    @staticmethod
    def force_workers(monkeypatch, workers):
        """Run campaigns on `workers` threads (fewer if there are fewer blocks)."""
        monkeypatch.setattr(sim, "_cpu_count", lambda: workers)
        monkeypatch.setattr(sim, "_MAX_WORKERS", workers)

    @staticmethod
    def spy_calls(monkeypatch, name):
        """Patch sim.<name> to record (args, result) of each call; returns the list."""
        inner = getattr(sim, name)
        calls = []

        def spy(*args):
            result = inner(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(sim, name, spy)
        return calls

    @staticmethod
    def spy_threads(monkeypatch, name, delay=0.0):
        """Patch sim.<name> to record the thread of each call; returns the set."""
        inner = getattr(sim, name)
        threads = set()

        def spy(*args):
            threads.add(threading.get_ident())
            time.sleep(delay)
            return inner(*args)

        monkeypatch.setattr(sim, name, spy)
        return threads

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_samples_independent_of_worker_count(self, mode, monkeypatch):
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=self.CONCURRENT_REALIZATIONS,
                        fading_mode=mode, num_channel_draws=20, rng_seed=11)
        # One worker is the calling thread; more are pool threads, at most
        # one per block.
        threads = self.spy_threads(monkeypatch, "draw_ppp")
        runs = {}
        # A short switch interval interleaves the worker threads often, so a
        # task writing outside its own samples would show as changed samples.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                self.force_workers(monkeypatch, workers)
                threads.clear()
                runs[workers] = run_campaign(cfg).ccp_samples
                if workers == 1:
                    assert threads == {threading.get_ident()}
                else:
                    assert threading.get_ident() not in threads
                    assert len(threads) <= min(workers, 3)
        finally:
            sys.setswitchinterval(interval)
        assert runs[1].tobytes() == runs[2].tobytes() == runs[4].tobytes()

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_one_block_runs_on_the_caller(self, mode, monkeypatch):
        # One block needs one worker whatever the CPU count, and one worker
        # is the calling thread.
        self.force_workers(monkeypatch, 4)
        threads = self.spy_threads(monkeypatch, "draw_ppp")
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        run_campaign(SimConfig(params=p, num_realizations=10, fading_mode=mode, rng_seed=3))
        assert threads == {threading.get_ident()}

    def test_worker_count_capped_on_many_cpus(self, monkeypatch):
        monkeypatch.setattr(sim, "_cpu_count", lambda: 16)
        # Every block waits a little, so an uncapped pool would have started
        # a thread for each of the eight blocks before any block finished.
        threads = self.spy_threads(monkeypatch, "draw_ppp", delay=0.01)
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        run_campaign(SimConfig(params=p, num_realizations=8 * BLOCK_SIZE, rng_seed=5))
        assert 1 <= len(threads) <= sim._MAX_WORKERS

    def test_redraws_summed_over_concurrent_blocks(self, monkeypatch):
        # About 92% of realizations are empty at first draw at this density.
        p = SystemParams(1e-7, 5.0, 1.0, 1.0, 0.0)
        cfg = SimConfig(params=p, num_realizations=self.CONCURRENT_REALIZATIONS, rng_seed=4)
        expected = sum(
            draw_ppp(cfg, min(BLOCK_SIZE, cfg.num_realizations - first),
                     np.random.default_rng([cfg.rng_seed, block]))[2]
            for block, first in enumerate(range(0, cfg.num_realizations, BLOCK_SIZE))
        )
        assert expected > 0
        runs = {}
        for workers in (1, 2, 4):
            self.force_workers(monkeypatch, workers)
            runs[workers] = run_campaign(cfg)
            assert runs[workers].redraws == expected
        assert runs[1].ccp_samples.tobytes() == runs[4].ccp_samples.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_block_exception_is_raised(self, workers, monkeypatch):
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        fresh_block_2 = np.random.default_rng([2, 2]).bit_generator.state
        draw_ppp_inner = sim.draw_ppp

        def failing(config, size, rng):
            if rng.bit_generator.state == fresh_block_2:
                raise RuntimeError("block 2 failed")
            return draw_ppp_inner(config, size, rng)

        monkeypatch.setattr(sim, "draw_ppp", failing)
        self.force_workers(monkeypatch, workers)
        for mode in ("analytic", "sampled"):
            cfg = SimConfig(params=p, num_realizations=self.CONCURRENT_REALIZATIONS,
                            fading_mode=mode, num_channel_draws=20, rng_seed=2)
            with pytest.raises(RuntimeError, match="block 2 failed"):
                run_campaign(cfg)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sampled_part_exception_is_raised(self, workers, monkeypatch):
        # Block 2 (the only one of 37 realizations) hands its binomial thinning
        # a CCP above 1, so only the sampled part of that block raises.
        p = SystemParams(1e-4, 4.0, 1.0, 1.0, 1e-10)
        cfg = SimConfig(params=p, num_realizations=self.CONCURRENT_REALIZATIONS,
                        fading_mode="sampled", num_channel_draws=20, rng_seed=2)
        last_size = self.CONCURRENT_REALIZATIONS - 2 * BLOCK_SIZE
        ccp_rows_inner = sim._ccp_rows

        def corrupt(u, starts, params, scale):
            ccp = ccp_rows_inner(u, starts, params, scale)
            if starts.size == last_size:
                ccp[0] = 2.0
            return ccp

        monkeypatch.setattr(sim, "_ccp_rows", corrupt)
        self.force_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match="p > 1"):
            run_campaign(cfg)
        # The analytic campaign runs every block through and only its result
        # check rejects the sample.
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            run_campaign(dataclasses.replace(cfg, fading_mode="analytic"))

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

    def test_underflowing_samples(self):
        # c^2 of every sample underflows, so the sample means from mu_2 on are 0.0.
        seq = empirical_moments(np.array([1e-200, 3e-200, 0.0]), 3)
        assert seq[1] == pytest.approx(4e-200 / 3.0)
        assert seq.values[2:] == (0.0, 0.0)

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
