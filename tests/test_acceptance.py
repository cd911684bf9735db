"""Acceptance gate: the eight release criteria, one test each.

Every test prints a single [criterion N] PASS/FAIL line (run with -s to see
them on success) and asserts both the stated tolerance and the runtime
budget.  Monte Carlo criteria follow a fixed-seed protocol so the whole gate
is deterministic.
"""
import math
import time

import numpy as np
from scipy.integrate import quad

from metadist import jacobi, moments, scaling, sim
from metadist.specfun import reg_inc_beta

from oracles import (
    beta_moments, disk_distances, gauss_jacobi_integral, jacobi_poly, moment_t_mpmath,
    one_plus_rho_scipy,
)

PAPER = moments.SystemParams(lambda_bs=1e-3, gamma_pl=5.0, theta=1.0, power=1.0,
                             noise=1e-10)

# Matched-type basis (negative alpha, like real reconstructions) plus the
# Legendre case required explicitly and two asymmetric positive-weight pairs.
ORTHO_BASES = [(0.0, 0.0), (-0.4354, 0.1118), (0.3, 1.7), (2.0, 0.5)]


def _finish(num: int, name: str, t0: float, budget: float, ok: bool, detail: str):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status} {name} ({elapsed:.1f}s/{budget:.0f}s): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_1_moment_exactness_limits():
    t0 = time.perf_counter()
    worst_zero = 0.0
    for g, lam, p, s2 in [(3.0, 1e-3, 1.0, 1e-10), (4.0, 1e-2, 0.5, 0.0),
                          (5.0, 1e-4, 2.0, 1e-8)]:
        params = moments.SystemParams(lam, g, 0.0, p, s2)
        worst_zero = max(worst_zero, abs(moments.moment_exact(params, 1) - 1.0),
                         abs(moments.moment_approx(params, 1) - 1.0))
    # A noise-free moment is 1 / (1 + rho_n), and 1 + rho_n is the package's
    # own 2F1 series, so the reference is scipy's (one_plus_rho_scipy; theta
    # <= 10 dB, where the two agree to about 1e-15).
    worst_noiseless = 0.0
    for g in (3.0, 4.0, 5.0):
        for theta in (0.1, 1.0, 10.0):
            params = moments.SystemParams(1e-3, g, theta, 1.0, 0.0)
            for n in range(1, 11):
                closed = 1.0 / one_plus_rho_scipy(params, n)
                worst_noiseless = max(
                    worst_noiseless,
                    abs(moments.moment_exact(params, n) - closed),
                    abs(moments.moment_approx(params, n) - closed),
                )
    ok = worst_zero <= 1e-10 and worst_noiseless <= 1e-9
    _finish(1, "moment exactness limits", t0, 5.0, ok,
            f"theta=0 dev {worst_zero:.2e} (<=1e-10), "
            f"sigma2=0 dev {worst_noiseless:.2e} (<=1e-9)")


def test_criterion_2_error_bound_soundness():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for g in (2.5, 3.0, 4.0, 5.0):
        for a in (1e-3, 1.0, 1e3):
            for b in (1e-3, 1.0, 1e3):
                k = a + g * b ** (2.0 / g) / (2.0 * math.gamma(2.0 / g))
                tol = 1e-8 * max(1.0, 1.0 / k)
                i_val = quad(lambda z: math.exp(-(a * z + b * z ** (g / 2.0))), 0.0, np.inf,
                             epsabs=tol, epsrel=0.0, limit=200)[0]
                diff = abs(i_val - 1.0 / k)
                bound = moments.approx_error_bound(a, b, g)
                worst_ratio = max(worst_ratio, diff / bound)
    decay_ok = True
    for g in (2.5, 3.0, 4.0, 5.0):
        bounds = [moments.approx_error_bound(a, 1.0, g) for a in (1e3, 1e6, 1e9)]
        decay_ok = decay_ok and bounds[0] > bounds[1] > bounds[2] and bounds[2] < 1e-12
    ok = worst_ratio <= 1.0 and decay_ok
    _finish(2, "error-bound soundness", t0, 30.0, ok,
            f"worst |I-1/K|/bound = {worst_ratio:.3f} (<=1), "
            f"bound monotone to 0 over A=1e3..1e9: {decay_ok}")


def test_criterion_3_jacobi_machinery():
    t0 = time.perf_counter()
    worst_orth = 0.0
    for al, be in ORTHO_BASES:
        for m in range(13):
            for n in range(m, 13):
                f = lambda x: jacobi_poly(al, be, m, x) * jacobi_poly(al, be, n, x)
                val = gauss_jacobi_integral(f, al, be)
                expected = jacobi.norm_h(al, be, n) if m == n else 0.0
                worst_orth = max(worst_orth, abs(val - expected))
    worst_legendre = max(
        abs(jacobi.norm_h(0.0, 0.0, n) - 1.0 / (2.0 * n + 1.0)) for n in range(13)
    )
    worst_rodrigues = 0.0
    for al, be in ORTHO_BASES:
        for n in range(1, 9):
            for x in (0.2, 0.5, 0.8):
                f = lambda t: (1.0 - t) ** al * jacobi_poly(al, be, n, t)
                lhs = quad(f, 0.0, x, weight="alg", wvar=(be, 0.0), epsabs=1e-10, epsrel=0.0)[0]
                rhs = (
                    -(1.0 / n)
                    * (1.0 - x) ** (al + 1.0)
                    * x ** (be + 1.0)
                    * jacobi_poly(al + 1.0, be + 1.0, n - 1, x)
                )
                worst_rodrigues = max(worst_rodrigues, abs(lhs - rhs))
    ok = worst_orth <= 1e-8 and worst_legendre <= 1e-12 and worst_rodrigues <= 1e-8
    _finish(3, "Jacobi machinery", t0, 10.0, ok,
            f"orthogonality dev {worst_orth:.2e} (<=1e-8), "
            f"Legendre h_n dev {worst_legendre:.2e} (<=1e-12), "
            f"Rodrigues dev {worst_rodrigues:.2e} (<=1e-8)")


def test_criterion_4_beta_round_trip():
    t0 = time.perf_counter()
    seq = moments.MomentSequence(beta_moments(2.7, 1.3, 10), moments.METHOD_EMPIRICAL)
    dist = jacobi.reconstruct(seq, order=10)
    worst_coeff = max(abs(c) for c in dist.coefficients[1:])
    xs = np.linspace(0.0, 1.0, 101)
    cdf = jacobi.eval_cdf(dist, xs)
    ref = np.array([reg_inc_beta(float(x), 2.7, 1.3) for x in xs])
    worst_cdf = float(np.max(np.abs(cdf - ref)))
    ok = worst_coeff < 1e-8 and worst_cdf <= 1e-6
    _finish(4, "beta round trip", t0, 1.0, ok,
            f"max |a_n| = {worst_coeff:.2e} (<1e-8), "
            f"cdf dev {worst_cdf:.2e} (<=1e-6)")


def test_criterion_5_reliability_curve_reproduction():
    t0 = time.perf_counter()
    seq = moments.moment_sequence(PAPER, 10)
    dist = jacobi.reconstruct(seq, order=10)
    basis = dist.basis
    emp = sim.run_campaign(sim.SimConfig(params=PAPER, num_realizations=100_000,
                                         rng_seed=42))
    xs = np.linspace(0.05, 0.95, 19)
    emp_rel = sim.empirical_reliability(emp.ccp_samples, xs)
    fj_rel = np.array([float(jacobi.meta_reliability(dist, float(x))) for x in xs])
    beta_rel = np.array(
        [1.0 - reg_inc_beta(float(x), basis.beta + 1.0, basis.alpha + 1.0) for x in xs]
    )
    relerr_fj = np.abs(fj_rel - emp_rel) / emp_rel
    relerr_beta = np.abs(beta_rel - emp_rel) / emp_rel
    med_fj = float(np.median(relerr_fj))
    med_beta = float(np.median(relerr_beta))
    frac_small = float(np.mean(relerr_fj < 0.02))
    ok = med_fj < med_beta and frac_small >= 0.8
    _finish(5, "reliability curve vs Monte Carlo", t0, 120.0, ok,
            f"median relerr FJ {med_fj:.4f} < beta {med_beta:.4f}, "
            f"{frac_small:.0%} of grid below 0.02 (>=80%)")


def test_criterion_6_moment_approximation_sweep():
    t0 = time.perf_counter()
    thetas_db = np.arange(-10.0, 21.0, 1.0)
    errors = {1: [], 2: []}
    means = []
    noiseless_ok = True
    # The exact moments and the noise-free 1 / (1 + rho_n) come from scipy's
    # 2F1 and mpmath (oracles), so only the closed form is the package's.
    for tdb in thetas_db:
        theta = 10.0 ** (tdb / 10.0)
        params = moments.SystemParams(1e-3, 3.0, theta, 1.0, 1e-10)
        exact = {n: moment_t_mpmath(params, n) for n in (1, 2)}
        means.append(exact[1])
        noiseless = 1.0 / one_plus_rho_scipy(params, 1)
        noiseless_ok = noiseless_ok and noiseless >= exact[1] - 1e-12
        for n in (1, 2):
            errors[n].append(abs(exact[n] - moments.moment_approx(params, n)))
    knee_db = float(thetas_db[int(np.argmin(np.abs(np.array(means) - 0.5)))])
    peaks_ok = True
    details = []
    for n in (1, 2):
        peak_db = float(thetas_db[int(np.argmax(errors[n]))])
        peaks_ok = peaks_ok and abs(peak_db - knee_db) <= 10.0
        details.append(f"n={n} peak at {peak_db:+.0f} dB")
    ok = peaks_ok and noiseless_ok
    _finish(6, "approximation error peaks at the knee", t0, 30.0, ok,
            f"knee at {knee_db:+.0f} dB, {', '.join(details)} (within 10 dB), "
            f"noiseless mean bounds noisy mean: {noiseless_ok}")


def test_criterion_7_power_scaling_law():
    t0 = time.perf_counter()
    qos_sweep = scaling.QosSpec(x_rel=0.2, epsilon=0.5)
    worst_slope = 0.0
    for g in (3.0, 4.0, 5.0):
        lams = np.logspace(-4, -2, 5)
        powers = [
            scaling.min_power(moments.SystemParams(float(lam), g, 0.1, 1.0, 1e-10),
                              qos_sweep)
            for lam in lams
        ]
        slope = float(np.polyfit(np.log(lams), np.log(powers), 1)[0])
        worst_slope = max(worst_slope, abs(slope + g / 2.0))
    qos = scaling.QosSpec(x_rel=0.3, epsilon=0.7)
    p_min = scaling.min_power(PAPER, qos)
    tuned = moments.SystemParams(1e-3, 5.0, 1.0, p_min, 1e-10)
    mu2 = moments.moment_approx(tuned, 2)
    target = 1.0 - qos.epsilon + qos.x_rel**2
    inversion_dev = abs(mu2 - target) / target
    emp = sim.run_campaign(sim.SimConfig(params=tuned, num_realizations=2000,
                                         rng_seed=7))
    reliability = float(sim.empirical_reliability(emp.ccp_samples, qos.x_rel))
    ok = worst_slope <= 1e-6 and inversion_dev <= 1e-9 and reliability >= 1.0 - qos.epsilon
    _finish(7, "power scaling law", t0, 120.0, ok,
            f"slope dev {worst_slope:.2e} (<=1e-6), "
            f"mu2 inversion dev {inversion_dev:.2e} (<=1e-9), "
            f"empirical P(C>x) = {reliability:.3f} >= {1.0 - qos.epsilon:.2f}")


def test_criterion_8_simulator_self_consistency():
    t0 = time.perf_counter()
    cfg = sim.SimConfig(params=PAPER, num_realizations=5000, rng_seed=42)
    emp = sim.run_campaign(cfg)
    seq = sim.empirical_moments(emp.ccp_samples, 2)
    devs = []
    for n in (1, 2):
        exact = moments.moment_exact(PAPER, n)
        se = float(np.std(emp.ccp_samples**n, ddof=1)) / math.sqrt(float(len(emp.ccp_samples)))
        devs.append(abs(seq[n] - exact) / se)
    moments_ok = all(d <= 3.0 for d in devs)
    violations = 0
    for i in range(100):
        rng = np.random.default_rng([cfg.rng_seed, i, 0])
        points = disk_distances(cfg, rng)
        exact_c = sim.ccp_analytic(points, PAPER)
        sampled_c = sim.ccp_sampled(points, PAPER, 700, rng)
        se = math.sqrt(exact_c * (1.0 - exact_c) / 700.0)
        if abs(sampled_c - exact_c) > 4.0 * se:
            violations += 1
    ok = moments_ok and violations == 0
    _finish(8, "simulator self-consistency", t0, 300.0, ok,
            f"mu1 dev {devs[0]:.2f} SE, mu2 dev {devs[1]:.2f} SE (<=3), "
            f"sampled-vs-analytic 4-SE violations {violations}/100")
