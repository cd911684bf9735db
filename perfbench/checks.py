"""Correctness oracles for benchmark outputs, independent of metadist's math.

Every reference value comes from scipy: ``hyp2f1`` for 1 + rho_n, ``quad``
for the moment integrals, ``betainc`` and ``eval_jacobi`` for the CDF.  The
checks run after the timed phase and only read what an op returned or wrote.

Each ``check_*`` function returns a list of failure reasons, each tagged
``"<what>: <detail>"``; an empty list means the op's outputs are correct.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

from scenarios import Scenario

# The disk radius the simulator uses by default.
REGION_RADIUS_M = 500.0
MC_SIGMAS = 4.0
CDF_ATOL = 1e-9
SLOPE_ATOL = 1e-6
POWER_RTOL = 1e-8


def one_plus_rho(n: int, gamma_pl: float, theta: float) -> float:
    """1 + rho_n = 2F1(n, -2/g; 1 - 2/g; -theta)."""
    d = 2.0 / gamma_pl
    return float(special.hyp2f1(n, -d, 1.0 - d, -theta))


def moment(s: Scenario, n: int) -> float:
    """Infinite-plane mu_n = (1/(1+rho_n)) int_0^inf exp(-u - c u^(g/2)) du.

    The substitution u = A_n z scales the integral to (0, 1], where quad's
    absolute tolerance is meaningful next to the library's DEFAULT_TOL.
    """
    g = s.gamma_pl
    opr = one_plus_rho(n, g, s.theta)
    a_coef = math.pi * s.lambda_bs * opr
    b_coef = n * s.theta * s.noise_mw / s.power_mw
    c = b_coef / a_coef ** (g / 2.0)
    val, _ = integrate.quad(
        lambda u: math.exp(-u - c * u ** (g / 2.0)), 0.0, math.inf,
        epsabs=1e-15, epsrel=1e-13, limit=400,
    )
    return val / opr


def disk_moment(s: Scenario, n: int, radius: float = REGION_RADIUS_M) -> float:
    """mu_n of the simulator's model: a PPP on a disk, conditioned non-empty.

    Given the serving distance r, the interferers form a PPP on r < |x| < R,
    whose probability generating functional integrates in closed form to
    exp(-pi lambda [r^2 rho_n(theta) - R^2 rho_n(theta (r/R)^g)]).
    """
    g, lam, th = s.gamma_pl, s.lambda_bs, s.theta
    rho = one_plus_rho(n, g, th) - 1.0
    noise_term = n * th * s.noise_mw / s.power_mw
    d = 2.0 / g

    def density(r: float) -> float:
        rho_r = special.hyp2f1(n, -d, 1.0 - d, -th * (r / radius) ** g) - 1.0
        expo = -math.pi * lam * (r * r * (1.0 + rho) - radius * radius * rho_r)
        return 2.0 * math.pi * lam * r * math.exp(expo - noise_term * r**g)

    scale = 1.0 / math.sqrt(math.pi * lam * (1.0 + rho))
    points = [scale * k for k in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0) if scale * k < radius]
    val, _ = integrate.quad(density, 0.0, radius, points=points,
                            epsabs=1e-13, epsrel=1e-11, limit=400)
    return val / -math.expm1(-math.pi * lam * radius * radius)


def check_campaign_mean(s: Scenario, mean: float, sample_var: float, realizations: int,
                        draws: int | None) -> list[str]:
    """Campaign mean within MC_SIGMAS standard errors of the disk-model mu_1.

    The standard error is the larger of the campaign's own and the one the
    disk-model moments predict: Var(C) = mu_2 - mu_1^2, plus the binomial
    term E[C (1 - C)] / draws = (mu_1 - mu_2) / draws for sampled fading.
    At high thresholds C is nearly always ~0 with rare large values, and
    whichever estimate is larger keeps a short campaign from failing on one
    lucky (or one missing) draw.
    """
    m1, m2 = disk_moment(s, 1), disk_moment(s, 2)
    model_var = max(m2 - m1 * m1, 0.0)
    if draws is not None:
        model_var += max(m1 - m2, 0.0) / draws
    se = math.sqrt(max(model_var, sample_var) / realizations)
    if abs(mean - m1) > MC_SIGMAS * se:
        return [f"campaign: mean {mean:.6g} vs oracle {m1:.6g} "
                f"({(mean - m1) / se:+.1f} SE)"]
    return []


def check_moments(s: Scenario, exact, approx, bounds, tol: float) -> list[str]:
    """Exact mu_n within tol; closed form within its error bound.

    ``bounds[n-1]`` bounds |mu_n - closed form|, i.e. pi lambda times
    ``approx_error_bound``.
    """
    out = []
    for n in range(1, len(exact)):
        ref = moment(s, n)
        if not abs(exact[n] - ref) <= tol:
            out.append(f"mu_exact: mu_{n} = {exact[n]!r} vs oracle {ref!r}")
        if not abs(approx[n] - ref) <= bounds[n - 1] * (1.0 + 1e-9) + 1e-15:
            out.append(f"closed_form: mu_{n} = {approx[n]!r} vs oracle {ref!r} "
                       f"beyond its bound {bounds[n - 1]!r}")
    return out


def cdf_reference(alpha: float, beta: float, coefficients, x: np.ndarray) -> np.ndarray:
    """Termwise-integrated Fourier-Jacobi CDF built from scipy primitives.

    h_0 a_0 I_x(beta+1, alpha+1) - (1-x)^(alpha+1) x^(beta+1)
        * sum_{n>=1} (a_n / n) P_{n-1}^(alpha+1, beta+1)(2x - 1).
    """
    x = np.asarray(x, dtype=float)
    lead = special.beta(alpha + 1.0, beta + 1.0) * coefficients[0]
    out = lead * special.betainc(beta + 1.0, alpha + 1.0, x)
    corr = np.zeros_like(x)
    for n in range(1, len(coefficients)):
        corr += coefficients[n] / n * special.eval_jacobi(n - 1, alpha + 1.0, beta + 1.0, 2.0 * x - 1.0)
    return out - (1.0 - x) ** (alpha + 1.0) * x ** (beta + 1.0) * corr


def check_cdf(alpha: float, beta: float, coefficients, x, cdf) -> list[str]:
    """F(0) = 0, F(1) = 1 and the whole curve against cdf_reference."""
    x = np.asarray(x, dtype=float)
    cdf = np.asarray(cdf, dtype=float)
    out = []
    if x[0] == 0.0 and abs(cdf[0]) > 1e-12:
        out.append(f"cdf: F(0) = {cdf[0]!r}")
    if x[-1] == 1.0 and abs(cdf[-1] - 1.0) > 1e-12:
        out.append(f"cdf: F(1) = {cdf[-1]!r}")
    ref = cdf_reference(alpha, beta, coefficients, x)
    err = float(np.max(np.abs(cdf - ref)))
    if not err <= CDF_ATOL:
        out.append(f"cdf: off the reference by {err:.3g}")
    return out


def oracle_min_power(s: Scenario, x_rel: float, epsilon: float) -> float:
    """Markov-bound minimum power with 1 + rho_2 from scipy."""
    g = s.gamma_pl
    target = 1.0 - epsilon + x_rel**2
    bracket = 1.0 - target * one_plus_rho(2, g, s.theta)
    c = (2.0 * math.pi * bracket * special.gamma(2.0 / g)
         / (g * target * (2.0 * s.theta * s.noise_mw) ** (2.0 / g))) ** (-g / 2.0)
    return c * s.lambda_bs ** (-g / 2.0)


# --- per-workload checks -------------------------------------------------------


def check_sweep(s: Scenario, out: dict) -> list[str]:
    bounds = [math.pi * s.lambda_bs * b for b in out["bounds"]]
    reasons = check_moments(s, out["exact"], out["approx"], bounds, out["tol"])
    reasons += check_cdf(out["alpha"], out["beta"], out["coefficients"], out["grid"], out["cdf"])
    rel_ref = np.clip(1.0 - np.asarray(out["cdf"]), 0.0, 1.0)
    if not np.array_equal(np.asarray(out["reliability"]), rel_ref):
        reasons.append("reliability: differs from 1 - F clamped to [0, 1]")
    ref_p = oracle_min_power(s, *out["qos"])
    if not abs(out["min_power"] - ref_p) <= POWER_RTOL * ref_p:
        reasons.append(f"min_power: {out['min_power']!r} vs oracle {ref_p!r}")
    return reasons


def _columns(path: Path, *names: str) -> list[np.ndarray]:
    """Named columns of a CSV table; empty cells read as NaN."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    cols = [header.index(name) for name in names]
    return [np.array([float(r[j]) if r[j] else math.nan for r in rows]) for j in cols]


def check_cli(s: Scenario, out: dict) -> list[str]:
    """Exit codes, then each subcommand's files against the oracles."""
    bad = {cmd: code for cmd, code in out["exit_codes"].items() if code != 0}
    if bad:
        return [f"exit: codes {bad}; " + " | ".join(out["errors"])]
    d = Path(out["dir"])
    reasons = []

    # error_bound is already on the moment scale (pi lambda * approx_error_bound).
    exact, approx, bounds = _columns(d / "moments.csv", "mu_exact", "mu_approx", "error_bound")
    reasons += check_moments(s, [1.0, *exact], [1.0, *approx], bounds, out["tol"])

    meta = json.loads((d / "recon.csv.meta.json").read_text())
    basis = meta["basis"]
    reasons += check_cdf(basis["alpha"], basis["beta"], meta["coefficients"],
                         *_columns(d / "recon.csv", "x", "cdf"))

    summary = json.loads((d / "samples.json").read_text())
    n = summary["config"]["num_realizations"]
    m1, m2 = summary["empirical_moments"][1:3]
    reasons += check_campaign_mean(s, m1, (m2 - m1 * m1) * n / (n - 1), n, None)

    cmeta = json.loads((d / "compare.csv.meta.json").read_text())
    xs, beta_rel = _columns(d / "compare.csv", "x", "beta_rel")
    ref = 1.0 - special.betainc(cmeta["basis"]["beta"] + 1.0, cmeta["basis"]["alpha"] + 1.0, xs)
    err = float(np.max(np.abs(beta_rel - ref))) if len(xs) else 0.0
    if not err <= CDF_ATOL:
        reasons.append(f"beta_rel: off betainc by {err:.3g}")

    pmeta = json.loads((d / "power.csv.meta.json").read_text())
    slope = pmeta.get("loglog_slope")
    if slope is None or not abs(slope + s.gamma_pl / 2.0) <= SLOPE_ATOL:
        reasons.append(f"slope: {slope!r} vs {-s.gamma_pl / 2.0!r}")
    return reasons


def check_sampled(s: Scenario, out: dict) -> list[str]:
    return check_campaign_mean(s, out["mean"], out["var"], out["realizations"], out["draws"])
