"""The benchmark's workloads: what one op of each is.

Ops reach metadist only through attribute lookups on ``metadist`` and
``metadist.cli`` at call time, so the tracer can wrap those names.
"""
from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import probe
import scenarios
from scenarios import Scenario

ORDER = 10
GRID = np.linspace(0.0, 1.0, 1001)
SAMPLED_REALIZATIONS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: Callable[[int, int], list[Scenario]]
    # run(md, scenario, workdir) -> output record for checks.check_<name>;
    # raises if the op failed.
    run: Callable
    probe: probe.Probe
    # Wall time of one cycle (ops, probes and checks) on the reference host;
    # a run does --seconds / cycle_s cycles.
    cycle_s: float


def _params(md, s: Scenario):
    return md.SystemParams(lambda_bs=s.lambda_bs, gamma_pl=s.gamma_pl,
                           theta=s.theta, power=s.power_mw, noise=s.noise_mw)


def run_sweep(md, s: Scenario, workdir: Path) -> dict:
    """Moments (exact, closed form, bound), reconstruction, curves, power."""
    p = _params(md, s)
    exact = md.moment_sequence(p, ORDER)
    approx = md.moment_sequence(p, ORDER, method="closed_form")
    bounds = []
    for n in range(1, ORDER + 1):
        c = md.coeffs(p, n)
        bounds.append(md.approx_error_bound(c.a_coef, c.b_coef, p.gamma_pl))
    dist = md.reconstruct(exact, order=ORDER)
    md.eval_pdf(dist, GRID[1:-1])
    cdf = md.eval_cdf(dist, GRID)
    rel = md.meta_reliability(dist, GRID)
    md.convergence_diagnostic(dist)
    qos = scenarios.feasible_qos(s)
    power = md.min_power(p, md.QosSpec(x_rel=qos[0], epsilon=qos[1]))
    return {
        "exact": exact.values, "approx": approx.values, "bounds": bounds,
        "alpha": dist.basis.alpha, "beta": dist.basis.beta,
        "coefficients": dist.coefficients, "grid": GRID, "cdf": cdf,
        "reliability": rel, "qos": qos, "min_power": power,
        "tol": md.quadrature.DEFAULT_TOL,
    }


def _scenario_argv(s: Scenario) -> list[str]:
    return ["--lambda", repr(s.lambda_bs), "--gamma", repr(s.gamma_pl),
            "--theta-db", repr(s.theta_db), "--power-dbm", repr(scenarios.POWER_DBM),
            "--noise-dbm", repr(s.noise_dbm)]


def cli_argvs(s: Scenario, d: Path) -> dict[str, list[str]]:
    """The five subcommands of one cli op, in the order they run."""
    scen = _scenario_argv(s)
    x_rel, eps = scenarios.feasible_qos(s)
    return {
        "moments": ["moments", *scen, "--method", "both", "--n-max", str(ORDER),
                    "--out", str(d / "moments.csv")],
        "reconstruct": ["reconstruct", *scen, "--order", str(ORDER),
                        "--out", str(d / "recon.csv")],
        "simulate": ["simulate", *scen, "--seed", str(s.sim_seed),
                     "--out", str(d / "samples.csv")],
        "compare": ["compare", *scen, "--samples", str(d / "samples.csv"),
                    "--order", str(ORDER), "--out", str(d / "compare.csv")],
        "power": ["power", "--gamma", repr(s.gamma_pl), "--theta-db", repr(s.theta_db),
                  "--noise-dbm", repr(s.noise_dbm), "--x-rel", repr(x_rel),
                  "--epsilon", repr(eps), "--out", str(d / "power.csv")],
    }


def run_cli(md, s: Scenario, workdir: Path) -> dict:
    """All five subcommands in-process; console output goes to a buffer."""
    workdir.mkdir(parents=True)
    codes = {}
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        for cmd, argv in cli_argvs(s, workdir).items():
            codes[cmd] = md.cli.main(argv)
    errors = [line for line in console.getvalue().splitlines() if line.startswith("error:")]
    return {"exit_codes": codes, "dir": str(workdir), "errors": errors,
            "tol": md.quadrature.DEFAULT_TOL}


def run_sampled(md, s: Scenario, workdir: Path) -> dict:
    cfg = md.SimConfig(params=_params(md, s), num_realizations=SAMPLED_REALIZATIONS,
                       fading_mode="sampled", rng_seed=s.sim_seed)
    emp = md.run_campaign(cfg)
    return {"mean": float(np.mean(emp.ccp_samples)), "var": float(np.var(emp.ccp_samples, ddof=1)),
            "realizations": cfg.num_realizations, "draws": cfg.num_channel_draws}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", scenarios.cycle, run_sweep, probe.COMPUTE, 0.47),
        # simulate's cost grows with lambda; the sampled workload spans lambda.
        Workload("cli", functools.partial(scenarios.cycle, fixed_lambda=scenarios.REFERENCE_LAMBDA),
                 run_cli, probe.COMPUTE, 9.5),
        Workload("sampled", scenarios.cycle, run_sampled, probe.MEMORY, 1.75),
    )
}
