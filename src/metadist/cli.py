"""Command-line front-end.

Subcommands: moments | reconstruct | simulate | compare | power.  Scenario
flags accept dB / dBm values and are converted to linear units before any
math module sees them.  Tables go to stdout (or --out) as CSV with a JSON
metadata sidecar, or as a single JSON document with --format json.

Exit codes: 0 success, 2 invalid arguments, 3 infeasible or degenerate math,
4 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import jacobi, moments, scaling, sim
from .quadrature import QuadratureError
from .specfun import reg_inc_beta

__all__ = ["main", "build_parser", "db_to_linear", "mw_to_dbm"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_IO = 4


def db_to_linear(db: float) -> float:
    """dB ratio to linear (dBm to mW); -inf dB maps to 0."""
    return 10.0 ** (db / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Milliwatts to dBm; 0 mW maps to -inf dBm."""
    return 10.0 * math.log10(mw) if mw > 0.0 else float("-inf")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("scenario")
    grp.add_argument("--lambda", dest="lambda_bs", type=float, default=1e-3,
                     help="BS density per m^2 (default 1e-3)")
    grp.add_argument("--gamma", type=float, default=5.0,
                     help="path-loss exponent, > 2 (default 5)")
    grp.add_argument("--theta-db", type=float, default=0.0,
                     help="SINR threshold in dB (default 0 dB; -inf for theta=0)")
    grp.add_argument("--power-dbm", type=float, default=0.0,
                     help="transmit power in dBm (default 0 dBm = 1 mW)")
    grp.add_argument("--noise-dbm", type=float, default=-100.0,
                     help="noise power in dBm (default -100 dBm)")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (default csv)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default stdout)")


def _scenario_params(args: argparse.Namespace) -> moments.SystemParams:
    """The scenario the flags describe, in linear units.

    `power` sweeps lambda and solves for the transmit power, so its scenario
    starts at --lambda-min with a 1 mW placeholder that min_power ignores.
    """
    sweep = args.command == "power"
    return moments.SystemParams(
        lambda_bs=args.lambda_min if sweep else args.lambda_bs,
        gamma_pl=args.gamma,
        theta=db_to_linear(args.theta_db),
        power=1.0 if sweep else db_to_linear(args.power_dbm),
        noise=db_to_linear(args.noise_dbm),
    )


def _emit_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    meta: dict[str, Any],
    args: argparse.Namespace,
) -> None:
    """CSV table (+ JSON sidecar when writing to a file) or one JSON document."""
    if args.out is None:
        stream = contextlib.nullcontext(sys.stdout)
    else:
        stream = open(args.out, "w", newline="")
    with stream as fh:
        if args.format == "json":
            doc = {"columns": list(columns), "rows": [list(r) for r in rows], "meta": meta}
            fh.write(json.dumps(doc, indent=2) + "\n")
            return
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    if args.out is not None:
        sidecar = args.out.with_suffix(args.out.suffix + ".meta.json")
        sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_moments(args: argparse.Namespace) -> int:
    params = args.params
    ns = range(1, args.n_max + 1)
    if args.method != "approx":
        exact = moments.moment_sequence(params, args.n_max).values[1:]
    if args.method == "exact":
        rows = [[n, _fmt(mu)] for n, mu in zip(ns, exact)]
    elif args.method == "approx":
        rows = [[n, _fmt(moments.moment_approx(params, n))] for n in ns]
    else:
        rows = []
        for n, mu in zip(ns, exact):
            c = moments.coeffs(params, n)
            approx = moments.moment_approx(params, n)
            bound = math.pi * params.lambda_bs * moments.approx_error_bound(
                c.a_coef, c.b_coef, params.gamma_pl
            )
            rows.append([n, _fmt(mu), _fmt(approx), _fmt(abs(mu - approx)), _fmt(bound)])
    columns = {
        "exact": ("n", "mu_exact"),
        "approx": ("n", "mu_approx"),
        "both": ("n", "mu_exact", "mu_approx", "abs_diff", "error_bound"),
    }[args.method]
    _emit_table(columns, rows, {"scenario": sim.scenario_to_dict(params)}, args)
    return EXIT_OK


def _load_moment_file(path: Path) -> moments.MomentSequence:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "mu":
            raise ValueError(f"{path}: expected a one-column CSV with 'mu' header")
        values = tuple(float(row[0]) for row in reader if row)
    return moments.MomentSequence(values=values, method=moments.METHOD_EMPIRICAL)


def _reconstruction(args: argparse.Namespace) -> jacobi.ReconstructedDistribution:
    if args.moments_file is not None:
        seq = _load_moment_file(args.moments_file)
    else:
        # Moment matching needs mu_1 and mu_2, even below order 2.
        n_max = args.order if args.basis == "explicit" else max(args.order, 2)
        seq = moments.moment_sequence(args.params, n_max)
    if args.basis == "explicit":
        if args.alpha is None or args.beta is None:
            raise ValueError("--basis explicit requires --alpha and --beta")
        basis = jacobi.JacobiBasis(alpha=args.alpha, beta=args.beta, order=args.order)
        return jacobi.fourier_jacobi_coeffs(seq, basis)
    return jacobi.reconstruct(seq, order=args.order)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    dist = _reconstruction(args)
    xs = np.linspace(0.0, 1.0, args.grid_points)
    cdf = jacobi.eval_cdf(dist, xs)
    rel = jacobi.meta_reliability(dist, xs)
    # The endpoint PDF can be singular (alpha or beta < 0); leave it blank.
    interior = (xs > 0.0) & (xs < 1.0)
    pdf = np.full(xs.shape, "", dtype=object)
    pdf[interior] = [_fmt(v) for v in jacobi.eval_pdf(dist, xs[interior])]
    rows = [[_fmt(x), p, _fmt(c), _fmt(r)] for x, p, c, r in zip(xs, pdf, cdf, rel)]
    report = jacobi.convergence_diagnostic(dist)
    meta = {
        "basis": {"alpha": dist.basis.alpha, "beta": dist.basis.beta,
                  "order": dist.basis.order},
        "coefficients": list(dist.coefficients),
        "convergence": {"decay_terms": list(report.decay_terms),
                        "warning": report.warning},
        "moments": list(dist.source_moments.values),
        "moment_method": dist.source_moments.method,
    }
    _emit_table(("x", "pdf", "cdf", "reliability"), rows, meta, args)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    emp = sim.run_campaign(args.config)
    samples = emp.ccp_samples
    sim.write_samples_csv(samples, args.out)
    xs = np.linspace(0.0, 1.0, 101)
    summary = {
        **sim.campaign_to_dict(emp),
        "empirical_moments": list(sim.empirical_moments(samples, 10).values),
        "reliability_grid": {
            "x": [float(x) for x in xs],
            "reliability": [float(v) for v in sim.empirical_reliability(samples, xs)],
        },
    }
    args.summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out} and {args.summary_path}", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    params = args.params
    samples = sim.read_samples_csv(args.samples)
    if params.theta == 0.0:
        # Degenerate scenario: the CCP is identically 1 (point mass), so the
        # reliability is 1 on [0, 1) with no basis to match.
        dist = None
        basis_meta = None
    else:
        dist = _reconstruction(args)
        basis_meta = {"alpha": dist.basis.alpha, "beta": dist.basis.beta}
    xs = np.linspace(0.01, 0.99, 99)
    emp_rel = sim.empirical_reliability(samples, xs)
    keep = emp_rel >= 0.02
    xs, emp_rel = xs[keep], emp_rel[keep]
    if dist is None:
        beta_rel = fj_rel = np.ones_like(xs)
    else:
        # Leading series term alone: the moment-matched beta approximation.
        a, b = dist.basis.alpha, dist.basis.beta
        beta_rel = 1.0 - reg_inc_beta(xs, b + 1.0, a + 1.0)
        fj_rel = jacobi.meta_reliability(dist, xs)
    rows = [
        [_fmt(x), _fmt(er), _fmt(br), _fmt(fr),
         _fmt(abs(br - er) / er), _fmt(abs(fr - er) / er)]
        for x, er, br, fr in zip(xs, emp_rel, beta_rel, fj_rel)
    ]
    meta = {
        "scenario": sim.scenario_to_dict(params),
        "order": args.order,
        "basis": basis_meta,
        "empirical_moments": list(sim.empirical_moments(samples, 10).values),
        "num_samples": len(samples),
    }
    _emit_table(
        ("x", "empirical_rel", "beta_rel", "fj_rel", "relerr_beta", "relerr_fj"),
        rows, meta, args,
    )
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    qos = args.qos
    lams = np.logspace(
        math.log10(args.lambda_min), math.log10(args.lambda_max), args.lambda_steps
    )
    # p = c lambda^(-gamma/2): min_power at lambda = 1 returns c exactly.
    c = scaling.min_power(dataclasses.replace(args.params, lambda_bs=1.0), qos)
    powers = np.array([c * float(lam) ** (-args.params.gamma_pl / 2.0) for lam in lams])
    rows = [[_fmt(lam), _fmt(p), _fmt(mw_to_dbm(p))] for lam, p in zip(lams, powers)]
    meta: dict[str, Any] = {"x_rel": qos.x_rel, "epsilon": qos.epsilon,
                            "gamma_pl": args.gamma}
    positive = powers > 0.0
    # A line needs two distinct densities; --lambda-min = --lambda-max gives one.
    if np.unique(lams[positive]).size >= 2:
        slope = float(np.polyfit(np.log(lams[positive]), np.log(powers[positive]), 1)[0])
        meta["loglog_slope"] = slope
        print(f"fitted log-log slope: {slope:.9f} (expected {-args.gamma / 2})",
              file=sys.stderr)
    if not positive.all():
        print("interference/noise-free scenario: any positive power satisfies "
              "the bound (reported as 0 mW)", file=sys.stderr)
    _emit_table(("lambda", "p_mw", "p_dbm"), rows, meta, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metadist",
        description="SINR meta-distribution toolkit for downlink Poisson "
                    "cellular networks: moments, Fourier-Jacobi reconstruction, "
                    "Monte Carlo validation, power scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="CCP moments: exact quadrature vs closed form")
    _add_scenario_args(p)
    _add_output_args(p)
    p.add_argument("--n-max", type=int, default=10, help="highest moment order")
    p.add_argument("--method", choices=("exact", "approx", "both"), default="both")

    p = sub.add_parser("reconstruct", help="meta-distribution PDF/CDF from moments")
    _add_scenario_args(p)
    _add_output_args(p)
    p.add_argument("--moments-file", type=Path, default=None,
                   help="one-column CSV (header 'mu') with mu_0..mu_N; "
                        "overrides the scenario moments")
    p.add_argument("--order", type=int, default=10, help="truncation order")
    p.add_argument("--basis", choices=("match", "explicit"), default="match")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=101)

    p = sub.add_parser("simulate", help="Monte Carlo campaign; writes samples CSV + summary JSON")
    _add_scenario_args(p)
    p.add_argument("--radius-m", type=float, default=500.0)
    p.add_argument("--realizations", type=int, default=5000)
    p.add_argument("--mode", choices=(sim.FADING_ANALYTIC, sim.FADING_SAMPLED),
                   default=sim.FADING_ANALYTIC)
    p.add_argument("--channel-draws", type=int, default=700)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="samples CSV path")

    p = sub.add_parser("compare", help="empirical vs beta vs Fourier-Jacobi reliability")
    _add_scenario_args(p)
    _add_output_args(p)
    p.add_argument("--samples", type=Path, required=True, help="samples CSV from simulate")
    p.add_argument("--order", type=int, default=10)
    # compare reconstructs from the scenario's moments in the matched basis.
    p.set_defaults(moments_file=None, basis="match")

    p = sub.add_parser("power", help="minimum power vs density (scaling law)")
    p.add_argument("--gamma", type=float, default=5.0)
    p.add_argument("--theta-db", type=float, default=0.0)
    p.add_argument("--noise-dbm", type=float, default=-100.0)
    _add_output_args(p)
    p.add_argument("--x-rel", type=float, required=True, help="reliability threshold in (0,1)")
    p.add_argument("--epsilon", type=float, required=True, help="outage tolerance in (0,1)")
    p.add_argument("--lambda-min", type=float, default=1e-4)
    p.add_argument("--lambda-max", type=float, default=1e-2)
    p.add_argument("--lambda-steps", type=int, default=9)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on main's first call and then reused."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    # argparse exits on bad arguments and --help; in-process callers get the code.
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    # Build and validate the user-supplied physics/QoS/campaign once, up front,
    # so bad arguments exit with the usage code rather than the math-failure code.
    try:
        args.params = _scenario_params(args)
        if args.command == "moments" and args.n_max < 1:
            raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
        if args.command in ("reconstruct", "compare") and not (
            0 <= args.order <= jacobi.ORDER_HARD_CAP
        ):
            raise ValueError(
                f"--order must be in [0, {jacobi.ORDER_HARD_CAP}], got {args.order}"
            )
        if args.command == "reconstruct" and args.grid_points < 1:
            raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
        if args.command == "simulate":
            args.config = sim.SimConfig(
                params=args.params, num_realizations=args.realizations,
                region_radius=args.radius_m, fading_mode=args.mode,
                num_channel_draws=args.channel_draws, rng_seed=args.seed,
            )
            args.summary_path = args.out.with_suffix(".json")
            if args.summary_path == args.out:
                raise ValueError(f"--out {args.out}: the summary JSON would overwrite "
                                 "the samples; use another suffix")
        if args.command == "power":
            args.qos = scaling.QosSpec(x_rel=args.x_rel, epsilon=args.epsilon)
            if not 0.0 < args.lambda_max < math.inf:
                raise ValueError(
                    f"--lambda-max must be positive and finite, got {args.lambda_max}"
                )
            if args.lambda_steps < 1:
                raise ValueError(f"--lambda-steps must be at least 1, got {args.lambda_steps}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # Looked up at call time, so a patched cmd_<command> is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (jacobi.DegenerateMomentsError, scaling.InfeasibleQosError,
            QuadratureError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
