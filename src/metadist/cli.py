"""Command-line front-end.

Subcommands: moments | reconstruct | simulate | compare | power.  Scenario
flags accept dB / dBm values and are converted to linear units before any
math module sees them.  Tables go to stdout (or --out) as CSV with a JSON
metadata sidecar, or as a single JSON document with --format json.

Exit codes: 0 success, 2 invalid arguments, 3 infeasible or degenerate math,
4 I/O failure.

Every subcommand needs the moments (and through them the quadrature and the
special functions); the Jacobi, simulation and scaling modules are imported
only by the commands that use them, so `metadist moments` never loads them.
The parser reads no default from those modules: `--order` and the campaign
flags default to None, and main fills in jacobi.DEFAULT_ORDER and leaves the
rest to SimConfig's own defaults.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import moments
from .quadrature import QuadratureError
from .specfun import reg_inc_beta

__all__ = ["main", "build_parser", "db_to_linear", "mw_to_dbm"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_IO = 4


def db_to_linear(db: float) -> float:
    """dB ratio to linear (dBm to mW); -inf dB maps to 0, beyond the doubles to inf."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return math.inf


def mw_to_dbm(mw: float) -> float:
    """Milliwatts to dBm; 0 mW maps to -inf dBm."""
    return 10.0 * math.log10(mw) if mw > 0.0 else float("-inf")


def _add_scenario_args(parser: argparse.ArgumentParser, *, density_and_power: bool = True) -> None:
    """The scenario flags; without density_and_power, the parser sets those two."""
    grp = parser.add_argument_group("scenario")
    if density_and_power:
        grp.add_argument("--lambda", dest="lambda_bs", type=float, default=1e-3,
                         help="BS density per m^2 (default 1e-3)")
    grp.add_argument("--gamma", type=float, default=5.0,
                     help="path-loss exponent, > 2 (default 5)")
    grp.add_argument("--theta-db", type=float, default=0.0,
                     help="SINR threshold in dB (default 0 dB; --theta-db=-inf for theta=0)")
    if density_and_power:
        grp.add_argument("--power-dbm", type=float, default=0.0,
                         help="transmit power in dBm (default 0 dBm = 1 mW)")
    grp.add_argument("--noise-dbm", type=float, default=-100.0,
                     help="noise power in dBm (default -100 dBm; --noise-dbm=-inf for no noise)")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (default csv)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default stdout)")


def _scenario_params(args: argparse.Namespace) -> moments.SystemParams:
    """The scenario the flags describe, in linear units."""
    return moments.SystemParams(
        lambda_bs=args.lambda_bs,
        gamma_pl=args.gamma,
        theta=_linear_flag(args, "--theta-db"),
        power=_linear_flag(args, "--power-dbm"),
        noise=_linear_flag(args, "--noise-dbm"),
    )


def _linear_flag(args: argparse.Namespace, flag: str) -> float:
    """A dB/dBm flag in linear units; a finite value that underflows to 0 is an error."""
    db = getattr(args, flag.lstrip("-").replace("-", "_"))
    value = db_to_linear(db)
    if value == 0.0 and db != -math.inf:
        raise ValueError(f"{flag} {db!r} is 0 in linear units; only {flag}=-inf means 0")
    return value


def _emit_table(table: dict[str, Sequence[Any]], meta: dict[str, Any],
                args: argparse.Namespace) -> None:
    """CSV table (+ JSON sidecar when writing to a file) or one JSON document.

    `table` maps each column name, in header order, to its cells.  An int or
    str cell is written as is, any other as repr(float(cell)).
    """
    rows = [[v if isinstance(v, (int, str)) else repr(float(v)) for v in row]
            for row in zip(*table.values())]
    if args.out is None:
        stream = contextlib.nullcontext(sys.stdout)
    else:
        stream = open(args.out, "w", newline="")
    with stream as fh:
        if args.format == "json":
            doc = {"columns": list(table), "rows": rows, "meta": meta}
            fh.write(json.dumps(doc, indent=2) + "\n")
            return
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(rows)
    if args.out is not None:
        sidecar = args.out.with_suffix(args.out.suffix + ".meta.json")
        sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def cmd_moments(args: argparse.Namespace) -> int:
    params = args.params
    ns = range(1, args.n_max + 1)
    table: dict[str, Sequence[Any]] = {"n": ns}
    if args.method != "approx":
        table["mu_exact"] = moments.moment_sequence(params, args.n_max).values[1:]
    if args.method != "exact":
        table["mu_approx"] = moments.moment_sequence(
            params, args.n_max, method=moments.METHOD_CLOSED_FORM).values[1:]
    if args.method == "both":
        table["abs_diff"] = [abs(mu - ap) for mu, ap in zip(table["mu_exact"], table["mu_approx"])]
        table["error_bound"] = [
            math.pi * params.lambda_bs
            * moments.approx_error_bound(c.a_coef, c.b_coef, params.gamma_pl)
            for c in (moments.coeffs(params, n) for n in ns)
        ]
    _emit_table(table, {"scenario": moments.scenario_to_dict(params)}, args)
    return EXIT_OK


def _load_moment_file(path: Path) -> moments.MomentSequence:
    values = moments.read_column_csv(path, "mu", "expected a one-column CSV with 'mu' header")
    seq = moments.MomentSequence(values=values, method=moments.METHOD_EMPIRICAL)
    seq.check_hausdorff()
    return seq


def _reconstruction(params: moments.SystemParams, order: int, moments_file: Path | None = None,
                    basis: jacobi.JacobiBasis | None = None) -> jacobi.ReconstructedDistribution:
    """The series in `basis` if one is given, else in the moment-matched basis."""
    from . import jacobi

    if moments_file is not None:
        seq = _load_moment_file(moments_file)
    else:
        # Moment matching needs mu_1 and mu_2, even below order 2.
        seq = moments.moment_sequence(params, order if basis is not None else max(order, 2))
    if basis is not None:
        return jacobi.fourier_jacobi_coeffs(seq, basis)
    return jacobi.reconstruct(seq, order=order)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    from . import jacobi

    dist = _reconstruction(args.params, args.order, args.moments_file, args.basis)
    xs = np.linspace(0.0, 1.0, args.grid_points)
    cdf = jacobi.eval_cdf(dist, xs)
    rel = jacobi.meta_reliability(dist, xs)
    # The endpoint PDF can be singular (alpha or beta < 0); leave it blank.
    interior = (xs > 0.0) & (xs < 1.0)
    pdf = np.full(xs.shape, "", dtype=object)
    pdf[interior] = jacobi.eval_pdf(dist, xs[interior])
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
    _emit_table({"x": xs, "pdf": pdf, "cdf": cdf, "reliability": rel}, meta, args)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

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


def _check_campaign(samples: Path, params: moments.SystemParams) -> None:
    """Raise ValueError if the campaign beside `samples` has another scenario.

    The campaign record is the summary `simulate` writes, the samples path
    with suffix `.json`; its `scenario` object must equal the flags'
    `moments.scenario_to_dict`, field by field.  With no record there, or
    where that path is the samples file itself (`data.json`), nothing is
    checked.  A record that cannot be read raises OSError.
    """
    record = samples.with_suffix(".json")
    if record == samples:
        return
    try:
        text = record.read_bytes()
    except FileNotFoundError:
        return
    expected = moments.scenario_to_dict(params)
    try:
        scenario = json.loads(text)["scenario"]
        recorded = {field: scenario[field] for field in expected}
    except (ValueError, KeyError, TypeError):
        raise ValueError(f"{record}: not a campaign record (no 'scenario' object "
                         f"with {', '.join(expected)})") from None
    for field, value in expected.items():
        if recorded[field] != value:
            raise ValueError(f"{record}: the campaign has {field} = {recorded[field]!r}, "
                             f"the flags give {value!r}; pass the campaign's scenario")


def cmd_compare(args: argparse.Namespace) -> int:
    from . import jacobi, sim

    params = args.params
    samples = sim.read_samples_csv(args.samples)
    xs = np.linspace(0.01, 0.99, 99)
    emp_rel = sim.empirical_reliability(samples, xs)
    floor = 0.02
    keep = emp_rel >= floor
    if not keep.any():
        top = int(np.argmax(emp_rel))
        print(f"empty table: no grid point has empirical reliability >= {floor}; "
              f"the largest is {emp_rel[top]:.6g} at x = {xs[top]:.6g}", file=sys.stderr)
    xs, emp_rel = xs[keep], emp_rel[keep]
    if params.theta == 0.0:
        # Degenerate scenario: the CCP is identically 1 (point mass), so the
        # reliability is 1 on [0, 1) with no basis to match.
        basis_meta = None
        beta_rel = fj_rel = np.ones_like(xs)
    else:
        dist = _reconstruction(params, args.order)
        a, b = dist.basis.alpha, dist.basis.beta
        basis_meta = {"alpha": a, "beta": b}
        # Leading series term alone: the moment-matched beta approximation.
        beta_rel = 1.0 - reg_inc_beta(xs, b + 1.0, a + 1.0)
        fj_rel = jacobi.meta_reliability(dist, xs)
    meta = {
        "scenario": moments.scenario_to_dict(params),
        "order": args.order,
        "basis": basis_meta,
        "empirical_moments": list(sim.empirical_moments(samples, 10).values),
        "num_samples": len(samples),
    }
    table = {
        "x": xs, "empirical_rel": emp_rel, "beta_rel": beta_rel, "fj_rel": fj_rel,
        "relerr_beta": np.abs(beta_rel - emp_rel) / emp_rel,
        "relerr_fj": np.abs(fj_rel - emp_rel) / emp_rel,
    }
    _emit_table(table, meta, args)
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    from . import scaling

    qos = args.qos
    lams = np.logspace(
        math.log10(args.lambda_min), math.log10(args.lambda_max), args.lambda_steps
    )
    meta: dict[str, Any] = {"x_rel": qos.x_rel, "epsilon": qos.epsilon,
                            "gamma_pl": args.gamma}
    # c_1* holds for every density; power_at returns 0.0 only when noise-free.
    c1 = scaling.max_noise_root(args.params, qos)
    powers = [scaling.power_at(c1, lam, args.params) for lam in lams.tolist()]
    if powers[0] == 0.0:
        print("interference/noise-free scenario: any positive power satisfies "
              "the bound (reported as 0 mW)", file=sys.stderr)
    # A line needs two distinct densities; --lambda-min = --lambda-max gives one.
    elif np.unique(lams).size >= 2:
        slope = float(np.polyfit(np.log(lams), np.log(powers), 1)[0])
        meta["loglog_slope"] = slope
        print(f"fitted log-log slope: {slope:.9f} (expected {-args.gamma / 2})",
              file=sys.stderr)
    table = {"lambda": lams, "p_mw": powers, "p_dbm": [mw_to_dbm(p) for p in powers]}
    _emit_table(table, meta, args)
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
    p.add_argument("--order", type=int, default=None, help="truncation order")
    p.add_argument("--alpha", type=float, help="with --beta, the Jacobi basis used instead of "
                   "moment matching; give both or neither, each finite and > -1, else exit 2")
    p.add_argument("--beta", type=float, help="the basis beta; see --alpha")
    p.add_argument("--grid-points", type=int, default=101)

    p = sub.add_parser("simulate", help="Monte Carlo campaign; writes samples CSV + summary JSON")
    _add_scenario_args(p)
    # Campaign flags left unset take SimConfig's defaults.
    p.add_argument("--radius-m", type=float, default=None,
                   help="radius of the disk of BSs, in m; inf is the infinite plane")
    p.add_argument("--realizations", type=int, default=5000)
    p.add_argument("--mode", choices=("analytic", "sampled"), default=None)
    p.add_argument("--channel-draws", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, required=True, help="samples CSV path")

    p = sub.add_parser("compare", help="empirical vs beta vs Fourier-Jacobi reliability")
    _add_scenario_args(p)
    _add_output_args(p)
    p.add_argument("--samples", type=Path, required=True,
                   help="samples CSV from simulate; the scenario flags must match the "
                        "'scenario' of its .json record, if there is one")
    p.add_argument("--order", type=int, default=None)

    p = sub.add_parser("power", help="minimum power vs density (scaling law)")
    _add_scenario_args(p, density_and_power=False)
    _add_output_args(p)
    p.add_argument("--x-rel", type=float, required=True, help="reliability threshold in (0,1)")
    p.add_argument("--epsilon", type=float, required=True, help="outage tolerance in (0,1)")
    p.add_argument("--lambda-min", type=float, default=1e-4)
    p.add_argument("--lambda-max", type=float, default=1e-2)
    p.add_argument("--lambda-steps", type=int, default=9)
    # SystemParams needs a density and a power; the solve for c_1* reads neither.
    p.set_defaults(lambda_bs=1.0, power_dbm=0.0)

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
        if args.command in ("reconstruct", "compare"):
            from . import jacobi

            if args.order is None:
                args.order = jacobi.DEFAULT_ORDER
            jacobi.check_order(args.order)
        if args.command == "compare":
            _check_campaign(args.samples, args.params)
        if args.command == "reconstruct":
            if args.grid_points < 1:
                raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
            if (args.alpha is None) != (args.beta is None):
                raise ValueError("--alpha and --beta are given together or not at all")
            args.basis = None if args.alpha is None else jacobi.JacobiBasis(
                alpha=args.alpha, beta=args.beta, order=args.order)
        if args.command == "simulate":
            from . import sim

            given = {"region_radius": args.radius_m, "fading_mode": args.mode,
                     "num_channel_draws": args.channel_draws, "rng_seed": args.seed}
            args.config = sim.SimConfig(
                params=args.params, num_realizations=args.realizations,
                **{field: value for field, value in given.items() if value is not None},
            )
            args.summary_path = args.out.with_suffix(".json")
            if args.summary_path == args.out:
                raise ValueError(f"--out {args.out}: the summary JSON would overwrite "
                                 "the samples; use another suffix")
        if args.command == "power":
            from . import scaling

            args.qos = scaling.QosSpec(x_rel=args.x_rel, epsilon=args.epsilon)
            for flag, lam in (("--lambda-min", args.lambda_min),
                              ("--lambda-max", args.lambda_max)):
                if not 0.0 < lam < math.inf:
                    raise ValueError(f"{flag} must be positive and finite, got {lam}")
            if args.lambda_steps < 1:
                raise ValueError(f"--lambda-steps must be at least 1, got {args.lambda_steps}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        # Looked up at call time, so a patched cmd_<command> is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (QuadratureError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
