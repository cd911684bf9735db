"""End-to-end and per-layer benchmark of the metadist pipeline.

    python3 perfbench/run.py --workload {sweep,cli,sampled} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
process, one thread: the BLAS thread pools are pinned to one thread before
numpy loads, and set-up is timed in short-lived child processes that are
each waited for.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh imports), then a fixed number of whole cycles of ops, as many
as take ``--seconds`` of wall time on the reference host (see probe.py).
The work, and so ``attempted`` and ``failed``, depends only on the seed and
``--seconds``, never on the speed of the host.  Each op is checked against
the scipy oracles right after it runs, outside its timing.  ``--trace 1``
runs the same kind of untraced phase for half the time, replays exactly
those ops with every layer function wrapped in spans, and reports the
per-layer metrics plus the tracing overhead.

Times are speed-adjusted (see probe.py): the workload's probe is timed just
before each op, the compute probe inside each set-up child, and each
measurement is scaled by the probe's reference time over the probe.  The
raw figures are printed next to the scaled ones.

Output: a provenance line and one line per metric (name, value, unit,
sample count), then, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts ops that
raised, exited non-zero or missed an oracle; ``correct`` is true when every
op was run and classified by its oracle and at least one passed, so known
defects show up in ``failed`` (and ``ok_ratio``) rather than suppressing the
result.  Spans and a full report go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One thread: pin the BLAS pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import probe  # noqa: E402
import scenarios  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 7
TAIL_BEYOND = 10

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import metadist, metadist.cli
metadist.moment_sequence(metadist.SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10), 2)
elapsed = time.perf_counter() - t0
import probe
print(elapsed, min(probe.COMPUTE() for _ in range(3)))
"""

END_TO_END_UNITS = {
    "goodput_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "quadrature.calls": "count",
    "quadrature.busy_s": "s",
    "quadrature.evals": "count",
    "quadrature.evals_per_call": "count",
    "quadrature.failed": "count",
    "specfun.gauss_2f1.calls": "count",
    "specfun.gauss_2f1.busy_s": "s",
    "specfun.gauss_2f1.distinct_ratio": "ratio",
    "specfun.reg_inc_beta.calls": "count",
    "specfun.reg_inc_beta.busy_s": "s",
    "jacobi.eval_cdf.busy_s": "s",
    "jacobi.eval_cdf.points": "count",
    "jacobi.reconstruct.busy_s": "s",
    "jacobi.eval_pdf.busy_s": "s",
    "jacobi.convergence_warnings": "count",
    "moments.moment_sequence.busy_s": "s",
    "moments.self_s": "s",
    "sim.run_campaign.busy_s": "s",
    "sim.realizations_per_s": "1/s",
    "sim.draw_ppp.busy_s": "s",
    "sim.ccp_analytic.busy_s": "s",
    "sim.redraws": "count",
    "sim.ccp_sampled.busy_s": "s",
    "sim.ccp_sampled.bytes_computed": "bytes",
    "scaling.min_power.busy_s": "s",
    "scaling.infeasible": "count",
    "cli.moments.busy_s": "s",
    "cli.reconstruct.busy_s": "s",
    "cli.simulate.busy_s": "s",
    "cli.compare.busy_s": "s",
    "cli.power.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_metadist():
    """metadist from this checkout's src/, never from site-packages."""
    if not (SRC / "metadist" / "__init__.py").is_file():
        raise SystemExit(f"error: no metadist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import metadist
    import metadist.cli  # noqa: F401

    if Path(metadist.__file__).resolve().parent != (SRC / "metadist").resolve():
        raise SystemExit(f"error: imported metadist from {metadist.__file__}")
    return metadist


def measure_setup() -> tuple[list[float], list[float]]:
    """Import + first call, each in a fresh interpreter: raw times and probes."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(here)]))
    raw, probes = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, probe = proc.stdout.split()[-2:]
        raw.append(float(elapsed))
        probes.append(float(probe))
    return raw, probes


class OpRecord:
    __slots__ = ("scenario", "latency", "probe", "error", "reasons", "bytes_written")

    def __init__(self, scenario, latency, probe, error):
        self.scenario, self.latency, self.probe, self.error = scenario, latency, probe, error
        self.reasons: list[str] = []
        self.bytes_written = 0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.reasons


def run_ops(wl, md, workdir: Path, scenario_cycles, tracer=None):
    """Run, time and check every op of every cycle in ``scenario_cycles``.

    An op's latency covers only the call into the workload (a failure
    counts at its time to raise); with a tracer each op is a ``bench.op``
    span.  The speed probe before it and the check after it are untimed.
    Files an op writes are counted and deleted once it has been checked.
    """
    import checks

    check = getattr(checks, f"check_{wl.name}")
    records: list[OpRecord] = []
    for cycle in scenario_cycles:
        for s in cycle:
            opdir = workdir / f"op{len(records):05d}"
            speed = wl.probe()
            output = error = None
            if tracer is not None:
                tracer.op = len(records)
            span = tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()
            t0 = perf_counter()
            with span:
                try:
                    output = wl.run(md, s, opdir)
                except Exception as exc:  # an op failure is data, not a crash
                    error = f"{type(exc).__name__}: {exc}"
            rec = OpRecord(s, perf_counter() - t0, speed, error)
            if error is None:
                try:
                    rec.reasons = check(s, output)
                except Exception as exc:  # unreadable output fails the op
                    rec.reasons = [f"check: raised {type(exc).__name__}: {exc}"]
            if opdir.exists():
                rec.bytes_written = sum(p.stat().st_size for p in opdir.rglob("*") if p.is_file())
                shutil.rmtree(opdir)
            records.append(rec)
    return records


def cycles(wl, seed: int, seconds: float):
    """The cycles of ``seed`` that take about ``seconds`` on the reference host."""
    for c in range(max(1, round(seconds / wl.cycle_s))):
        yield wl.make_cycle(seed, c)


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with >= 10 samples beyond."""
    n = len(latencies)
    pct = min(99.0, max(50.0, math.floor(100.0 * (1.0 - TAIL_BEYOND / n))))
    return pct, float(np.percentile(latencies, pct))


def failure_summary(records: list[OpRecord]) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in records:
        if not r.ok:
            key = r.error.split(":")[0] if r.error else "oracle " + r.reasons[0].split(":")[0]
            out[key] = out.get(key, 0) + 1
    return out


def provenance(args, md, records: list[OpRecord], extra: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((SRC / "metadist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "metadist": md.__version__, "ops": len(records), **extra,
    }


def end_to_end(wl, records, peak_rss_mb, setup_raw, setup_probes) -> tuple[dict, dict]:
    raw = np.array([r.latency for r in records])
    lat = raw * wl.probe.scales([r.probe for r in records])
    setup = np.asarray(setup_raw) * probe.COMPUTE.ref_s / np.asarray(setup_probes)
    n = len(records)
    passed = sum(r.ok for r in records)
    pct, tail_value = tail(lat)
    values = {
        "goodput_ops_per_s": passed / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_tail_ms": 1e3 * tail_value,
        "ok_ratio": passed / n,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": float(np.median(setup)),
    }
    notes = {
        "goodput_ops_per_s": f"{passed} passed ops / {lat.sum():.3f} s of op time; "
                             f"raw {passed / raw.sum():.6g}",
        "op_p50_ms": f"n={n}; raw {1e3 * np.median(raw):.6g}",
        "op_tail_ms": f"p{pct:g}, n={n}, {n - math.ceil(pct / 100 * n)} beyond; "
                      f"raw {1e3 * tail(raw)[1]:.6g}",
        "ok_ratio": f"n={n}",
        "peak_rss_mb": "ru_maxrss of the whole run, oracles loaded",
        "setup_s": f"median of n={len(setup)}; raw {statistics.median(setup_raw):.6g}",
    }
    return values, notes


def per_layer(wl, tracer, untraced: list[OpRecord], traced: list[OpRecord]) -> dict:
    import tracing

    c = tracer.counts
    busy = tracing.busy_times(tracer.spans)
    layer_self = tracing.layer_self_times(tracer.spans)
    calls = c["quadrature.calls"]
    g_calls = c["specfun.gauss_2f1.calls"]
    run_busy = busy["sim.run_campaign"]

    def scaled_time(records):
        return float(np.dot([r.latency for r in records], wl.probe.scales([r.probe for r in records])))

    values = {
        "quadrature.calls": calls,
        "quadrature.busy_s": busy["quadrature.integrate_semi_infinite_decaying"],
        "quadrature.evals": c["quadrature.evals"],
        "quadrature.evals_per_call": c["quadrature.evals"] / calls if calls else 0.0,
        "quadrature.failed": c["quadrature.failed"],
        "specfun.gauss_2f1.calls": g_calls,
        "specfun.gauss_2f1.busy_s": busy["specfun.gauss_2f1"],
        "specfun.gauss_2f1.distinct_ratio": len(tracer.gauss_args) / g_calls if g_calls else 0.0,
        "specfun.reg_inc_beta.calls": c["specfun.reg_inc_beta.calls"],
        "specfun.reg_inc_beta.busy_s": busy["specfun.reg_inc_beta"],
        "jacobi.eval_cdf.busy_s": busy["jacobi.eval_cdf"],
        "jacobi.eval_cdf.points": c["jacobi.eval_cdf.points"],
        "jacobi.reconstruct.busy_s": busy["jacobi.reconstruct"],
        "jacobi.eval_pdf.busy_s": busy["jacobi.eval_pdf"],
        "jacobi.convergence_warnings": c["jacobi.convergence_warnings"],
        "moments.moment_sequence.busy_s": busy["moments.moment_sequence"],
        "moments.self_s": layer_self["moments"],
        "sim.run_campaign.busy_s": run_busy,
        "sim.realizations_per_s": c["sim.realizations"] / run_busy if run_busy else 0.0,
        "sim.draw_ppp.busy_s": busy["sim.draw_ppp"],
        "sim.ccp_analytic.busy_s": busy["sim.ccp_analytic"],
        "sim.redraws": c["sim.redraws"],
        "sim.ccp_sampled.busy_s": busy["sim.ccp_sampled"],
        "sim.ccp_sampled.bytes_computed": c["sim.ccp_sampled.bytes_computed"],
        "scaling.min_power.busy_s": busy["scaling.min_power"],
        "scaling.infeasible": c["scaling.infeasible"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": sum(r.bytes_written for r in traced),
        "cli.exit_nonzero": c["cli.exit_nonzero"],
        "trace.overhead_ratio": scaled_time(traced) / scaled_time(untraced),
    }
    for cmd in ("moments", "reconstruct", "simulate", "compare", "power"):
        values[f"cli.{cmd}.busy_s"] = busy[f"cli.{cmd}"]
    return {k: values[k] for k in PER_LAYER_UNITS}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    md = import_metadist()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        setup_raw, setup_probes = measure_setup() if args.trace == 0 else ([], [])

        # Warm-up on the reference scenario: lazy imports and caches settle.
        run_ops(wl, md, workdir, [[scenarios.REFERENCE]])

        budget = args.seconds if args.trace == 0 else args.seconds / 2.0
        records = run_ops(wl, md, workdir, cycles(wl, args.seed, budget))

        extra: dict = {}
        if args.trace == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, notes = end_to_end(wl, records, peak_rss_mb, setup_raw, setup_probes)
            units = END_TO_END_UNITS
            extra.update(setup_raw_s=setup_raw, setup_probe_s=setup_probes)
        else:
            import tracing

            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced = run_ops(wl, md, workdir, [[r.scenario for r in records]], tracer)
            values = per_layer(wl, tracer, records, traced)
            notes = dict.fromkeys(values, f"n={len(traced)} ops")
            units = PER_LAYER_UNITS
            spans_path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.json.gz"
            tracer.write(spans_path)
            extra.update(spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
            records = traced

        failed = sum(not r.ok for r in records)
        extra["failures"] = failure_summary(records)
        prov = provenance(args, md, records, extra)
        print("provenance " + json.dumps(prov, sort_keys=True))
        for name, value in values.items():
            print(f"metric {name} {value!r} {units[name]} ({notes[name]})")
        print(f"metric failed_ratio {failed / len(records)!r} ratio "
              f"({failed} of {len(records)} ops raised, exited non-zero or missed an oracle)")
        report = {"provenance": prov, "metrics": values, "units": units, "notes": notes,
                  "ops": [{"scenario": vars(r.scenario), "latency_s": r.latency,
                           "probe_s": r.probe, "error": r.error, "reasons": r.reasons}
                          for r in records]}
        (OUT_DIR / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        # Every op has been run and classified by its oracle; the program's
        # failures are counted in "failed".  A run in which nothing passes
        # cannot vouch for the oracles and is not correct.
        result = {
            "correct": failed < len(records),
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
