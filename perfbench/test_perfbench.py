"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import scenarios
import tracing
from workloads import WORKLOADS

md = run.import_metadist()
import checks  # noqa: E402  (after metadist: both resolve against this checkout)


# --- scenario generation ------------------------------------------------------------


def test_scenarios_depend_only_on_the_seed():
    first = scenarios.cycle(7, 3)
    np.random.seed(12345)  # global numpy state must not leak in
    scenarios.cycle(7, 0)  # nor must the cycles generated before it
    assert scenarios.cycle(7, 3) == first
    assert scenarios.cycle(8, 3) != first


def test_every_cycle_uses_each_threshold_and_each_slice_of_each_range_once():
    for c in range(5):
        batch = scenarios.cycle(3, c)
        assert sorted(s.theta_db for s in batch) == list(scenarios.THETA_GRID_DB)
        for values, (lo, hi) in (
            ([s.gamma_pl for s in batch], scenarios.GAMMA),
            ([np.log10(s.lambda_bs) for s in batch], scenarios.LOG10_LAMBDA),
            ([s.noise_dbm for s in batch], scenarios.NOISE_DBM),
        ):
            slots = sorted(int((v - lo) / (hi - lo) * scenarios.STRATA) for v in values)
            assert slots == list(range(scenarios.STRATA))


def test_a_run_does_a_fixed_number_of_cycles_set_by_the_seconds():
    wl = WORKLOADS["sweep"]
    assert len(list(run.cycles(wl, 1, 10 * wl.cycle_s))) == 10
    assert len(list(run.cycles(wl, 1, 0.1 * wl.cycle_s))) == 1
    assert list(run.cycles(wl, 4, 3 * wl.cycle_s)) == [wl.make_cycle(4, c) for c in range(3)]


def test_the_failure_count_of_a_sweep_cycle_does_not_depend_on_the_seed(tmp_path):
    # gauss_2f1 loses accuracy at 28 dB and raises from 36 dB up, on every scenario.
    wl = WORKLOADS["sweep"]
    for seed in (1, 2, 3):
        records = run.run_ops(wl, md, tmp_path, [wl.make_cycle(seed, seed)])
        failed = {r.scenario.theta_db: r for r in records if not r.ok}
        assert sorted(failed) == [28.0, 36.0, 44.0, 52.0, 60.0]
        assert failed[28.0].error is None and failed[28.0].reasons[0].startswith("mu_exact:")
        assert all(failed[t].error.startswith("ValueError") for t in (36.0, 44.0, 52.0, 60.0))


def test_feasible_qos_is_feasible_at_the_top_of_the_range():
    s = scenarios.Scenario(lambda_bs=1e-3, gamma_pl=2.5, theta_db=60.0,
                           noise_dbm=-80.0, sim_seed=0)
    x_rel, eps = scenarios.feasible_qos(s)
    target = 1.0 - eps + x_rel**2
    assert 0.0 < x_rel < 1.0 and 0.0 < eps < 1.0
    assert target * checks.one_plus_rho(2, s.gamma_pl, s.theta) < 1.0


# --- oracles --------------------------------------------------------------------------


def test_sweep_oracle_passes_the_reference_and_flags_perturbations(tmp_path):
    s = scenarios.REFERENCE
    out = WORKLOADS["sweep"].run(md, s, tmp_path)
    assert checks.check_sweep(s, out) == []

    exact = list(out["exact"])
    exact[3] += 1e-8
    assert checks.check_sweep(s, {**out, "exact": exact})[0].startswith("mu_exact:")

    cdf = np.array(out["cdf"])
    cdf[500] += 1e-6
    assert checks.check_sweep(s, {**out, "cdf": cdf})[0].startswith("cdf:")

    bad_power = {**out, "min_power": out["min_power"] * (1.0 + 1e-6)}
    assert checks.check_sweep(s, bad_power)[0].startswith("min_power:")


def test_cli_oracle_flags_an_edited_output_file(tmp_path):
    s = scenarios.REFERENCE
    out = WORKLOADS["cli"].run(md, s, tmp_path / "op")
    assert out["exit_codes"] == dict.fromkeys(out["exit_codes"], 0)
    assert checks.check_cli(s, out) == []

    path = tmp_path / "op" / "moments.csv"
    rows = list(csv.reader(path.open()))
    rows[2][1] = repr(float(rows[2][1]) * (1.0 + 1e-6))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert checks.check_cli(s, out)[0].startswith("mu_exact:")

    assert checks.check_cli(s, {**out, "exit_codes": {**out["exit_codes"], "power": 3},
                                "errors": ["error: x"]})[0].startswith("exit:")


def test_campaign_oracle_flags_a_shifted_mean():
    s = scenarios.REFERENCE
    m1, m2 = checks.disk_moment(s, 1), checks.disk_moment(s, 2)
    var = m2 - m1 * m1 + (m1 - m2) / 700
    se = (var / 20) ** 0.5
    out = {"mean": m1 + se, "var": var, "realizations": 20, "draws": 700}
    assert checks.check_sampled(s, out) == []
    assert checks.check_sampled(s, {**out, "mean": m1 + 5 * se})[0].startswith("campaign:")
    # A campaign whose own spread is wider is judged by its own standard error.
    assert checks.check_sampled(s, {**out, "mean": m1 + 5 * se, "var": 4 * var}) == []


def test_disk_oracle_tends_to_the_plane_oracle_for_a_large_disk():
    s = scenarios.REFERENCE
    plane = checks.moment(s, 2)
    assert abs(checks.disk_moment(s, 2, radius=5e3) - plane) < 1e-6
    assert abs(checks.disk_moment(s, 2) - plane) > 1e-6  # R = 500 m is not the plane


# --- tracing --------------------------------------------------------------------------


def test_span_self_times_add_up_to_the_traced_wall_time(tmp_path):
    wl = WORKLOADS["sweep"]
    tracer = tracing.Tracer()
    original = md.moments.gauss_2f1
    with tracing.patched(tracer), tracer.span("bench.run"):
        run.run_ops(wl, md, tmp_path, [[scenarios.REFERENCE]], tracer)
    assert md.moments.gauss_2f1 is original  # patches are undone

    root = tracer.spans[0]
    assert root[0] == "bench.run" and root[3] == -1
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert all(t >= -1e-9 for t in tracing.self_times(tracer.spans))

    names = {span[0] for span in tracer.spans}
    assert {"specfun.gauss_2f1", "quadrature.integrate_semi_infinite_decaying",
            "specfun.reg_inc_beta", "jacobi.eval_cdf", "scaling.min_power"} <= names
    assert tracer.counts["quadrature.evals"] > 0


def test_busy_time_counts_nested_same_name_spans_once():
    spans = [["a", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["b", 5.0, 6.0, 0, 0]]
    assert tracing.busy_times(spans) == {"a": 10.0, "b": 1.0}
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


# --- reporting --------------------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value = run.tail(list(range(1, 101)))
    assert pct == 90 and value == pytest.approx(90.1)
    assert run.tail(list(range(40)))[0] == 75


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
