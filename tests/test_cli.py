"""CLI behaviour: unit conversion, table output, exit codes, file round trips."""
import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from metadist import cli, moments
from metadist.cli import EXIT_IO, EXIT_MATH, EXIT_OK, EXIT_USAGE, db_to_linear, main, mw_to_dbm
from metadist.jacobi import eval_pdf, meta_reliability, reconstruct
from metadist.moments import SystemParams, moment_sequence
from metadist.scaling import QosSpec, min_power
from metadist.sim import SimConfig, campaign_to_dict, empirical_reliability, run_campaign
from metadist.specfun import reg_inc_beta

from oracles import beta_moments


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _default_scenario():
    """The scenario the CLI's default flags describe."""
    return SystemParams(lambda_bs=1e-3, gamma_pl=5.0, theta=db_to_linear(0.0),
                        power=db_to_linear(0.0), noise=db_to_linear(-100.0))


class TestUnitConversions:
    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(float("-inf")) == 0.0

    def test_dbm(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-100.0) == pytest.approx(1e-10, rel=1e-12)
        assert mw_to_dbm(1.0) == 0.0
        assert mw_to_dbm(0.0) == float("-inf")


class TestArgumentParsing:
    @pytest.mark.parametrize("argv", [
        ["moments", "--method", "bogus"],
        ["moments", "--n-max", "x"],
        [],
    ])
    def test_parse_error_returns_usage_code(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_help_returns_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: metadist")

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["moments", "--method", "bogus"]) == EXIT_USAGE
            assert main(["--help"]) == EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert real() is not real()

    def test_subcommand_is_looked_up_at_call_time(self, monkeypatch, capsys):
        # The cached parser must not pin the cmd_* function of its first call.
        argv = ["power", "--x-rel", "0.2", "--epsilon", "0.5", "--gamma", "4", "--theta-db", "-10",
                "--lambda-steps", "1"]
        assert main(argv) == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_power", lambda args: calls.append(args.command) or 7)
        assert main(argv) == 7
        assert calls == ["power"]


class TestMomentsCommand:
    def test_zero_threshold_all_ones(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["moments", "--theta-db=-inf", "--n-max", "4", "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_csv(out)
        assert header == ["n", "mu_exact", "mu_approx", "abs_diff", "error_bound"]
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-10)
            assert float(row[2]) == pytest.approx(1.0, abs=1e-10)

    def test_diff_within_bound(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["moments", "--n-max", "10", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert len(rows) == 10
        for row in rows:
            assert float(row[3]) <= float(row[4])

    def test_gamma_near_two(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["moments", "--gamma", "2.01", "--n-max", "3", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) <= 1e-4

    def test_invalid_gamma_is_usage_error(self):
        assert main(["moments", "--gamma", "1.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_invalid_n_max_is_usage_error(self, value, capsys):
        assert main(["moments", "--n-max", value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_json_format(self, capsys):
        rc = main(["moments", "--n-max", "2", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"][0] == "n"
        assert len(doc["rows"]) == 2

    def test_method_selection(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--method", "exact", "--n-max", "2", "--out", str(out)]) == EXIT_OK
        header, _ = _read_csv(out)
        assert header == ["n", "mu_exact"]

    @pytest.mark.parametrize("scenario", [
        [],
        ["--gamma", "3", "--theta-db=-10"],
        ["--gamma", "2.001", "--theta-db", "20"],
    ])
    def test_noise_free_exact_equals_closed_form(self, scenario, capsys):
        # With no noise the closed form 1/(1 + rho_n) is exact, and the
        # quadrature of exp(-A_n z) lands within rounding of it.
        argv = ["moments", "--noise-dbm=-inf", "--n-max", "10", "--format", "json"]
        assert main(argv + scenario) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [float(r[4]) for r in rows] == [0.0] * 10
        assert max(float(r[3]) for r in rows) <= 1e-15

    def test_exact_column_is_moment_sequence(self, capsys):
        argv = ["--gamma", "4", "--theta-db", "5", "--noise-dbm=-90"]
        assert main(["moments", *argv, "--n-max", "10", "--method", "exact",
                     "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        params = SystemParams(1e-3, 4.0, db_to_linear(5.0), 1.0, db_to_linear(-90.0))
        assert [float(r[1]) for r in rows] == list(moment_sequence(params, 10).values[1:])

    @pytest.mark.parametrize("method", ["exact", "approx", "both"])
    def test_one_gauss_2f1_call_per_n(self, method, monkeypatch):
        calls = []
        real = moments.gauss_2f1

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(moments, "gauss_2f1", counted)
        assert main(["moments", "--n-max", "10", "--method", method]) == EXIT_OK
        assert len(calls) == 10
        assert len(set(calls)) == 10


class TestReconstructCommand:
    def _write_moment_file(self, path, values):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mu"])
            for v in values:
                writer.writerow([repr(v)])

    def test_beta_moment_file(self, tmp_path):
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, beta_moments(2.7, 1.3, 10))
        out = tmp_path / "rec.csv"
        rc = main([
            "reconstruct", "--moments-file", str(mfile), "--order", "10",
            "--grid-points", "21", "--out", str(out),
        ])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert float(rows[0][3]) == 1.0  # x = 0: reliability 1
        assert float(rows[-1][3]) == 0.0  # x = 1: reliability 0
        for row in rows:
            x = float(row[0])
            expected = 1.0 - reg_inc_beta(x, 2.7, 1.3)
            assert float(row[3]) == pytest.approx(expected, abs=1e-8)
        meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
        assert meta["basis"]["order"] == 10
        assert not meta["convergence"]["warning"]

    def test_degenerate_moments_exit(self, tmp_path):
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, [1.0] * 11)
        rc = main(["reconstruct", "--moments-file", str(mfile), "--order", "10"])
        assert rc == EXIT_MATH

    def test_blank_first_line_is_math_error(self, tmp_path, capsys):
        mfile = tmp_path / "mu.csv"
        mfile.write_text("\nmu\n1.0\n0.5\n")
        assert main(["reconstruct", "--moments-file", str(mfile)]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_explicit_basis(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main([
            "reconstruct", "--order", "6", "--basis", "explicit",
            "--alpha", "0.0", "--beta", "0.0", "--grid-points", "11",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
        assert meta["basis"]["alpha"] == 0.0

    def test_explicit_basis_requires_parameters(self):
        assert main(["reconstruct", "--basis", "explicit"]) == EXIT_MATH

    @pytest.mark.parametrize("flag, value", [
        ("--grid-points", "-3"),
        ("--grid-points", "0"),
        ("--order", "-1"),
        ("--order", "21"),
    ])
    def test_invalid_grid_or_order_is_usage_error(self, flag, value, capsys):
        assert main(["reconstruct", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_low_order_succeeds(self, order, capsys):
        assert main(["reconstruct", "--order", order, "--grid-points", "3"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_order_zero_is_matched_beta(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main(["reconstruct", "--order", "0", "--grid-points", "21", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        basis = json.loads((tmp_path / "rec.csv.meta.json").read_text())["basis"]
        xs = np.array([float(row[0]) for row in rows])
        cdf = np.array([float(row[2]) for row in rows])
        expected = reg_inc_beta(xs, basis["beta"] + 1.0, basis["alpha"] + 1.0)
        np.testing.assert_allclose(cdf, expected, rtol=0.0, atol=1e-12)

    def test_pdf_column_is_eval_pdf(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main(["reconstruct", "--order", "10", "--grid-points", "41", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert rows[0][0] == "0.0" and rows[0][1] == ""
        assert rows[-1][0] == "1.0" and rows[-1][1] == ""
        xs = np.array([float(row[0]) for row in rows[1:-1]])
        pdf = np.array([float(row[1]) for row in rows[1:-1]])
        dist = reconstruct(moment_sequence(_default_scenario(), 10), order=10)
        np.testing.assert_allclose(pdf, eval_pdf(dist, xs), rtol=1e-12, atol=0.0)


class TestSimulateCommand:
    def test_deterministic_output_files(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            rc = main([
                "simulate", "--realizations", "200", "--seed", "9", "--out", str(out),
            ])
            assert rc == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        sum_a = json.loads((tmp_path / "a.json").read_text())
        sum_b = json.loads((tmp_path / "b.json").read_text())
        assert sum_a == sum_b

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main([
            "simulate", "--realizations", "100", "--seed", "4", "--out", str(out),
        ])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "c.json").read_text())
        assert summary["config"]["num_realizations"] == 100
        assert len(summary["empirical_moments"]) == 11
        assert summary["empirical_moments"][0] == 1.0
        assert len(summary["reliability_grid"]["x"]) == 101

    def test_summary_is_campaign_record(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["simulate", "--realizations", "100", "--seed", "4", "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "c.json").read_text())
        assert list(summary) == ["scenario", "config", "diagnostics",
                                 "empirical_moments", "reliability_grid"]
        cfg = SimConfig(params=_default_scenario(), num_realizations=100, rng_seed=4)
        record = campaign_to_dict(run_campaign(cfg))
        assert {key: summary[key] for key in record} == record


    @pytest.mark.parametrize("flag, value", [
        ("--realizations", "0"),
        ("--radius-m", "0"),
        ("--channel-draws", "0"),
        ("--seed", "-1"),
    ])
    def test_invalid_campaign_is_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "s.csv"
        assert main(["simulate", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_almost_surely_empty_disk_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        rc = main(["simulate", "--lambda", "1e-15", "--realizations", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "probability" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_underflowing_moments_still_write_summary(self, tmp_path):
        # At 60 dB every CCP sample is below 1e-40, so mean(c^n) underflows to 0.0.
        out = tmp_path / "h.csv"
        rc = main(["simulate", "--theta-db", "60", "--gamma", "2.5", "--noise-dbm", "-120",
                   "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "h.json").read_text())
        assert summary["empirical_moments"][-1] == 0.0

    def test_json_out_would_overwrite_samples(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["simulate", "--realizations", "5", "--out", str(out)]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        assert "wrote" not in capsys.readouterr().err


class TestCompareCommand:
    def test_round_trip_moments(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--realizations", "300", "--seed", "2",
                     "--out", str(samples)]) == EXIT_OK
        recorded = json.loads((tmp_path / "s.json").read_text())["empirical_moments"]
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--samples", str(samples), "--order", "8",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())
        assert len(meta["empirical_moments"]) == len(recorded)
        for a, b in zip(meta["empirical_moments"], recorded):
            assert abs(a - b) <= 1e-12

    def test_columns_match_library(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--realizations", "300", "--seed", "2",
                     "--out", str(samples)]) == EXIT_OK
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--samples", str(samples), "--order", "8",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        cols = np.array([[float(v) for v in row] for row in rows])
        xs, emp_rel, beta_rel, fj_rel = cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]
        # The printed grid is the 0.01..0.99 grid where the empirical curve is >= 0.02.
        grid = np.linspace(0.01, 0.99, 99)
        cfg = SimConfig(params=_default_scenario(), num_realizations=300, rng_seed=2)
        grid_rel = empirical_reliability(run_campaign(cfg).ccp_samples, grid)
        np.testing.assert_array_equal(xs, grid[grid_rel >= 0.02])
        np.testing.assert_array_equal(emp_rel, grid_rel[grid_rel >= 0.02])
        dist = reconstruct(moment_sequence(_default_scenario(), 8), order=8)
        a, b = dist.basis.alpha, dist.basis.beta
        meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())
        assert meta["basis"] == {"alpha": a, "beta": b}
        np.testing.assert_allclose(fj_rel, meta_reliability(dist, xs), rtol=1e-12, atol=0.0)
        expected_beta = [1.0 - reg_inc_beta(x, b + 1.0, a + 1.0) for x in xs]
        np.testing.assert_allclose(beta_rel, expected_beta, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("value", ["-1", "21"])
    def test_invalid_order_is_usage_error(self, tmp_path, value, capsys):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--realizations", "20", "--out", str(samples)]) == EXIT_OK
        assert main(["compare", "--samples", str(samples), "--order", value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_low_order_succeeds(self, tmp_path, order):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--realizations", "50", "--out", str(samples)]) == EXIT_OK
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--samples", str(samples), "--order", order,
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert len(rows) > 0

    def test_order_zero_fj_is_beta(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--realizations", "300", "--seed", "2",
                     "--out", str(samples)]) == EXIT_OK
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--samples", str(samples), "--order", "0",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        beta_rel = np.array([float(row[2]) for row in rows])
        fj_rel = np.array([float(row[3]) for row in rows])
        np.testing.assert_allclose(fj_rel, beta_rel, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("content", ["ccp\n", "ccp\n0.5\n1.5\n", "ccp\n-0.1\n"])
    def test_invalid_samples_is_math_error(self, tmp_path, content, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text(content)
        assert main(["compare", "--samples", str(samples)]) == EXIT_MATH
        assert capsys.readouterr().out == ""

    def test_blank_first_line_is_math_error(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("\nccp\n0.5\n")
        assert main(["compare", "--samples", str(samples)]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_nan_sample_is_reported_as_such(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("ccp\n0.5\nnan\n0.7\n")
        assert main(["compare", "--samples", str(samples)]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CCP samples must lie in [0, 1]" in captured.err

    def test_zero_threshold_degenerate(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--theta-db=-inf", "--realizations", "50",
                     "--seed", "1", "--out", str(samples)]) == EXIT_OK
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--theta-db=-inf", "--samples", str(samples),
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert len(rows) > 0
        for row in rows:
            assert float(row[1]) == 1.0
            assert float(row[2]) == 1.0
            assert float(row[3]) == 1.0
            assert float(row[4]) == 0.0
            assert float(row[5]) == 0.0

    def test_missing_samples_is_io_error(self, tmp_path):
        rc = main(["compare", "--samples", str(tmp_path / "absent.csv")])
        assert rc == EXIT_IO


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["moments", "--theta-db", "inf"],
        ["moments", "--lambda", "inf"],
        ["moments", "--gamma", "inf"],
        ["moments", "--power-dbm", "inf"],
        ["moments", "--noise-dbm", "inf"],
        ["moments", "--lambda", "nan"],
        ["reconstruct", "--theta-db", "inf"],
        ["simulate", "--gamma", "inf"],
        ["simulate", "--radius-m", "inf"],
        ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-max", "inf"],
        ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-min", "inf"],
    ])
    def test_usage_error(self, argv, tmp_path, capsys):
        if argv[0] == "simulate":
            argv = argv + ["--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestPowerCommand:
    def test_slope_in_meta(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main([
            "power", "--x-rel", "0.2", "--epsilon", "0.5", "--gamma", "4",
            "--theta-db", "-10", "--out", str(out),
        ])
        assert rc == EXIT_OK
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert abs(meta["loglog_slope"] + 2.0) <= 1e-6
        _, rows = _read_csv(out)
        assert len(rows) == 9
        p0 = float(rows[0][1])
        assert float(rows[0][2]) == pytest.approx(10.0 * math.log10(p0), rel=1e-12)

    def test_gamma_five_slope(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main([
            "power", "--x-rel", "0.2", "--epsilon", "0.5", "--gamma", "5",
            "--theta-db", "-10", "--out", str(out),
        ])
        assert rc == EXIT_OK
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert abs(meta["loglog_slope"] + 2.5) <= 1e-6

    def test_one_2f1_per_run(self, monkeypatch, capsys):
        # rho_2 does not depend on lambda: p = c lambda^(-gamma/2) with c
        # solved once, and every row is still that density's min_power.
        calls = []
        real = moments.gauss_2f1
        monkeypatch.setattr(moments, "gauss_2f1", lambda *a: calls.append(a) or real(*a))
        assert main(["power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                     "--format", "json"]) == EXIT_OK
        assert len(calls) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 9
        params = dataclasses.replace(_default_scenario(), theta=db_to_linear(-10.0))
        qos = QosSpec(x_rel=0.2, epsilon=0.5)
        for lam, p_mw, _ in rows:
            scenario = dataclasses.replace(params, lambda_bs=float(lam))
            assert float(p_mw) == min_power(scenario, qos)

    def test_infeasible_exit(self):
        rc = main(["power", "--x-rel", "0.9", "--epsilon", "0.05", "--gamma", "5",
                   "--theta-db", "10"])
        assert rc == EXIT_MATH

    def test_invalid_qos_is_usage_error(self):
        assert main(["power", "--x-rel", "1.5", "--epsilon", "0.5"]) == EXIT_USAGE
        assert main(["power", "--x-rel", "0.5", "--epsilon", "0.5",
                     "--gamma", "2.0"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--lambda-max", "-1"),
        ("--lambda-max", "0"),
        ("--lambda-steps", "0"),
    ])
    def test_invalid_sweep_is_usage_error(self, flag, value, capsys):
        assert main(["power", "--x-rel", "0.2", "--epsilon", "0.5", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_single_step_has_no_slope_and_no_zero_note(self, capsys):
        assert main(["power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                     "--lambda-steps", "1", "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["rows"]) == 1 and float(doc["rows"][0][1]) > 0.0
        assert "loglog_slope" not in doc["meta"]
        assert captured.err == ""

    def test_equal_densities_have_no_slope(self, capsys):
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-min", "1e-2",
                "--lambda-max", "1e-2", "--lambda-steps", "3", "--format", "json"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_OK
        assert caught == []
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["rows"]) == 3
        assert "loglog_slope" not in doc["meta"]
        assert "slope" not in captured.err

    def test_noise_free_notes_zero_power(self, capsys):
        assert main(["power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                     "--noise-dbm=-inf", "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert all(float(row[1]) == 0.0 for row in doc["rows"])
        assert "loglog_slope" not in doc["meta"]
        assert "reported as 0 mW" in captured.err
        assert "slope" not in captured.err
