"""CLI behaviour: unit conversion, table output, exit codes, file round trips."""
import csv
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from metadist import cli, moments, sim
from metadist.cli import EXIT_IO, EXIT_MATH, EXIT_OK, EXIT_USAGE, db_to_linear, main, mw_to_dbm
from metadist.jacobi import (
    JacobiBasis, eval_cdf, eval_pdf, fourier_jacobi_coeffs, meta_reliability, reconstruct,
)
from metadist.moments import SystemParams, moment_sequence
from metadist.quadrature import DEFAULT_TOL
from metadist.scaling import QosSpec, min_power
from metadist.sim import SimConfig, campaign_to_dict, empirical_reliability, run_campaign
from metadist.specfun import reg_inc_beta

from oracles import beta_moments, moment_t_mpmath, one_plus_rho_scipy


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

    @pytest.mark.parametrize("flag", ["--theta-db", "--noise-dbm"])
    def test_help_names_the_equals_form_of_minus_inf(self, flag, monkeypatch, capsys):
        # argparse reads a separate "-inf" as an option, not as the flag's value.
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["moments", "--help"]) == EXIT_OK
        assert f"{flag}=-inf" in capsys.readouterr().out
        assert main(["moments", flag, "-inf"]) == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

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

    def test_power_and_moments_share_the_scenario_defaults(self):
        parser = cli.build_parser()
        power = parser.parse_args(["power", "--x-rel", "0.3", "--epsilon", "0.7"])
        mom = parser.parse_args(["moments"])
        for name in ("gamma", "theta_db", "noise_dbm"):
            assert getattr(power, name) == getattr(mom, name)
        assert (power.gamma, power.theta_db, power.noise_dbm) == (5.0, 0.0, -100.0)

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

    def test_error_bound_at_a_tiny_density(self, capsys):
        # c_1 is about 3.2e145 at lambda 1e-150, so c_n^(gamma/2) is past the
        # doubles: the bound must stay in the z-form A_n, B_n to be finite.
        argv = ["moments", "--lambda", "1e-150", "--n-max", "2", "--format", "json"]
        assert main(argv) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2
        for row in rows:
            bound = float(row[4])
            assert math.isfinite(bound) and bound > 0.0 and bound >= float(row[3])

    def test_subnormal_noise_root_without_warning(self, capsys):
        # c_1 is about 4.5e-309, below the normal doubles, so r_n = a_n / c_n
        # overflows to inf, where the Weibull form's -expm1(-inf) = 1 is the
        # exact limit.  The expected values come from the t-form quadrature.
        argv = ["moments", "--method", "exact", "--n-max", "3", "--noise-dbm", "-3000",
                "--theta-db", "-60", "--gamma", "2.001", "--lambda", "100", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        got = [float(row[1]) for row in json.loads(capsys.readouterr().out)["rows"]]
        expected = [0.9980039920169628, 0.9960159362579528, 0.9940357852941926]
        assert got == pytest.approx(expected, rel=DEFAULT_TOL)

    def test_error_bound_is_inf_past_the_doubles(self, capsys):
        # Gamma(gamma/2) overflows above gamma 343.2; the bound's second term
        # is taken in logs and reads inf where it exceeds the doubles.
        assert main(["moments", "--gamma", "1e6", "--n-max", "3", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row[4] for row in rows] == ["inf"] * 3

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
        # With no noise both columns are 1/(1 + rho_n), with no quadrature.
        argv = ["moments", "--noise-dbm=-inf", "--n-max", "10", "--format", "json"]
        assert main(argv + scenario) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [float(r[4]) for r in rows] == [0.0] * 10
        assert [float(r[3]) for r in rows] == [0.0] * 10

    def test_overflowing_noise_term(self, capsys):
        # theta sigma2 / p overflows: the moments are 0.0, and the error
        # bound, which is inf / inf there, is a math error, not a NaN row.
        argv = ["moments", "--noise-dbm", "3000", "--power-dbm=-3000", "--n-max", "3"]
        assert main([*argv, "--method", "exact", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [float(r[1]) for r in rows] == [0.0] * 3
        assert main(argv) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b_coef must be nonnegative and finite, got inf" in captured.err

    def test_exact_column_is_moment_sequence(self, capsys):
        argv = ["--gamma", "4", "--theta-db", "5", "--noise-dbm=-90"]
        assert main(["moments", *argv, "--n-max", "10", "--method", "exact",
                     "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        params = SystemParams(1e-3, 4.0, db_to_linear(5.0), 1.0, db_to_linear(-90.0))
        assert [float(r[1]) for r in rows] == list(moment_sequence(params, 10).values[1:])

    # At 29 dB the 2F1 series' defect makes mu_10 exceed mu_9 in both
    # columns, which no law on [0, 1] allows.
    _DEFECT_ARGV = ["--gamma", "2.05", "--theta-db", "29", "--lambda", "1e-8",
                    "--noise-dbm", "-200", "--format", "json"]

    def test_closed_form_column_is_a_moment_sequence(self, capsys):
        # The column is nonincreasing, or the run exits 3 and names the
        # column's method and the pair.
        rc = main(["moments", "--method", "approx", *self._DEFECT_ARGV])
        captured = capsys.readouterr()
        if rc == EXIT_MATH:
            assert captured.out == ""
            assert re.search(r"^error: closed_form moments must be nonincreasing: "
                             r"mu_\d+=\S+ > mu_\d+=", captured.err)
            return
        assert rc == EXIT_OK
        mu = [float(row[1]) for row in json.loads(captured.out)["rows"]]
        assert all(b <= a for a, b in zip(mu, mu[1:]))

    def test_both_names_the_column_that_failed(self, capsys):
        # `--method both` builds the exact column first, so a failure there
        # names exact_quadrature, not the closed form that fails the same way.
        rc = main(["moments", "--method", "both", *self._DEFECT_ARGV])
        captured = capsys.readouterr()
        if rc == EXIT_MATH:
            assert captured.out == ""
            assert re.search(r"^error: exact_quadrature moments must be nonincreasing: "
                             r"mu_\d+=\S+ > mu_\d+=", captured.err)
            return
        assert rc == EXIT_OK
        rows = json.loads(captured.out)["rows"]
        for col in (1, 2):
            mu = [float(row[col]) for row in rows]
            assert all(b <= a for a, b in zip(mu, mu[1:]))

    @pytest.mark.parametrize("argv, n_max, positive", [
        # 28 dB runs the capped 2F1 series as one numpy chunk of 10,000 terms.
        (["--theta-db", "28", "--n-max", "10"], 10, 10),
        # Twenty orders meet the tolerance on the base rule's 321 integrand
        # evaluations.
        (["--lambda", "4e-4", "--gamma", "11.5", "--theta-db", "2", "--noise-dbm", "-190",
          "--n-max", "20"], 20, 20),
        # Moments of about 1e-7.
        (["--lambda", "1e-8", "--gamma", "8", "--noise-dbm", "-30"], 10, 10),
        # mu_1 is 1.8e-6 at the edge of the range.
        (["--lambda", "2e-9", "--gamma", "19.9", "--theta-db", "-33", "--noise-dbm", "-213.6",
          "--n-max", "10"], 10, 10),
        # c_n is finite up to n = 4 and overflows from n = 5: mu_1..mu_4 are
        # subnormal but positive in both columns, and an overflowing row is 0.0.
        (["--lambda", "3.2e-313", "--n-max", "10"], 10, 4),
    ], ids=["28-db", "gamma-11.5-n-20", "tiny-moments", "gamma-19.9", "overflowing-root"])
    def test_range_edges_print_the_library_columns(self, argv, n_max, positive, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["moments", *argv, "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        s = doc["meta"]["scenario"]
        params = SystemParams(s["lambda_bs"], s["gamma_pl"], s["theta"], s["power_mw"],
                              s["noise_mw"])
        rows = doc["rows"]
        assert len(rows) == n_max
        exact = moment_sequence(params, n_max).values[1:]
        approx = [moments.moment_approx(params, n) for n in range(1, n_max + 1)]
        assert [row[1] for row in rows] == [repr(v) for v in exact]
        assert [row[2] for row in rows] == [repr(v) for v in approx]
        for column in (exact, approx):
            assert all(v > 0.0 for v in column[:positive])
            assert list(column[positive:]) == [0.0] * (n_max - positive)

    def test_both_exits_math_at_29_db(self, capsys):
        # The 2F1 defect pin: until ROADMAP item 1 mends the series, mu_10
        # exceeds mu_9 here and the exact column, built first, is named.
        assert main(["moments", "--method", "both", *self._DEFECT_ARGV]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"^error: exact_quadrature moments must be nonincreasing: "
                         r"mu_10=\S+ > mu_9=", captured.err)

    def test_2f1_below_one_at_170_db_exits_math(self, capsys):
        # At 170 dB w = z/(z-1) rounds to 1.0, so the 2F1 series is sized as
        # its cap; its partial sum puts 1 + rho_1 below 1 (ROADMAP item 1).
        assert main(["moments", "--theta-db", "170", "--n-max", "1"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == (
            "error: 1 + rho_1 must be at least 1, got 4.2351779530289e-12")

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

    def test_non_hausdorff_moment_file_exits_math(self, tmp_path, capsys):
        # Monotone and in [0, 1], yet E[C^2 (1-C)^2] = mu_2 - 2 mu_3 + mu_4 = -0.1.
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, [1.0, 0.5, 0.3, 0.2, 0.0])
        assert main(["reconstruct", "--moments-file", str(mfile), "--order", "4",
                     "--grid-points", "5"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k=2, n=2" in captured.err

    def test_campaign_moments_round_trip(self, tmp_path):
        # Sample moments pass the Hausdorff check and the coefficient map.
        assert main(["simulate", "--realizations", "2000", "--seed", "3",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        mfile = tmp_path / "mu.csv"
        summary = json.loads((tmp_path / "s.json").read_text())
        self._write_moment_file(mfile, summary["empirical_moments"])
        out = tmp_path / "rec.csv"
        assert main(["reconstruct", "--moments-file", str(mfile), "--grid-points", "5",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert float(rows[0][2]) == 0.0 and float(rows[-1][2]) == 1.0
        meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
        assert meta["moment_method"] == "empirical"

    def test_tiny_moments_keep_their_basis(self, tmp_path):
        # mu_1 is 4.6e-15 and mu_2 - mu_1^2 2.3e-15: below 1e-14, yet half the
        # largest variance a law on [0, 1] with this mean can have.
        out = tmp_path / "rec.csv"
        assert main(["reconstruct", "--gamma", "2.05", "--lambda", "1e-8", "--noise-dbm", "70",
                     "--grid-points", "3", "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert float(rows[0][2]) == 0.0 and float(rows[-1][2]) == 1.0

    def test_beta_rounding_to_minus_one_names_beta(self, capsys):
        # At 100 dBm beta + 1 is about 1e-17, so beta rounds to -1.0.
        assert main(["reconstruct", "--gamma", "2.05", "--lambda", "1e-8", "--noise-dbm", "100",
                     "--grid-points", "3"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beta must be finite and exceed -1, got -1.0\n"

    def test_explicit_basis(self, tmp_path):
        out = tmp_path / "rec.csv"
        rc = main([
            "reconstruct", "--order", "6", "--alpha", "0.0", "--beta", "0.0",
            "--grid-points", "11", "--out", str(out),
        ])
        assert rc == EXIT_OK
        meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
        assert meta["basis"] == {"alpha": 0.0, "beta": 0.0, "order": 6}
        _, rows = _read_csv(out)
        xs = np.array([float(row[0]) for row in rows])
        cdf = np.array([float(row[2]) for row in rows])
        dist = fourier_jacobi_coeffs(moment_sequence(_default_scenario(), 6),
                                     JacobiBasis(0.0, 0.0, 6))
        np.testing.assert_allclose(cdf, eval_cdf(dist, xs), rtol=0.0, atol=1e-12)

    def test_explicit_basis_requires_parameters(self):
        # --basis is not an option: the basis is --alpha and --beta together.
        assert main(["reconstruct", "--basis", "explicit"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["--alpha", "0.5"],
        ["--beta", "0.5"],
        ["--alpha", "-2", "--beta", "0"],
        ["--alpha", "nan", "--beta", "0"],
        ["--alpha", "0", "--beta", "inf"],
        ["--basis", "explicit", "--alpha", "0", "--beta", "0"],
    ])
    def test_invalid_basis_is_usage_error_before_any_moment(self, argv, monkeypatch, capsys):
        def no_moments(*args, **kwargs):
            raise AssertionError("a moment was computed")

        monkeypatch.setattr(moments, "moment_sequence", no_moments)
        assert main(["reconstruct", "--grid-points", "3", *argv]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_overflowing_basis_names_the_coefficient(self, capsys):
        # C(2 + 1e300, 2) overflows float64: a_2's binomial weights are infinite.
        assert main(["reconstruct", "--alpha", "1e300", "--beta", "0", "--order", "3",
                     "--grid-points", "3"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: basis (alpha=1e+300, beta=0.0): "
                                "the binomial weights of a_2 overflow\n")

    @pytest.mark.parametrize("flag, value", [
        ("--grid-points", "-3"),
        ("--grid-points", "0"),
        ("--order", "-1"),
        ("--order", "21"),
    ])
    def test_invalid_grid_or_order_is_usage_error(self, flag, value, capsys):
        assert main(["reconstruct", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["reconstruct", "compare"])
    def test_order_above_the_cap_prints_the_basis_message(self, command, tmp_path, capsys):
        with pytest.raises(ValueError) as raised:
            JacobiBasis(0.0, 0.0, 21)
        argv = [command, "--order", "21"]
        if command == "compare":
            argv += ["--samples", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {raised.value}\n"

    @pytest.mark.parametrize("basis, message", [
        # e^(alpha n) overflows from a_13 on.
        (["--alpha", "50", "--beta", "50", "--order", "20"],
         "basis (alpha=50.0, beta=50.0): the decay term of a_13 is not a finite double"),
        (["--alpha", "300", "--beta", "0.5", "--order", "3"],
         "basis (alpha=300.0, beta=0.5): the decay term of a_3 is not a finite double"),
        # h_0 = B(alpha+1, beta+1) is below the doubles.
        (["--alpha", "1e10", "--beta", "1e10", "--order", "2"],
         "basis (alpha=10000000000.0, beta=10000000000.0): the norm h_0 underflows to 0"),
    ])
    def test_extreme_basis_names_its_failure(self, basis, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # order 20's precision warning
            assert main(["reconstruct", *basis, "--grid-points", "3"]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
        for flags, fading in (([], {}), (["--mode", "sampled", "--channel-draws", "50"],
                                         {"fading_mode": "sampled", "num_channel_draws": 50})):
            out = tmp_path / "c.csv"
            rc = main(["simulate", *flags, "--realizations", "100", "--seed", "4",
                       "--out", str(out)])
            assert rc == EXIT_OK
            summary = json.loads((tmp_path / "c.json").read_text())
            assert list(summary) == ["scenario", "config", "diagnostics",
                                     "empirical_moments", "reliability_grid"]
            cfg = SimConfig(params=_default_scenario(), num_realizations=100, rng_seed=4,
                            **fading)
            record = campaign_to_dict(run_campaign(cfg))
            assert {key: summary[key] for key in record} == record

    def test_campaign_defaults_are_sim_configs(self, tmp_path):
        args = cli.build_parser().parse_args(["simulate", "--out", "s.csv"])
        field = {f.name: f.default for f in dataclasses.fields(SimConfig)}
        assert args.radius_m == field["region_radius"]
        assert args.mode == field["fading_mode"]
        assert args.channel_draws == field["num_channel_draws"]
        assert args.seed == field["rng_seed"]
        out = tmp_path / "f.csv"
        assert main(["simulate", "--out", str(out)]) == EXIT_OK
        summary = json.loads((tmp_path / "f.json").read_text())
        cfg = SimConfig(params=_default_scenario(), num_realizations=5000)
        assert summary["config"] == campaign_to_dict(run_campaign(cfg))["config"]

    @pytest.mark.parametrize("flag, value", [
        ("--realizations", "0"),
        ("--radius-m", "0"),
        ("--radius-m", "nan"),
        ("--channel-draws", "0"),
        ("--seed", "-1"),
    ])
    def test_invalid_campaign_is_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "s.csv"
        assert main(["simulate", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_almost_surely_empty_disk_is_usage_error(self, tmp_path, capsys):
        # lambda pi R^2 underflows to 0: no disk holds a BS.
        out = tmp_path / "z.csv"
        rc = main(["simulate", "--lambda", "1e-200", "--radius-m", "1e-200",
                   "--realizations", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "mean BS count lambda pi R^2 is not positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_almost_empty_disk_runs(self, tmp_path):
        # Every disk is empty at first draw, and each realization draws its
        # nearest BS once more, inside the disk.
        out = tmp_path / "z.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--lambda", "1e-15", "--realizations", "300",
                       "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "z.json").read_text())
        assert summary["diagnostics"]["redraws"] == 300
        assert len(sim.read_samples_csv(out)) == 300

    def test_infinite_mean_count_is_the_plane(self, tmp_path):
        # lambda pi R^2 overflows to inf at R = 1e300: the same samples as
        # R = inf, the infinite plane, whose radius the summary writes as null.
        for mode in ("analytic", "sampled"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for radius in ("inf", "1e300"):
                    assert main(["simulate", "--mode", mode, "--radius-m", radius,
                                 "--realizations", "600", "--seed", "3",
                                 "--out", str(tmp_path / f"{radius}.csv")]) == EXIT_OK
            assert (tmp_path / "inf.csv").read_bytes() == (tmp_path / "1e300.csv").read_bytes()
            plane, wide = (json.loads((tmp_path / f"{r}.json").read_text())
                           for r in ("inf", "1e300"))
            assert plane["config"]["region_radius_m"] is None
            assert wide["config"]["region_radius_m"] == 1e300
            assert plane["diagnostics"] == wide["diagnostics"] == {"redraws": 0}

    def test_huge_mean_count_runs(self, tmp_path):
        # lambda pi R^2 = 3.1e15 BSs a disk, of which a realization draws its
        # NEAREST_BS nearest.
        out = tmp_path / "b.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--radius-m", "1e9", "--realizations", "1",
                       "--out", str(out)])
        assert rc == EXIT_OK
        assert len(sim.read_samples_csv(out)) == 1

    def test_underflowing_moments_still_write_summary(self, tmp_path):
        # At 60 dB and gamma 2.05 every CCP sample is below 1e-140, so mean(c^n)
        # underflows to 0.0 from n = 3 on.
        out = tmp_path / "h.csv"
        rc = main(["simulate", "--theta-db", "60", "--gamma", "2.05", "--noise-dbm", "-120",
                   "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "h.json").read_text())
        assert summary["empirical_moments"][-1] == 0.0

    @pytest.mark.parametrize("argv", [
        ["--gamma", "20", "--theta-db=-60", "--lambda", "1e-8"],
        ["--gamma", "2.01", "--theta-db", "60"],
        ["--gamma", "20", "--theta-db=-60", "--lambda", "1e-8", "--radius-m", "inf"],
        ["--gamma", "2.01", "--theta-db", "60", "--radius-m", "inf"],
    ], ids=["underflow-disk", "far-above-one-disk", "underflow-plane", "far-above-one-plane"])
    def test_far_field_edges_run(self, argv, tmp_path):
        # At gamma 20 and -60 dB the far field's arguments underflow to 0, and
        # at gamma 2.01 and 60 dB they run far above 1; neither may overflow,
        # divide by zero or make NaN, on the disk or on the plane, where the
        # edge term is F(0).
        out = tmp_path / "f.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", *argv, "--out", str(out)]) == EXIT_OK
        assert len(sim.read_samples_csv(out)) == 5000

    def test_zero_threshold_samples_are_one(self, tmp_path):
        # theta = 0 over two blocks: every CCP is exactly 1, and no kernel
        # step may overflow or make NaN.
        out = tmp_path / "t0.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--theta-db=-inf", "--realizations", "300",
                         "--out", str(out)]) == EXIT_OK
        rows = out.read_text().split()
        assert rows[0] == "ccp" and rows[1:] == ["1.0"] * 300

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

    @pytest.mark.parametrize("gamma, theta_db", [
        ("5", "0"), ("3", "10"), ("4", "-10"), ("2.5", "20"),
    ])
    def test_beta_column_is_the_order_zero_series(self, tmp_path, gamma, theta_db):
        # beta_rel, 1 - I_x(beta+1, alpha+1), is the order-0 Fourier-Jacobi
        # series in the sidecar's basis, repr for repr: the same values could
        # come from meta_reliability's own incomplete beta.
        flags = ["--gamma", gamma, "--theta-db", theta_db]
        samples = tmp_path / "s.csv"
        assert main(["simulate", *flags, "--realizations", "2000", "--seed", "3",
                     "--out", str(samples)]) == EXIT_OK
        out = tmp_path / "cmp.csv"
        assert main(["compare", *flags, "--samples", str(samples),
                     "--out", str(out)]) == EXIT_OK
        header, rows = _read_csv(out)
        meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())
        params = SystemParams(1e-3, float(gamma), db_to_linear(float(theta_db)),
                              1.0, db_to_linear(-100.0))
        basis = JacobiBasis(meta["basis"]["alpha"], meta["basis"]["beta"], 0)
        dist = fourier_jacobi_coeffs(moment_sequence(params, 0), basis)
        xs = np.array([float(row[0]) for row in rows])
        column = [row[header.index("beta_rel")] for row in rows]
        assert len(column) > 0
        assert column == [repr(v) for v in meta_reliability(dist, xs).tolist()]

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

    @pytest.mark.parametrize("content, message", [
        ("ccp\n", "need at least one realization, got 0"),
        ("ccp\n0.5\n1.5\n", "CCP samples must lie in [0, 1]"),
        ("ccp\n-0.1\n", "CCP samples must lie in [0, 1]"),
    ], ids=["ccp\n", "ccp\n0.5\n1.5\n", "ccp\n-0.1\n"])
    def test_invalid_samples_is_math_error(self, tmp_path, content, message, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--samples", str(samples)]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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

    def test_underflowing_sample_powers(self, tmp_path, capsys):
        # At 20 dB and gamma 2.05, c^10 of 84 % of the samples is below the
        # normal range: the sample moments skip pow on those that round to 0,
        # and neither command may warn.  No grid point reaches the 0.02
        # reliability floor, so the table is its header and stderr says why.
        flags = ["--theta-db", "20", "--gamma", "2.05", "--noise-dbm", "-120"]
        samples, out = tmp_path / "uf.csv", tmp_path / "ufc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", *flags, "--out", str(samples)]) == EXIT_OK
            capsys.readouterr()
            assert main(["compare", *flags, "--samples", str(samples),
                         "--out", str(out)]) == EXIT_OK
        recorded = json.loads((tmp_path / "uf.json").read_text())["empirical_moments"]
        meta = json.loads((tmp_path / "ufc.csv.meta.json").read_text())
        assert meta["empirical_moments"] == recorded
        assert out.read_text().splitlines() == [
            "x,empirical_rel,beta_rel,fj_rel,relerr_beta,relerr_fj"]
        err = capsys.readouterr().err
        match = re.fullmatch(r"empty table: no grid point has empirical reliability "
                             r">= 0\.02; the largest is (\S+) at x = 0\.01\n", err)
        assert match, err
        assert 0.0 < float(match[1]) < 0.02

    def test_missing_samples_is_io_error(self, tmp_path):
        rc = main(["compare", "--samples", str(tmp_path / "absent.csv")])
        assert rc == EXIT_IO


class TestCompareChecksTheCampaign:
    """compare reads the scenario of simulate's record beside the samples."""

    @pytest.fixture
    def samples(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--realizations", "50", "--seed", "3",
                     "--out", str(samples)]) == EXIT_OK
        return samples

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda", "2e-3", "lambda_bs"), ("--gamma", "3", "gamma_pl"),
        ("--theta-db", "3", "theta"), ("--power-dbm", "10", "power_mw"),
        ("--noise-dbm", "-90", "noise_mw"),
    ])
    def test_each_mismatched_field_is_usage_error(self, samples, flag, value, field, capsys):
        capsys.readouterr()
        out = samples.parent / "cmp.csv"
        assert main(["compare", flag, value, "--samples", str(samples),
                     "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {samples.with_suffix('.json')}: the campaign "
                                       f"has {field} = ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_matching_campaign_gives_the_bytes_of_no_record(self, samples):
        # With the flags the campaign was run with, the check changes nothing.
        argv = ["compare", "--samples", str(samples), "--order", "4"]
        assert main([*argv, "--out", str(samples.parent / "a.csv")]) == EXIT_OK
        samples.with_suffix(".json").unlink()
        assert main([*argv, "--out", str(samples.parent / "b.csv")]) == EXIT_OK
        for name in ("{}.csv", "{}.csv.meta.json"):
            a, b = (samples.parent / name.format(k) for k in "ab")
            assert a.read_bytes() == b.read_bytes()

    def test_no_record_checks_nothing(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert main(["simulate", "--gamma", "3", "--realizations", "50", "--out",
                     str(samples)]) == EXIT_OK
        samples.with_suffix(".json").unlink()
        assert main(["compare", "--samples", str(samples), "--order", "0"]) == EXIT_OK

    @pytest.mark.parametrize("content", ["{", "[1, 2]", '{"config": {}}', '{"scenario": 3}',
                                         '{"scenario": {"gamma_pl": 5.0}}', "\xff"])
    def test_malformed_record_is_usage_error(self, samples, content, capsys):
        record = samples.with_suffix(".json")
        record.write_bytes(content.encode("latin-1"))
        capsys.readouterr()
        assert main(["compare", "--samples", str(samples)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {record}: not a campaign record (no 'scenario' "
                                "object with lambda_bs, gamma_pl, theta, power_mw, noise_mw)\n")

    def test_unreadable_record_is_io_error(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        sim.write_samples_csv(np.array([0.2, 0.5]), samples)
        samples.with_suffix(".json").mkdir()
        assert main(["compare", "--samples", str(samples)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "s.json" in captured.err


# The CLI's two input files, one value per row under a header naming the column:
# each reader's header and its message for a wrong header.
_INPUT_FILES = {
    "samples": (sim.read_samples_csv, "ccp", "not a CCP samples file (missing 'ccp' header)"),
    "moments": (lambda path: cli._load_moment_file(path).values, "mu",
                "expected a one-column CSV with 'mu' header"),
}


@pytest.mark.parametrize("kind", sorted(_INPUT_FILES))
class TestInputFiles:
    """Samples and moments files share one format: these pin how it reads."""

    @pytest.mark.parametrize("body", [
        "{h}\n1\n0.5\n0.25\n0.125\n",
        "{h}\r\n1\r\n0.5\r\n0.25\r\n0.125\r\n",
        "{h}\n1\n\n0.5\n0.25\n0.125\n\n",
        '{h}\n1\n0.5\n"0.25"\n0.125\n',
        "{h},note\n1,a\n0.5,b\n0.25,c\n0.125,d\n",
        '"{h}",note\r\n1,a\r\n\r\n0.5,b\r\n0.25,c\r\n0.125,d\r\n',
    ], ids=["lf", "crlf", "blank-line", "quoted", "extra-column", "mixed"])
    def test_layouts_read_the_same_values(self, kind, body, tmp_path):
        read, header, _ = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_bytes(body.format(h=header).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(read(path)) == [1.0, 0.5, 0.25, 0.125]

    def test_mixed_layout_runs_through_the_cli(self, kind, tmp_path, capsys):
        # The subcommand that reads each file prints the same table for the
        # mixed layout (quoted header, extra column, CRLF, blank row) as for LF.
        argv, values = {
            "samples": (["compare", "--samples"], ["0.2", "0.5", "0.7", "0.9"]),
            "moments": (["reconstruct", "--order", "4", "--grid-points", "5", "--moments-file"],
                        ["1", "0.6", "0.45", "0.36", "0.3"]),
        }[kind]
        header = _INPUT_FILES[kind][1]
        lf, mixed = tmp_path / "lf.csv", tmp_path / "mixed.csv"
        lf.write_text("".join(f"{line}\n" for line in [header, *values]))
        rows = [f"{v},{chr(ord('a') + i)}" for i, v in enumerate(values)]
        mixed.write_bytes("\r\n".join([f'"{header}",note', rows[0], "", *rows[1:], ""]).encode())
        outputs = []
        for path in (lf, mixed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*argv, str(path)]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] != ""

    def test_header_only(self, kind, tmp_path):
        # A blank row is no row; numpy's "input contained no data" warning
        # must not escape either, nor any other.
        read, header, _ = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n\n")
        message = {"samples": "need at least one realization, got 0",
                   "moments": "moment sequence must contain at least mu_0"}[kind]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{message}$"):
                read(path)
        assert caught == []

    def test_wrong_header(self, kind, tmp_path):
        read, header, message = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_text(f"{header}x\n1\n")
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: {message}"

    def test_non_numeric_field(self, kind, tmp_path):
        read, header, _ = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n1\nabc\n")
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == (
            f"{path}: could not convert string 'abc' to float64 at row 1, column 1.")

    def test_digit_separator_rejected(self, kind, tmp_path):
        # float("1_0") is 10.0; numpy's parser takes no digit separators.
        read, header, _ = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n1\n1_0\n")
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == (
            f"{path}: could not convert string '1_0' to float64 at row 1, column 1.")


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
        ["simulate", "--lambda", "inf"],
        ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-max", "inf"],
        ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-min", "inf"],
        # Finite dB values whose linear value overflows to inf.
        ["moments", "--theta-db", "4000"],
        ["moments", "--power-dbm", "4000"],
        ["moments", "--noise-dbm", "4000"],
    ])
    def test_usage_error(self, argv, tmp_path, capsys):
        if argv[0] == "simulate":
            argv = argv + ["--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestDbFlags:
    FLAGS = ["--theta-db", "--power-dbm", "--noise-dbm"]

    @pytest.mark.parametrize("flag", FLAGS)
    def test_underflow_to_zero_is_usage_error(self, flag, capsys):
        # 10^-325 is below the smallest positive double; only -inf asks for 0.
        assert main(["moments", flag, "-3250", "--n-max", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} -3250.0 is 0 in linear units; only {flag}=-inf means 0\n")

    def test_beyond_the_doubles_is_inf(self):
        assert db_to_linear(4000.0) == math.inf
        assert db_to_linear(-4000.0) == 0.0

    def test_subnormal_noise_is_kept(self, capsys):
        # -3220 dBm is a subnormal but positive noise power: a noisy scenario.
        assert main(["moments", "--noise-dbm", "-3220", "--n-max", "1", "--format", "json"]) == (
            EXIT_OK)
        assert json.loads(capsys.readouterr().out)["meta"]["scenario"]["noise_mw"] > 0.0


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

    @pytest.mark.parametrize("theta_db", ["50", "60"])
    def test_failed_2f1_exits_math(self, theta_db, capsys):
        # 1 + rho_2 is 185 at 50 dB and 465 at 60 dB, so the target is
        # infeasible; the 2F1 series returns values below 1 there.
        assert main(["power", "--x-rel", "0.3", "--epsilon", "0.7",
                     "--theta-db", theta_db]) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rho_2" in captured.err

    def test_invalid_qos_is_usage_error(self):
        assert main(["power", "--x-rel", "1.5", "--epsilon", "0.5"]) == EXIT_USAGE
        assert main(["power", "--x-rel", "0.5", "--epsilon", "0.5",
                     "--gamma", "2.0"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--lambda-max", "-1"),
        ("--lambda-max", "0"),
        ("--lambda-min", "-1"),
        ("--lambda-min", "0"),
        ("--lambda-min", "nan"),
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

    @pytest.mark.parametrize("sweep, density", [
        # lambda^(-gamma/2) underflows to 0 from the fifth of nine densities on.
        (["--lambda-max", "1e300"], "1e+148"),
        (["--lambda-max", "1e300", "--lambda-steps", "2"], "1e+300"),
        # lambda^(-gamma/2) overflows.
        (["--lambda-min", "1e-300"], "1e-300"),
    ])
    def test_power_beyond_the_doubles_is_math_error(self, sweep, density, capsys):
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", *sweep]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_MATH
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"minimum power at lambda = {density} is not a positive finite double" in (
            captured.err)
        assert "reported as 0 mW" not in captured.err

    def test_noise_free_at_extreme_densities_notes_zero_power(self, capsys):
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--noise-dbm=-inf",
                "--lambda-min", "1e-300", "--lambda-max", "1e300", "--format", "json"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_OK
        assert caught == []
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["rows"]) == 9
        assert all(row[1:] == ["0.0", "-inf"] for row in doc["rows"])
        assert "loglog_slope" not in doc["meta"]
        assert "reported as 0 mW" in captured.err

    def test_subnormal_powers_are_reported(self, capsys):
        # theta sigma2 is the smallest subnormal; the powers are subnormal too.
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--noise-dbm", "-3235",
                "--lambda-steps", "2", "--format", "json"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        powers = [float(row[1]) for row in json.loads(captured.out)["rows"]]
        assert len(powers) == 2 and all(0.0 < p < 1e-300 for p in powers)
        assert "reported as 0 mW" not in captured.err

    def test_failure_names_a_requested_density(self, capsys):
        # (c_1* pi lambda)^(-gamma/2) overflows at the first density, 1e-4;
        # nothing is evaluated at any other density.
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--gamma", "1e6",
                "--lambda-steps", "2"]
        assert main(argv) == EXIT_MATH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "minimum power at lambda = 0.0001 is not a positive finite double" in (
            captured.err)

    def test_noise_free_notes_zero_power(self, capsys):
        assert main(["power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                     "--noise-dbm=-inf", "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert all(float(row[1]) == 0.0 for row in doc["rows"])
        assert "loglog_slope" not in doc["meta"]
        assert "reported as 0 mW" in captured.err
        assert "slope" not in captured.err


# Each table's argv (the compare samples file is written first) and an identity
# that ties its columns to their labels.
_TABLES = {
    "moments": (["moments", "--n-max", "4"],
                lambda c: c["abs_diff"] == [abs(e - a) for e, a in
                                            zip(c["mu_exact"], c["mu_approx"])]),
    "reconstruct": (["reconstruct", "--order", "4", "--grid-points", "6"],
                    lambda c: c["reliability"] == [min(max(1.0 - f, 0.0), 1.0) for f in c["cdf"]]),
    "compare": (["compare", "--samples", "{samples}", "--order", "4"],
                lambda c: all(c[f"relerr_{k}"] == [abs(m - e) / e for m, e in
                                                   zip(c[f"{k}_rel"], c["empirical_rel"])]
                              for k in ("beta", "fj"))),
    "power": (["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-steps", "3"],
              lambda c: c["p_dbm"] == [mw_to_dbm(p) for p in c["p_mw"]]),
}


@pytest.mark.parametrize("command", sorted(_TABLES))
def test_csv_and_json_tables_hold_the_same_cells(command, tmp_path, capsys):
    """One table, two forms: the same header and cell strings in each.

    n is an int in JSON, an endpoint PDF is blank, and every other cell is
    the shortest repr of a double.
    """
    samples = tmp_path / "s.csv"
    sim.write_samples_csv(np.random.default_rng(4).beta(3.0, 1.5, 200), samples)
    template, labels_hold = _TABLES[command]
    argv = [a.format(samples=samples) for a in template]
    out = tmp_path / "t.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    header, rows = _read_csv(out)
    capsys.readouterr()
    assert main([*argv, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == header
    assert doc["meta"] == json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert [[str(v) for v in row] for row in doc["rows"]] == rows
    columns = {}
    for name, cells in zip(header, zip(*doc["rows"])):
        if name == "n":
            assert [type(v) for v in cells] == [int] * len(cells)
            continue
        if name == "pdf":
            ends = [x in (0.0, 1.0) for x in columns["x"]]
            assert [v == "" for v in cells] == ends
            cells = [v for v, end in zip(cells, ends) if not end]
        assert all(type(v) is str and v == repr(float(v)) for v in cells)
        columns[name] = [float(v) for v in cells]
    assert labels_hold(columns)


class TestKnownWrongOutputs:
    """Outputs that are wrong today (ROADMAP item 7), pinned as strict xfails.

    Each states what a right answer is; the change that mends one makes it
    pass, and with it fail, until that change deletes its marker.
    """

    @pytest.mark.xfail(strict=True, reason="the 2F1 series stops at its term cap from about "
                                           "28 dB (ROADMAP item 1)")
    def test_noise_free_moments_at_28_db(self, capsys):
        # The reconstruction's CDF reads 1.16 at x = 0.75 today.
        argv = ["reconstruct", "--theta-db", "28", "--noise-dbm=-inf", "--format", "json"]
        assert main(argv) == EXIT_OK
        got = json.loads(capsys.readouterr().out)["meta"]["moments"]
        p = dataclasses.replace(_default_scenario(), theta=db_to_linear(28.0), noise=0.0)
        expected = [1.0 / one_plus_rho_scipy(p, n) for n in range(1, len(got))]
        assert got[1:] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.xfail(strict=True, reason="the coefficient map's rounding swamps the default "
                                           "order when the law sits near x = 1 (ROADMAP item 3)")
    def test_cdf_stays_in_the_unit_interval_at_minus_30_db(self, capsys):
        # The CDF reads -6.1e6 at x = 0.99 today.
        rc = main(["reconstruct", "--gamma", "4.05", "--theta-db", "-30", "--format", "json"])
        if rc != EXIT_MATH:
            assert rc == EXIT_OK
            cdf = [float(row[2]) for row in json.loads(capsys.readouterr().out)["rows"]]
            assert all(-1e-6 <= value <= 1.0 + 1e-6 for value in cdf)

    def test_moments_at_gamma_1e6(self, capsys):
        rc = main(["moments", "--gamma", "1e6", "--n-max", "3", "--format", "json"])
        captured = capsys.readouterr()
        if rc == EXIT_USAGE:
            assert "gamma" in captured.err
            return
        assert rc == EXIT_OK
        got = [float(row[1]) for row in json.loads(captured.out)["rows"]]
        p = dataclasses.replace(_default_scenario(), gamma_pl=1e6)
        expected = [moment_t_mpmath(p, n) for n in (1, 2, 3)]
        assert got == pytest.approx(expected, rel=1e-10)
