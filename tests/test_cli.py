"""CLI behaviour: unit conversion, table output, exit codes, file round trips."""
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from metadist import cli, moments, sim
from metadist.cli import EXIT_IO, EXIT_MATH, EXIT_OK, EXIT_USAGE, db_to_linear, mw_to_dbm
from metadist.jacobi import (
    JacobiBasis, eval_cdf, eval_pdf, fourier_jacobi_coeffs, meta_reliability, reconstruct,
)
from metadist.moments import SystemParams, moment_sequence
from metadist.quadrature import DEFAULT_TOL
from metadist.scaling import QosSpec, min_power
from metadist.sim import SimConfig, campaign_to_dict, empirical_reliability, run_campaign
from metadist.specfun import reg_inc_beta

from clirun import run
from oracles import beta_moments, moment_t_mpmath, one_plus_rho_scipy
from spies import spy


def _simulate(samples, *flags):
    """simulate with `flags`, writing to `samples`: its samples and campaign record."""
    return run("simulate", *flags, "--out", samples).table()


class TestUnitConversions:
    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(float("-inf")) == 0.0

    def test_dbm(self):
        assert db_to_linear(-100.0) == pytest.approx(1e-10, rel=1e-12)
        assert mw_to_dbm(1.0) == 0.0
        assert mw_to_dbm(0.0) == float("-inf")


class TestArgumentParsing:
    @pytest.mark.parametrize("argv", [
        ["moments", "--method", "bogus"],
        ["moments", "--n-max", "x"],
        [],
    ])
    def test_parse_error_returns_usage_code(self, argv):
        assert "error:" in run(*argv).error(EXIT_USAGE)

    def test_help_returns_ok(self):
        r = run("--help")
        assert r.code == EXIT_OK and r.out.startswith("usage: metadist")

    @pytest.mark.parametrize("flag", ["--theta-db", "--noise-dbm"])
    def test_help_names_the_equals_form_of_minus_inf(self, flag, monkeypatch):
        # argparse reads a separate "-inf" as an option, not as the flag's value.
        monkeypatch.setenv("COLUMNS", "200")
        r = run("moments", "--help")
        assert r.code == EXIT_OK and f"{flag}=-inf" in r.out
        r = run("moments", flag, "-inf")
        assert r.code == EXIT_USAGE and "expected one argument" in r.err

    def test_parser_is_built_once_per_process(self, monkeypatch):
        real = cli.build_parser
        built = spy(monkeypatch, cli, "build_parser")
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run("moments", "--method", "bogus").code == EXIT_USAGE
            assert run("--help").code == EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert real() is not real()

    def test_power_and_moments_share_the_scenario_defaults(self):
        parser = cli.build_parser()
        power = parser.parse_args(["power", "--x-rel", "0.3", "--epsilon", "0.7"])
        mom = parser.parse_args(["moments"])
        for name in ("gamma", "theta_db", "noise_dbm"):
            assert getattr(power, name) == getattr(mom, name)
        assert (power.gamma, power.theta_db, power.noise_dbm) == (5.0, 0.0, -100.0)

    def test_subcommand_is_looked_up_at_call_time(self, monkeypatch):
        # The cached parser must not pin the cmd_* function of its first call.
        argv = ["power", "--x-rel", "0.2", "--epsilon", "0.5", "--gamma", "4", "--theta-db", "-10",
                "--lambda-steps", "1"]
        assert run(*argv).code == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_power", lambda args: calls.append(args.command) or 7)
        assert run(*argv).code == 7
        assert calls == ["power"]


class TestMomentsCommand:
    def test_zero_threshold_all_ones(self, tmp_path):
        t = run("moments", "--theta-db=-inf", "--n-max", "4", "--out", tmp_path / "m.csv").table()
        assert list(t.columns) == ["n", "mu_exact", "mu_approx", "abs_diff", "error_bound"]
        for name in ("mu_exact", "mu_approx"):
            assert t.floats(name) == pytest.approx([1.0] * 4, abs=1e-10)

    def test_diff_within_bound(self, tmp_path):
        t = run("moments", "--n-max", "10", "--out", tmp_path / "m.csv").table()
        assert len(t["n"]) == 10
        assert all(d <= b for d, b in zip(t.floats("abs_diff"), t.floats("error_bound")))

    def test_gamma_near_two(self, tmp_path):
        t = run("moments", "--gamma", "2.01", "--n-max", "3", "--out", tmp_path / "m.csv").table()
        assert all(abs(e - a) <= 1e-4 for e, a in zip(t.floats("mu_exact"), t.floats("mu_approx")))

    def test_error_bound_at_a_tiny_density(self):
        # c_1 is about 3.2e145 at lambda 1e-150, so c_n^(gamma/2) is past the
        # doubles: the bound must stay in the z-form A_n, B_n to be finite.
        t = run("moments", "--lambda", "1e-150", "--n-max", "2", "--format", "json").table()
        assert len(t["n"]) == 2
        for bound, diff in zip(t.floats("error_bound"), t.floats("abs_diff")):
            assert math.isfinite(bound) and bound > 0.0 and bound >= diff

    def test_subnormal_noise_root_without_warning(self):
        # c_1 is about 4.5e-309, below the normal doubles, so r_n = a_n / c_n
        # overflows to inf, where the Weibull form's -expm1(-inf) = 1 is the
        # exact limit.  The expected values come from the t-form quadrature.
        argv = ["moments", "--method", "exact", "--n-max", "3", "--noise-dbm", "-3000",
                "--theta-db", "-60", "--gamma", "2.001", "--lambda", "100", "--format", "json"]
        t = run(*argv).table()
        expected = [0.9980039920169628, 0.9960159362579528, 0.9940357852941926]
        assert t.floats("mu_exact") == pytest.approx(expected, rel=DEFAULT_TOL)

    def test_error_bound_is_inf_past_the_doubles(self):
        # Gamma(gamma/2) overflows above gamma 343.2; the bound's second term
        # is taken in logs and reads inf where it exceeds the doubles.
        t = run("moments", "--gamma", "1e6", "--n-max", "3", "--format", "json").table()
        assert t["error_bound"] == ["inf"] * 3

    def test_invalid_gamma_is_usage_error(self):
        assert run("moments", "--gamma", "1.5").code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_invalid_n_max_is_usage_error(self, value):
        run("moments", "--n-max", value).error(EXIT_USAGE)

    def test_json_format(self):
        t = run("moments", "--n-max", "2", "--format", "json").table()
        assert list(t.columns)[0] == "n"
        assert len(t["n"]) == 2

    def test_method_selection(self, tmp_path):
        argv = ["moments", "--method", "exact", "--n-max", "2", "--out", tmp_path / "m.csv"]
        assert list(run(*argv).table().columns) == ["n", "mu_exact"]

    @pytest.mark.parametrize("scenario", [
        [],
        ["--gamma", "3", "--theta-db=-10"],
        ["--gamma", "2.001", "--theta-db", "20"],
    ])
    def test_noise_free_exact_equals_closed_form(self, scenario):
        # With no noise both columns are 1/(1 + rho_n), with no quadrature.
        argv = ["moments", "--noise-dbm=-inf", "--n-max", "10", "--format", "json"]
        t = run(*argv, *scenario).table()
        assert t.floats("error_bound") == [0.0] * 10
        assert t.floats("abs_diff") == [0.0] * 10

    def test_overflowing_noise_term(self):
        # theta sigma2 / p overflows: the moments are 0.0, and the error
        # bound, which is inf / inf there, is a math error, not a NaN row.
        argv = ["moments", "--noise-dbm", "3000", "--power-dbm=-3000", "--n-max", "3"]
        t = run(*argv, "--method", "exact", "--format", "json").table()
        assert t.floats("mu_exact") == [0.0] * 3
        assert "b_coef must be nonnegative and finite, got inf" in run(*argv).error(EXIT_MATH)

    def test_exact_column_is_moment_sequence(self):
        argv = ["--gamma", "4", "--theta-db", "5", "--noise-dbm=-90"]
        t = run("moments", *argv, "--n-max", "10", "--method", "exact", "--format", "json").table()
        params = SystemParams(1e-3, 4.0, db_to_linear(5.0), 1.0, db_to_linear(-90.0))
        assert t.floats("mu_exact") == list(moment_sequence(params, 10).values[1:])

    # At 29 dB the 2F1 series' defect makes mu_10 exceed mu_9 in both
    # columns, which no law on [0, 1] allows.
    _DEFECT_ARGV = ["--gamma", "2.05", "--theta-db", "29", "--lambda", "1e-8",
                    "--noise-dbm", "-200", "--format", "json"]

    def test_closed_form_column_is_a_moment_sequence(self):
        # The column is nonincreasing, or the run exits 3 and names the
        # column's method and the pair.
        r = run("moments", "--method", "approx", *self._DEFECT_ARGV)
        if r.code == EXIT_MATH:
            assert re.search(r"^error: closed_form moments must be nonincreasing: "
                             r"mu_\d+=\S+ > mu_\d+=", r.error(EXIT_MATH))
            return
        mu = r.table().floats("mu_approx")
        assert all(b <= a for a, b in zip(mu, mu[1:]))

    def test_both_names_the_column_that_failed(self):
        # `--method both` builds the exact column first, so a failure there
        # names exact_quadrature, not the closed form that fails the same way.
        r = run("moments", "--method", "both", *self._DEFECT_ARGV)
        if r.code == EXIT_MATH:
            assert re.search(r"^error: exact_quadrature moments must be nonincreasing: "
                             r"mu_\d+=\S+ > mu_\d+=", r.error(EXIT_MATH))
            return
        for name in ("mu_exact", "mu_approx"):
            mu = r.table().floats(name)
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
    def test_range_edges_print_the_library_columns(self, argv, n_max, positive):
        t = run("moments", *argv, "--format", "json").table()
        s = t.meta["scenario"]
        params = SystemParams(s["lambda_bs"], s["gamma_pl"], s["theta"], s["power_mw"],
                              s["noise_mw"])
        assert len(t["n"]) == n_max
        exact = moment_sequence(params, n_max).values[1:]
        approx = [moments.moment_approx(params, n) for n in range(1, n_max + 1)]
        assert t["mu_exact"] == [repr(v) for v in exact]
        assert t["mu_approx"] == [repr(v) for v in approx]
        for column in (exact, approx):
            assert all(v > 0.0 for v in column[:positive])
            assert list(column[positive:]) == [0.0] * (n_max - positive)

    def test_both_exits_math_at_29_db(self):
        # The 2F1 defect pin: until ROADMAP item 1 mends the series, mu_10
        # exceeds mu_9 here and the exact column, built first, is named.
        err = run("moments", "--method", "both", *self._DEFECT_ARGV).error(EXIT_MATH)
        assert re.search(r"^error: exact_quadrature moments must be nonincreasing: "
                         r"mu_10=\S+ > mu_9=", err)

    def test_2f1_below_one_at_170_db_exits_math(self):
        # At 170 dB w = z/(z-1) rounds to 1.0, so the 2F1 series is sized as
        # its cap; its partial sum puts 1 + rho_1 below 1 (ROADMAP item 1).
        err = run("moments", "--theta-db", "170", "--n-max", "1").error(EXIT_MATH)
        assert err.splitlines()[0] == (
            "error: 1 + rho_1 must be at least 1, got 4.2351779530289e-12")

    @pytest.mark.parametrize("method", ["exact", "approx", "both"])
    def test_one_gauss_2f1_call_per_n(self, method, monkeypatch):
        calls = spy(monkeypatch, moments, "gauss_2f1")
        assert run("moments", "--n-max", "10", "--method", method).code == EXIT_OK
        assert len(calls) == 10
        assert len(set(calls)) == 10


class TestReconstructCommand:
    def _write_moment_file(self, path, values):
        path.write_text("".join(f"{line}\r\n" for line in ["mu", *map(repr, values)]))

    def test_beta_moment_file(self, tmp_path):
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, beta_moments(2.7, 1.3, 10))
        t = run("reconstruct", "--moments-file", mfile, "--order", "10",
                "--grid-points", "21", "--out", tmp_path / "rec.csv").table()
        rel = t.floats("reliability")
        assert rel[0] == 1.0  # x = 0: reliability 1
        assert rel[-1] == 0.0  # x = 1: reliability 0
        expected = [1.0 - reg_inc_beta(x, 2.7, 1.3) for x in t.floats("x")]
        assert rel == pytest.approx(expected, abs=1e-8)
        assert t.meta["basis"]["order"] == 10
        assert not t.meta["convergence"]["warning"]

    def test_degenerate_moments_exit(self, tmp_path):
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, [1.0] * 11)
        assert run("reconstruct", "--moments-file", mfile, "--order", "10").code == EXIT_MATH

    def test_negative_variance_is_not_a_point_mass(self, tmp_path):
        # Every difference with n + k <= 2 is >= 0, yet mu_2 - mu_1^2 = -0.05.
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, [1.0, 0.5, 0.2])
        err = run("reconstruct", "--moments-file", mfile).error(EXIT_MATH)
        assert err == ("error: mu2=0.2 lies below mu1^2=0.25: a negative variance, so these "
                       "are not the moments of a law on [0, 1]\n")

    def test_negative_variance_exits_in_an_explicit_basis(self, tmp_path):
        # No moment matching runs here: the Hausdorff check names the variance.
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, [1.0, 0.5, 0.2])
        err = run("reconstruct", "--moments-file", mfile, "--order", "2", "--alpha", "0",
                  "--beta", "0", "--grid-points", "5").error(EXIT_MATH)
        assert err == ("error: mu2=0.2 lies below mu1^2=0.25: a negative variance, so these "
                       "are not the moments of a law on [0, 1]\n")

    def test_blank_first_line_is_math_error(self, tmp_path):
        mfile = tmp_path / "mu.csv"
        mfile.write_text("\nmu\n1.0\n0.5\n")
        assert run("reconstruct", "--moments-file", mfile).error(EXIT_MATH).startswith("error:")

    def test_non_hausdorff_moment_file_exits_math(self, tmp_path):
        # Monotone and in [0, 1], yet E[C^2 (1-C)^2] = mu_2 - 2 mu_3 + mu_4 =
        # -0.1.  The second passes every difference and the variance, yet
        # E[C^2 (1-C)]^2 = 0.0025 exceeds E[C (1-C)] E[C^3 (1-C)] = 0.001;
        # reconstructed, it had a CDF that falls below 0 and a PDF of -4.93.
        mfile = tmp_path / "mu.csv"
        for values, message in [([1.0, 0.5, 0.3, 0.2, 0.0], "k=2, n=2"),
                                ([1.0, 0.6, 0.5, 0.45, 0.44], "Hankel matrix")]:
            self._write_moment_file(mfile, values)
            r = run("reconstruct", "--moments-file", mfile, "--order", "4", "--grid-points", "11")
            assert message in r.error(EXIT_MATH)

    def test_campaign_moments_round_trip(self, tmp_path):
        # Sample moments pass the Hausdorff check and the coefficient map.
        record = _simulate(tmp_path / "s.csv", "--realizations", "2000", "--seed", "3").meta
        mfile = tmp_path / "mu.csv"
        self._write_moment_file(mfile, record["empirical_moments"])
        t = run("reconstruct", "--moments-file", mfile, "--grid-points", "5",
                "--out", tmp_path / "rec.csv").table()
        cdf = t.floats("cdf")
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert t.meta["moment_method"] == "empirical"

    def test_tiny_moments_keep_their_basis(self, tmp_path):
        # mu_1 is 4.6e-15 and mu_2 - mu_1^2 2.3e-15: below 1e-14, yet half the
        # largest variance a law on [0, 1] with this mean can have.
        cdf = run("reconstruct", "--gamma", "2.05", "--lambda", "1e-8", "--noise-dbm", "70",
                  "--grid-points", "3", "--out", tmp_path / "rec.csv").table().floats("cdf")
        assert cdf[0] == 0.0 and cdf[-1] == 1.0

    def test_beta_rounding_to_minus_one_names_beta(self):
        # At 100 dBm beta + 1 is about 1e-17, so beta rounds to -1.0.
        r = run("reconstruct", "--gamma", "2.05", "--lambda", "1e-8", "--noise-dbm", "100",
                "--grid-points", "3")
        assert r.error(EXIT_MATH) == "error: beta must be finite and exceed -1, got -1.0\n"

    def test_explicit_basis(self, tmp_path, paper_params):
        t = run("reconstruct", "--order", "6", "--alpha", "0.0", "--beta", "0.0",
                "--grid-points", "11", "--out", tmp_path / "rec.csv").table()
        assert t.meta["basis"] == {"alpha": 0.0, "beta": 0.0, "order": 6}
        dist = fourier_jacobi_coeffs(moment_sequence(paper_params, 6), JacobiBasis(0.0, 0.0, 6))
        np.testing.assert_allclose(t.floats("cdf"), eval_cdf(dist, np.array(t.floats("x"))),
                                   rtol=0.0, atol=1e-12)

    def test_explicit_basis_requires_parameters(self):
        # --basis is not an option: the basis is --alpha and --beta together.
        assert run("reconstruct", "--basis", "explicit").code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["--alpha", "0.5"],
        ["--beta", "0.5"],
        ["--alpha", "-2", "--beta", "0"],
        ["--alpha", "nan", "--beta", "0"],
        ["--alpha", "0", "--beta", "inf"],
        ["--basis", "explicit", "--alpha", "0", "--beta", "0"],
    ])
    def test_invalid_basis_is_usage_error_before_any_moment(self, argv, monkeypatch):
        def no_moments(*args, **kwargs):
            raise AssertionError("a moment was computed")

        monkeypatch.setattr(moments, "moment_sequence", no_moments)
        run("reconstruct", "--grid-points", "3", *argv).error(EXIT_USAGE)

    def test_overflowing_basis_names_the_coefficient(self):
        # C(2 + 1e300, 2) overflows float64: a_2's binomial weights are infinite.
        r = run("reconstruct", "--alpha", "1e300", "--beta", "0", "--order", "3",
                "--grid-points", "3")
        assert r.error(EXIT_MATH) == ("error: basis (alpha=1e+300, beta=0.0): "
                                      "the binomial weights of a_2 overflow\n")

    @pytest.mark.parametrize("flag, value", [
        ("--grid-points", "-3"),
        ("--grid-points", "0"),
        ("--order", "-1"),
        ("--order", "21"),
    ])
    def test_invalid_grid_or_order_is_usage_error(self, flag, value):
        run("reconstruct", flag, value).error(EXIT_USAGE)

    @pytest.mark.parametrize("command", ["reconstruct", "compare"])
    def test_order_above_the_cap_prints_the_basis_message(self, command, tmp_path):
        with pytest.raises(ValueError) as raised:
            JacobiBasis(0.0, 0.0, 21)
        argv = [command, "--order", "21"]
        if command == "compare":
            argv += ["--samples", tmp_path / "s.csv"]
        assert run(*argv).error(EXIT_USAGE) == f"error: {raised.value}\n"

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
    def test_extreme_basis_names_its_failure(self, basis, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # order 20's precision warning
            r = run("reconstruct", *basis, "--grid-points", "3")
        assert r.error(EXIT_MATH) == f"error: {message}\n"

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_low_order_succeeds(self, order):
        assert len(run("reconstruct", "--order", order, "--grid-points", "3").table()["x"]) == 3

    def test_order_zero_is_matched_beta(self, tmp_path):
        t = run("reconstruct", "--order", "0", "--grid-points", "21",
                "--out", tmp_path / "rec.csv").table()
        basis = t.meta["basis"]
        expected = reg_inc_beta(np.array(t.floats("x")), basis["beta"] + 1.0, basis["alpha"] + 1.0)
        np.testing.assert_allclose(t.floats("cdf"), expected, rtol=0.0, atol=1e-12)

    def test_pdf_column_is_eval_pdf(self, tmp_path, paper_params):
        t = run("reconstruct", "--order", "10", "--grid-points", "41",
                "--out", tmp_path / "rec.csv").table()
        x, pdf = t["x"], t["pdf"]
        assert (x[0], pdf[0], x[-1], pdf[-1]) == ("0.0", "", "1.0", "")
        xs = np.array([float(v) for v in x[1:-1]])
        dist = reconstruct(moment_sequence(paper_params, 10), order=10)
        np.testing.assert_allclose([float(v) for v in pdf[1:-1]], eval_pdf(dist, xs),
                                   rtol=1e-12, atol=0.0)


class TestSimulateCommand:
    def test_deterministic_output_files(self, tmp_path):
        a, b = (_simulate(tmp_path / f"{k}.csv", "--realizations", "200", "--seed", "9")
                for k in "ab")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.meta == b.meta

    def test_summary_contents(self, tmp_path):
        summary = _simulate(tmp_path / "c.csv", "--realizations", "100", "--seed", "4").meta
        assert summary["config"]["num_realizations"] == 100
        assert len(summary["empirical_moments"]) == 11
        assert summary["empirical_moments"][0] == 1.0
        assert len(summary["reliability_grid"]["x"]) == 101

    def test_summary_is_campaign_record(self, tmp_path, paper_params):
        for flags, fading in (([], {}), (["--mode", "sampled", "--channel-draws", "50"],
                                         {"fading_mode": "sampled", "num_channel_draws": 50})):
            summary = _simulate(tmp_path / "c.csv", *flags, "--realizations", "100",
                                "--seed", "4").meta
            assert list(summary) == ["scenario", "config", "diagnostics",
                                     "empirical_moments", "reliability_grid"]
            cfg = SimConfig(params=paper_params, num_realizations=100, rng_seed=4, **fading)
            record = campaign_to_dict(run_campaign(cfg))
            assert {key: summary[key] for key in record} == record

    def test_campaign_defaults_are_sim_configs(self, tmp_path, paper_params):
        summary = _simulate(tmp_path / "f.csv").meta
        cfg = SimConfig(params=paper_params, num_realizations=5000)
        assert summary["config"] == campaign_to_dict(run_campaign(cfg))["config"]

    @pytest.mark.parametrize("flag, value", [
        ("--realizations", "0"),
        ("--radius-m", "0"),
        ("--radius-m", "nan"),
        ("--channel-draws", "0"),
        ("--seed", "-1"),
        ("--mode", "bogus"),
    ])
    def test_invalid_campaign_is_usage_error(self, tmp_path, flag, value):
        assert run("simulate", flag, value, "--out", tmp_path / "s.csv").code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_almost_surely_empty_disk_is_usage_error(self, tmp_path):
        # lambda pi R^2 underflows to 0: no disk holds a BS.
        r = run("simulate", "--lambda", "1e-200", "--radius-m", "1e-200",
                "--realizations", "1", "--out", tmp_path / "z.csv")
        assert r.code == EXIT_USAGE
        assert "mean BS count lambda pi R^2 is not positive" in r.err
        assert list(tmp_path.iterdir()) == []

    def test_almost_empty_disk_runs(self, tmp_path):
        # Every disk is empty at first draw, and each realization draws its
        # nearest BS once more, inside the disk.
        t = _simulate(tmp_path / "z.csv", "--lambda", "1e-15", "--realizations", "300")
        assert t.meta["diagnostics"]["redraws"] == 300
        ccp = t.floats("ccp")
        assert len(ccp) == 300 and all(0.0 <= c <= 1.0 for c in ccp)

    def test_infinite_mean_count_is_the_plane(self, tmp_path):
        # lambda pi R^2 overflows to inf at R = 1e300: the same samples as
        # R = inf, the infinite plane, whose radius the summary writes as null.
        for mode in ("analytic", "sampled"):
            plane, wide = [_simulate(tmp_path / f"{radius}.csv", "--mode", mode,
                                     "--radius-m", radius, "--realizations", "600",
                                     "--seed", "3").meta for radius in ("inf", "1e300")]
            assert (tmp_path / "inf.csv").read_bytes() == (tmp_path / "1e300.csv").read_bytes()
            assert plane["config"]["region_radius_m"] is None
            assert wide["config"]["region_radius_m"] == 1e300
            assert plane["diagnostics"] == wide["diagnostics"] == {"redraws": 0}

    def test_huge_mean_count_runs(self, tmp_path):
        # lambda pi R^2 = 3.1e15 BSs a disk, of which a realization draws its
        # NEAREST_BS nearest.
        t = _simulate(tmp_path / "b.csv", "--radius-m", "1e9", "--realizations", "1")
        ccp = t.floats("ccp")
        assert len(ccp) == 1 and 0.0 <= ccp[0] <= 1.0

    def test_underflowing_moments_still_write_summary(self, tmp_path):
        # At 60 dB and gamma 2.05 every CCP sample is below 1e-140, so mean(c^n)
        # underflows to 0.0 from n = 3 on.
        summary = _simulate(tmp_path / "h.csv", "--theta-db", "60", "--gamma", "2.05",
                            "--noise-dbm", "-120").meta
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
        ccp = _simulate(tmp_path / "f.csv", *argv).floats("ccp")
        assert len(ccp) == 5000 and all(0.0 <= c <= 1.0 for c in ccp)

    def test_zero_threshold_samples_are_one(self, tmp_path):
        # theta = 0 over two blocks: every CCP is exactly 1, and no kernel
        # step may overflow or make NaN.
        t = _simulate(tmp_path / "t0.csv", "--theta-db=-inf", "--realizations", "300")
        assert t.columns == {"ccp": ["1.0"] * 300}

    def test_json_out_would_overwrite_samples(self, tmp_path):
        r = run("simulate", "--realizations", "5", "--out", tmp_path / "s.json")
        assert r.code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        assert "wrote" not in r.err


class TestCompareCommand:
    def test_round_trip_moments(self, tmp_path):
        samples = tmp_path / "s.csv"
        recorded = _simulate(samples, "--realizations", "300", "--seed", "2").meta
        meta = run("compare", "--samples", samples, "--order", "8",
                   "--out", tmp_path / "cmp.csv").table().meta
        assert meta["empirical_moments"] == pytest.approx(recorded["empirical_moments"],
                                                          rel=0.0, abs=1e-12)

    def test_columns_match_library(self, tmp_path, paper_params):
        samples = tmp_path / "s.csv"
        _simulate(samples, "--realizations", "300", "--seed", "2")
        t = run("compare", "--samples", samples, "--order", "8",
                "--out", tmp_path / "cmp.csv").table()
        xs = np.array(t.floats("x"))
        # The printed grid is the 0.01..0.99 grid where the empirical curve is >= 0.02.
        grid = np.linspace(0.01, 0.99, 99)
        cfg = SimConfig(params=paper_params, num_realizations=300, rng_seed=2)
        grid_rel = empirical_reliability(run_campaign(cfg).ccp_samples, grid)
        np.testing.assert_array_equal(xs, grid[grid_rel >= 0.02])
        np.testing.assert_array_equal(t.floats("empirical_rel"), grid_rel[grid_rel >= 0.02])
        dist = reconstruct(moment_sequence(paper_params, 8), order=8)
        a, b = dist.basis.alpha, dist.basis.beta
        assert t.meta["basis"] == {"alpha": a, "beta": b}
        np.testing.assert_allclose(t.floats("fj_rel"), meta_reliability(dist, xs),
                                   rtol=1e-12, atol=0.0)
        expected_beta = [1.0 - reg_inc_beta(x, b + 1.0, a + 1.0) for x in xs]
        np.testing.assert_allclose(t.floats("beta_rel"), expected_beta, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma, theta_db", [
        ("5", "0"), ("3", "10"), ("4", "-10"), ("2.5", "20"),
    ])
    def test_beta_column_is_the_order_zero_series(self, tmp_path, gamma, theta_db):
        # beta_rel, 1 - I_x(beta+1, alpha+1), is the order-0 Fourier-Jacobi
        # series in the sidecar's basis, repr for repr: the same values could
        # come from meta_reliability's own incomplete beta.
        flags = ["--gamma", gamma, "--theta-db", theta_db]
        samples = tmp_path / "s.csv"
        _simulate(samples, *flags, "--realizations", "2000", "--seed", "3")
        t = run("compare", *flags, "--samples", samples, "--out", tmp_path / "cmp.csv").table()
        params = SystemParams(1e-3, float(gamma), db_to_linear(float(theta_db)),
                              1.0, db_to_linear(-100.0))
        basis = JacobiBasis(t.meta["basis"]["alpha"], t.meta["basis"]["beta"], 0)
        dist = fourier_jacobi_coeffs(moment_sequence(params, 0), basis)
        xs = np.array(t.floats("x"))
        assert len(t["beta_rel"]) > 0
        assert t["beta_rel"] == [repr(v) for v in meta_reliability(dist, xs).tolist()]

    @pytest.mark.parametrize("value", ["-1", "21"])
    def test_invalid_order_is_usage_error(self, tmp_path, value):
        samples = tmp_path / "s.csv"
        _simulate(samples, "--realizations", "20")
        run("compare", "--samples", samples, "--order", value).error(EXIT_USAGE)

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_low_order_succeeds(self, tmp_path, order):
        samples = tmp_path / "s.csv"
        _simulate(samples, "--realizations", "50")
        t = run("compare", "--samples", samples, "--order", order,
                "--out", tmp_path / "cmp.csv").table()
        assert len(t["x"]) > 0

    def test_order_zero_fj_is_beta(self, tmp_path):
        samples = tmp_path / "s.csv"
        _simulate(samples, "--realizations", "300", "--seed", "2")
        t = run("compare", "--samples", samples, "--order", "0",
                "--out", tmp_path / "cmp.csv").table()
        np.testing.assert_allclose(t.floats("fj_rel"), t.floats("beta_rel"), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("content, message", [
        ("ccp\n", "need at least one realization, got 0"),
        ("ccp\n0.5\n1.5\n", "CCP samples must lie in [0, 1]"),
        ("ccp\n-0.1\n", "CCP samples must lie in [0, 1]"),
    ], ids=["ccp\n", "ccp\n0.5\n1.5\n", "ccp\n-0.1\n"])
    def test_invalid_samples_is_math_error(self, tmp_path, content, message):
        samples = tmp_path / "s.csv"
        samples.write_text(content)
        r = run("compare", "--samples", samples)
        assert r.error(EXIT_MATH) == f"error: {message}\n"

    def test_blank_first_line_is_math_error(self, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("\nccp\n0.5\n")
        assert run("compare", "--samples", samples).error(EXIT_MATH).startswith("error:")

    def test_nan_sample_is_reported_as_such(self, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("ccp\n0.5\nnan\n0.7\n")
        assert "CCP samples must lie in [0, 1]" in run("compare", "--samples", samples).error(
            EXIT_MATH)

    def test_zero_threshold_degenerate(self, tmp_path):
        samples = tmp_path / "s.csv"
        _simulate(samples, "--theta-db=-inf", "--realizations", "50", "--seed", "1")
        t = run("compare", "--theta-db=-inf", "--samples", samples,
                "--out", tmp_path / "cmp.csv").table()
        n = len(t["x"])
        assert n > 0
        for name in ("empirical_rel", "beta_rel", "fj_rel"):
            assert t.floats(name) == [1.0] * n
        for name in ("relerr_beta", "relerr_fj"):
            assert t.floats(name) == [0.0] * n

    def test_underflowing_sample_powers(self, tmp_path):
        # At 20 dB and gamma 2.05, c^10 of 84 % of the samples is below the
        # normal range: the sample moments skip pow on those that round to 0,
        # and neither command may warn.  No grid point reaches the 0.02
        # reliability floor, so the table is its header and stderr says why.
        flags = ["--theta-db", "20", "--gamma", "2.05", "--noise-dbm", "-120"]
        samples = tmp_path / "uf.csv"
        recorded = _simulate(samples, *flags).meta["empirical_moments"]
        r = run("compare", *flags, "--samples", samples, "--out", tmp_path / "ufc.csv")
        t = r.table()
        assert t.meta["empirical_moments"] == recorded
        assert list(t.columns.items()) == [(name, []) for name in (
            "x", "empirical_rel", "beta_rel", "fj_rel", "relerr_beta", "relerr_fj")]
        match = re.fullmatch(r"empty table: no grid point has empirical reliability "
                             r">= 0\.02; the largest is (\S+) at x = 0\.01\n", r.err)
        assert match, r.err
        assert 0.0 < float(match[1]) < 0.02

    def test_missing_samples_is_io_error(self, tmp_path):
        assert run("compare", "--samples", tmp_path / "absent.csv").code == EXIT_IO


class TestCompareChecksTheCampaign:
    """compare reads the scenario of simulate's record beside the samples."""

    @pytest.fixture
    def samples(self, tmp_path):
        _simulate(tmp_path / "s.csv", "--realizations", "50", "--seed", "3")
        return tmp_path / "s.csv"

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda", "2e-3", "lambda_bs"), ("--gamma", "3", "gamma_pl"),
        ("--theta-db", "3", "theta"), ("--power-dbm", "10", "power_mw"),
        ("--noise-dbm", "-90", "noise_mw"),
    ])
    def test_each_mismatched_field_is_usage_error(self, samples, flag, value, field):
        out = samples.parent / "cmp.csv"
        err = run("compare", flag, value, "--samples", samples, "--out", out).error(EXIT_USAGE)
        assert err.startswith(f"error: {samples.with_suffix('.json')}: the campaign "
                              f"has {field} = ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_matching_campaign_gives_the_bytes_of_no_record(self, samples):
        # With the flags the campaign was run with, the check changes nothing.
        argv = ["compare", "--samples", samples, "--order", "4"]
        assert run(*argv, "--out", samples.parent / "a.csv").code == EXIT_OK
        samples.with_suffix(".json").unlink()
        assert run(*argv, "--out", samples.parent / "b.csv").code == EXIT_OK
        for name in ("{}.csv", "{}.csv.meta.json"):
            a, b = (samples.parent / name.format(k) for k in "ab")
            assert a.read_bytes() == b.read_bytes()

    def test_samples_named_like_their_record_check_nothing(self, samples):
        # The record path of data.json is data.json itself: no record lies beside it.
        data = samples.with_name("data.json")
        data.write_bytes(samples.read_bytes())
        argv = ["compare", "--order", "4", "--samples"]
        assert run(*argv, samples, "--out", samples.parent / "a.csv").code == EXIT_OK
        assert run(*argv, data, "--out", samples.parent / "b.csv").code == EXIT_OK
        assert (samples.parent / "a.csv").read_bytes() == (samples.parent / "b.csv").read_bytes()

    def test_no_record_checks_nothing(self, tmp_path):
        samples = tmp_path / "s.csv"
        _simulate(samples, "--gamma", "3", "--realizations", "50")
        samples.with_suffix(".json").unlink()
        assert run("compare", "--samples", samples, "--order", "0").code == EXIT_OK

    @pytest.mark.parametrize("content", ["{", "[1, 2]", '{"config": {}}', '{"scenario": 3}',
                                         '{"scenario": {"gamma_pl": 5.0}}', "\xff"])
    def test_malformed_record_is_usage_error(self, samples, content):
        record = samples.with_suffix(".json")
        record.write_bytes(content.encode("latin-1"))
        assert run("compare", "--samples", samples).error(EXIT_USAGE) == (
            f"error: {record}: not a campaign record (no 'scenario' "
            "object with lambda_bs, gamma_pl, theta, power_mw, noise_mw)\n")

    def test_unreadable_record_is_io_error(self, tmp_path):
        samples = tmp_path / "s.csv"
        sim.write_samples_csv(np.array([0.2, 0.5]), samples)
        samples.with_suffix(".json").mkdir()
        err = run("compare", "--samples", samples).error(EXIT_IO)
        assert err.startswith("error:") and "s.json" in err


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
        "\ufeff{h}\r\n1\r\n0.5\r\n0.25\r\n0.125\r\n",
    ], ids=["lf", "crlf", "blank-line", "quoted", "extra-column", "mixed", "bom"])
    def test_layouts_read_the_same_values(self, kind, body, tmp_path):
        read, header, _ = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_bytes(body.format(h=header).encode())
        assert list(read(path)) == [1.0, 0.5, 0.25, 0.125]

    def test_mixed_layout_runs_through_the_cli(self, kind, tmp_path):
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
            r = run(*argv, path)
            assert (r.code, r.err) == (EXIT_OK, "")
            outputs.append(r.out)
        assert outputs[0] == outputs[1] != ""

    def test_header_only(self, kind, tmp_path):
        # A blank row is no row; numpy's "input contained no data" warning
        # must not escape either, nor any other.
        read, header, _ = _INPUT_FILES[kind]
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n\n")
        message = {"samples": "need at least one realization, got 0",
                   "moments": "moment sequence must contain at least mu_0"}[kind]
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(path)

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
    def test_usage_error(self, argv, tmp_path):
        if argv[0] == "simulate":
            argv = argv + ["--out", tmp_path / "s.csv"]
        assert "finite" in run(*argv).error(EXIT_USAGE)
        assert list(tmp_path.iterdir()) == []


class TestDbFlags:
    FLAGS = ["--theta-db", "--power-dbm", "--noise-dbm"]

    @pytest.mark.parametrize("flag", FLAGS)
    def test_underflow_to_zero_is_usage_error(self, flag):
        # 10^-325 is below the smallest positive double; only -inf asks for 0.
        assert run("moments", flag, "-3250", "--n-max", "1").error(EXIT_USAGE) == (
            f"error: {flag} -3250.0 is 0 in linear units; only {flag}=-inf means 0\n")

    def test_beyond_the_doubles_is_inf(self):
        assert db_to_linear(4000.0) == math.inf
        assert db_to_linear(-4000.0) == 0.0

    def test_subnormal_noise_is_kept(self):
        # -3220 dBm is a subnormal but positive noise power: a noisy scenario.
        t = run("moments", "--noise-dbm", "-3220", "--n-max", "1", "--format", "json").table()
        assert t.meta["scenario"]["noise_mw"] > 0.0


class TestPowerCommand:
    def test_slope_in_meta(self, tmp_path):
        t = run("power", "--x-rel", "0.2", "--epsilon", "0.5", "--gamma", "4",
                "--theta-db", "-10", "--out", tmp_path / "p.csv").table()
        assert abs(t.meta["loglog_slope"] + 2.0) <= 1e-6
        assert len(t["lambda"]) == 9
        p0 = t.floats("p_mw")[0]
        assert t.floats("p_dbm")[0] == pytest.approx(10.0 * math.log10(p0), rel=1e-12)

    def test_gamma_five_slope(self, tmp_path):
        t = run("power", "--x-rel", "0.2", "--epsilon", "0.5", "--gamma", "5",
                "--theta-db", "-10", "--out", tmp_path / "p.csv").table()
        assert abs(t.meta["loglog_slope"] + 2.5) <= 1e-6

    def test_one_2f1_per_run(self, monkeypatch, paper_params):
        # rho_2 does not depend on lambda: p = c lambda^(-gamma/2) with c
        # solved once, and every row is still that density's min_power.
        calls = spy(monkeypatch, moments, "gauss_2f1")
        t = run("power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                "--format", "json").table()
        assert len(calls) == 1
        assert len(t["lambda"]) == 9
        params = dataclasses.replace(paper_params, theta=db_to_linear(-10.0))
        qos = QosSpec(x_rel=0.2, epsilon=0.5)
        for lam, p_mw in zip(t.floats("lambda"), t.floats("p_mw")):
            assert p_mw == min_power(dataclasses.replace(params, lambda_bs=lam), qos)

    def test_infeasible_exit(self):
        assert run("power", "--x-rel", "0.9", "--epsilon", "0.05", "--gamma", "5",
                   "--theta-db", "10").code == EXIT_MATH

    def test_target_at_the_noise_free_limit_is_met(self):
        # At theta = 0, mu_2 is 1 at every power: the target 1 - eps + x^2 = 1
        # equals the limit 1/(1 + rho_2) and is met, at 0 mW.
        r = run("power", "--x-rel", "0.5", "--epsilon", "0.25", "--theta-db=-inf")
        assert r.table().floats("p_mw") == [0.0] * 9
        assert "reported as 0 mW" in r.err

    @pytest.mark.parametrize("theta_db", ["50", "60"])
    def test_failed_2f1_exits_math(self, theta_db):
        # 1 + rho_2 is 185 at 50 dB and 465 at 60 dB, so the target is
        # infeasible; the 2F1 series returns values below 1 there.
        r = run("power", "--x-rel", "0.3", "--epsilon", "0.7", "--theta-db", theta_db)
        assert "rho_2" in r.error(EXIT_MATH)

    def test_invalid_qos_is_usage_error(self):
        assert run("power", "--x-rel", "1.5", "--epsilon", "0.5").code == EXIT_USAGE
        assert run("power", "--x-rel", "0.5", "--epsilon", "0.5",
                   "--gamma", "2.0").code == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--lambda-max", "-1"),
        ("--lambda-max", "0"),
        ("--lambda-min", "-1"),
        ("--lambda-min", "0"),
        ("--lambda-min", "nan"),
        ("--lambda-steps", "0"),
    ])
    def test_invalid_sweep_is_usage_error(self, flag, value):
        run("power", "--x-rel", "0.2", "--epsilon", "0.5", flag, value).error(EXIT_USAGE)

    def test_single_step_has_no_slope_and_no_zero_note(self):
        r = run("power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                "--lambda-steps", "1", "--format", "json")
        t = r.table()
        assert len(t["p_mw"]) == 1 and t.floats("p_mw")[0] > 0.0
        assert "loglog_slope" not in t.meta
        assert r.err == ""

    def test_equal_densities_have_no_slope(self):
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--lambda-min", "1e-2",
                "--lambda-max", "1e-2", "--lambda-steps", "3", "--format", "json"]
        r = run(*argv)
        t = r.table()
        assert len(t["lambda"]) == 3
        assert "loglog_slope" not in t.meta
        assert "slope" not in r.err

    @pytest.mark.parametrize("sweep, density", [
        # lambda^(-gamma/2) underflows to 0 from the fifth of nine densities on.
        (["--lambda-max", "1e300"], "1e+148"),
        (["--lambda-max", "1e300", "--lambda-steps", "2"], "1e+300"),
        # lambda^(-gamma/2) overflows.
        (["--lambda-min", "1e-300"], "1e-300"),
    ])
    def test_power_beyond_the_doubles_is_math_error(self, sweep, density):
        r = run("power", "--x-rel", "0.3", "--epsilon", "0.7", *sweep)
        err = r.error(EXIT_MATH)
        assert f"minimum power at lambda = {density} is not a positive finite double" in err
        assert "reported as 0 mW" not in err

    def test_noise_free_at_extreme_densities_notes_zero_power(self):
        argv = ["power", "--x-rel", "0.3", "--epsilon", "0.7", "--noise-dbm=-inf",
                "--lambda-min", "1e-300", "--lambda-max", "1e300", "--format", "json"]
        r = run(*argv)
        t = r.table()
        assert len(t["lambda"]) == 9
        assert t["p_mw"] == ["0.0"] * 9 and t["p_dbm"] == ["-inf"] * 9
        assert "loglog_slope" not in t.meta
        assert "reported as 0 mW" in r.err

    def test_subnormal_powers_are_reported(self):
        # theta sigma2 is the smallest subnormal; the powers are subnormal too.
        r = run("power", "--x-rel", "0.3", "--epsilon", "0.7", "--noise-dbm", "-3235",
                "--lambda-steps", "2", "--format", "json")
        powers = r.table().floats("p_mw")
        assert len(powers) == 2 and all(0.0 < p < 1e-300 for p in powers)
        assert "reported as 0 mW" not in r.err

    def test_failure_names_a_requested_density(self):
        # (c_1* pi lambda)^(-gamma/2) overflows at the first density, 1e-4;
        # nothing is evaluated at any other density.
        r = run("power", "--x-rel", "0.3", "--epsilon", "0.7", "--gamma", "1e6",
                "--lambda-steps", "2")
        assert "minimum power at lambda = 0.0001 is not a positive finite double" in (
            r.error(EXIT_MATH))

    def test_noise_free_notes_zero_power(self):
        r = run("power", "--x-rel", "0.2", "--epsilon", "0.5", "--theta-db", "-10",
                "--noise-dbm=-inf", "--format", "json")
        t = r.table()
        assert all(p == 0.0 for p in t.floats("p_mw"))
        assert "loglog_slope" not in t.meta
        assert "reported as 0 mW" in r.err
        assert "slope" not in r.err


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
def test_csv_and_json_tables_hold_the_same_cells(command, tmp_path):
    """One table, two forms: the same header and cell strings in each.

    n is an int in JSON, an endpoint PDF is blank, and every other cell is
    the shortest repr of a double.
    """
    samples = tmp_path / "s.csv"
    sim.write_samples_csv(np.random.default_rng(4).beta(3.0, 1.5, 200), samples)
    template, labels_hold = _TABLES[command]
    argv = [a.format(samples=samples) for a in template]
    written = run(*argv, "--out", tmp_path / "t.csv").table()
    doc = run(*argv, "--format", "json").table()
    assert list(doc.columns) == list(written.columns)
    assert doc.meta == written.meta
    assert {name: [str(v) for v in cells] for name, cells in doc.columns.items()} == (
        written.columns)
    columns = {}
    for name, cells in doc.columns.items():
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
    pass, and with it fail, until that change deletes its marker.  A mended
    one stays here, unmarked, as the check that keeps it right.
    """

    @pytest.mark.xfail(reason="the 2F1 series stops at its term cap from about "
                              "28 dB (ROADMAP item 1)")
    def test_noise_free_moments_at_28_db(self, paper_params):
        # The reconstruction's CDF reads 1.16 at x = 0.75 today.
        argv = ["reconstruct", "--theta-db", "28", "--noise-dbm=-inf", "--format", "json"]
        got = run(*argv).table().meta["moments"]
        p = dataclasses.replace(paper_params, theta=db_to_linear(28.0), noise=0.0)
        expected = [1.0 / one_plus_rho_scipy(p, n) for n in range(1, len(got))]
        assert got[1:] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.xfail(reason="the coefficient map's rounding swamps the default "
                              "order when the law sits near x = 1 (ROADMAP item 3)")
    def test_cdf_stays_in_the_unit_interval_at_minus_30_db(self):
        # Today the CDF reads about -1e7 at x = 0.99, where the PDF reads
        # about 1e9; the figures move with the last bits of the moments.
        r = run("reconstruct", "--gamma", "4.05", "--theta-db", "-30", "--format", "json")
        if r.code != EXIT_MATH:
            assert all(-1e-6 <= value <= 1.0 + 1e-6 for value in r.table().floats("cdf"))

    def test_moments_at_gamma_1e6(self, paper_params):
        # Mended: the moments stay exact where Gamma(gamma/2) overflows.
        t = run("moments", "--gamma", "1e6", "--n-max", "3", "--format", "json").table()
        p = dataclasses.replace(paper_params, gamma_pl=1e6)
        expected = [moment_t_mpmath(p, n) for n in (1, 2, 3)]
        assert t.floats("mu_exact") == pytest.approx(expected, rel=1e-10)
