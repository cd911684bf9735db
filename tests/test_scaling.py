"""Markov-bound power scaling law."""
import dataclasses
import re

import numpy as np
import pytest

from metadist.moments import SystemParams, moment_approx
from metadist.scaling import (
    InfeasibleQosError, QosSpec, max_noise_root, min_power, power_at,
)

from oracles import one_plus_rho_scipy


class TestQosSpec:
    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            QosSpec(x_rel=0.0, epsilon=0.5)
        with pytest.raises(ValueError):
            QosSpec(x_rel=1.0, epsilon=0.5)
        with pytest.raises(ValueError):
            QosSpec(x_rel=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            QosSpec(x_rel=0.5, epsilon=1.0)


class TestMinPower:
    QOS = QosSpec(x_rel=0.2, epsilon=0.5)

    def test_density_scaling_exponent(self):
        for g in (3.0, 4.0, 5.0):
            p1 = min_power(SystemParams(1e-3, g, 0.1, 1.0, 1e-10), self.QOS)
            p2 = min_power(SystemParams(2e-3, g, 0.1, 1.0, 1e-10), self.QOS)
            assert p2 / p1 == pytest.approx(2.0 ** (-g / 2.0), rel=1e-12)

    def test_loglog_slope(self):
        for g in (3.0, 4.0, 5.0):
            lams = np.logspace(-4, -2, 5)
            ps = [
                min_power(SystemParams(float(lam), g, 0.1, 1.0, 1e-10), self.QOS)
                for lam in lams
            ]
            slope = float(np.polyfit(np.log(lams), np.log(ps), 1)[0])
            assert abs(slope + g / 2.0) <= 1e-9

    def test_inversion_consistency(self):
        # moment_approx at the returned power must hit mu_2 = 1 - eps + x^2.
        qos = QosSpec(x_rel=0.3, epsilon=0.7)
        base = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)
        p = min_power(base, qos)
        mu2 = moment_approx(SystemParams(1e-3, 5.0, 1.0, p, 1e-10), 2)
        target = 1.0 - qos.epsilon + qos.x_rel**2
        assert abs(mu2 - target) / target <= 1e-9

    def test_monotone_in_epsilon(self):
        base = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)
        ps = [min_power(base, QosSpec(0.3, eps)) for eps in (0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_x_rel(self):
        base = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)
        ps = [min_power(base, QosSpec(x, 0.7)) for x in (0.05, 0.15, 0.3, 0.45)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_infeasible_unit_target(self):
        base = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)
        with pytest.raises(InfeasibleQosError):
            min_power(base, QosSpec(x_rel=0.9, epsilon=0.1))

    def test_infeasible_interference_limit(self):
        # gamma = 3, theta = 1: mu_2 can never exceed 1/(1+rho_2) ~ 0.24.
        base = SystemParams(1e-3, 3.0, 1.0, 1.0, 1e-10)
        limit = 1.0 / one_plus_rho_scipy(base, 2)
        assert limit < 0.39
        with pytest.raises(InfeasibleQosError):
            min_power(base, QosSpec(x_rel=0.3, epsilon=0.7))

    def test_noise_free_returns_zero(self):
        qos = QosSpec(x_rel=0.3, epsilon=0.7)
        assert min_power(SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0), qos) == 0.0
        assert min_power(SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10), qos) == 0.0

    def test_noise_free_still_checks_feasibility(self):
        with pytest.raises(InfeasibleQosError):
            min_power(SystemParams(1e-3, 3.0, 1.0, 1.0, 0.0), QosSpec(0.3, 0.7))

    @pytest.mark.parametrize("lam", [1e300, 1e-300])
    def test_power_beyond_the_doubles_raises(self, lam):
        # lambda^(-gamma/2) underflows at 1e300 and overflows at 1e-300.
        message = f"the minimum power at lambda = {lam!r} is not a positive finite double"
        with pytest.raises(ValueError, match=re.escape(message)):
            min_power(SystemParams(lam, 5.0, 1.0, 1.0, 1e-10), QosSpec(0.3, 0.7))

    @pytest.mark.parametrize("gamma, noise", [(5.0, 5e-324), (1e6, 1e-10)])
    def test_underflowing_c_is_not_noise_free(self, gamma, noise):
        # The scenario has noise, so 0.0 would claim a noise-free link.
        with pytest.raises(ValueError, match=re.escape("lambda = 1.0 is not a positive finite")):
            min_power(SystemParams(1.0, gamma, 1.0, 1.0, noise), QosSpec(0.3, 0.7))


class TestPowerAt:
    PARAMS = SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10)

    @pytest.mark.parametrize("c", [0.0, float("inf"), float("nan")])
    def test_needs_a_positive_finite_power(self, c):
        with pytest.raises(ValueError, match="not a positive finite double"):
            power_at(c, 1e-3, self.PARAMS)

    def test_noise_free_is_zero_at_any_root(self):
        for params in (SystemParams(1e-3, 5.0, 0.0, 1.0, 1e-10),
                       SystemParams(1e-3, 5.0, 1.0, 1.0, 0.0)):
            assert power_at(float("nan"), 1e300, params) == 0.0

    def test_inverts_the_noise_root(self):
        # The scenario at p(lambda) has noise root c_1 at lambda.
        for lam in (1e-4, 1e-3, 1e-2):
            p = power_at(0.7, lam, self.PARAMS)
            c1 = dataclasses.replace(self.PARAMS, lambda_bs=lam, power=p).noise_root
            assert c1 == pytest.approx(0.7, rel=1e-14)


class TestMaxNoiseRoot:
    QOS = QosSpec(x_rel=0.3, epsilon=0.7)

    def test_closed_form_mu2_meets_the_target(self):
        for g, theta in ((2.5, 0.1), (4.0, 1.0), (5.0, 1.0), (8.0, 10.0)):
            base = SystemParams(1e-3, g, theta, 1.0, 1e-10)
            c1 = max_noise_root(base, self.QOS)
            p = power_at(c1, 1e-3, base)
            assert moment_approx(dataclasses.replace(base, power=p), 2) == pytest.approx(
                1.0 - self.QOS.epsilon + self.QOS.x_rel**2, rel=1e-13)

    def test_reads_neither_density_nor_power_nor_noise(self):
        roots = {max_noise_root(SystemParams(lam, 5.0, 1.0, p, noise), self.QOS)
                 for lam in (1e-300, 1.0, 1e300) for p in (1e-300, 1e300)
                 for noise in (0.0, 1e-10)}
        assert len(roots) == 1

    def test_infeasible(self):
        with pytest.raises(InfeasibleQosError, match="unreachable"):
            max_noise_root(SystemParams(1e-3, 5.0, 1.0, 1.0, 1e-10), QosSpec(0.9, 0.1))
        with pytest.raises(InfeasibleQosError, match="infinite-power limit"):
            max_noise_root(SystemParams(1e-3, 3.0, 1.0, 1.0, 1e-10), self.QOS)
