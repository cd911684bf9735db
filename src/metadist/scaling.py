"""Power scaling law from the second-moment Markov bound.

For a [0,1]-valued coverage probability C, P(C >= x) >= mu_2 - x^2, so a
reliability constraint P(C > x) >= 1 - eps is guaranteed once
mu_2 >= target = 1 - eps + x^2.  The closed-form second
moment 1 / (1 + rho_2 + gamma 2^(2/gamma) c_1 / (2 Gamma(2/gamma))) depends
on lambda, p and sigma2 only through the noise root
c_1 = (theta sigma2 / p)^(2/gamma) / (pi lambda), and falls as c_1 rises.
It meets the target exactly at

    c_1* = 2 Gamma(2/gamma) (1/target - (1 + rho_2)) / (gamma 2^(2/gamma)),

which involves neither lambda nor p.  Solving c_1 = c_1* for the power gives

    p(lambda) = theta sigma2 (c_1* pi lambda)^(-gamma/2),

i.e. the minimum power that holds the QoS constant falls off as the -gamma/2
power of the base-station density.  max_noise_root solves for c_1* once,
and power_at evaluates p(lambda) with its range check; min_power and the
CLI's power sweep both call the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import SystemParams, rho_n

__all__ = ["QosSpec", "InfeasibleQosError", "min_power"]


class InfeasibleQosError(ValueError):
    """No transmit power can satisfy the requested reliability constraint."""


@dataclass(frozen=True)
class QosSpec:
    """Reliability target: P(C > x_rel) >= 1 - epsilon, both stored as Python floats."""

    x_rel: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.x_rel < 1.0:
            raise ValueError(f"x_rel must lie in (0, 1), got {self.x_rel}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "x_rel", float(self.x_rel))
        object.__setattr__(self, "epsilon", float(self.epsilon))


def max_noise_root(params: SystemParams, qos: QosSpec) -> float:
    """c_1*, the largest noise root whose closed-form mu_2 meets the QoS.

    Reads only gamma and theta of params (through rho_2).

    Raises:
        InfeasibleQosError: the target 1 - eps + x^2 exceeds 1 (the Markov
            bound can never certify it) or exceeds the p -> inf moment limit
            1 / (1 + rho_2).
    """
    target = 1.0 - qos.epsilon + qos.x_rel**2
    if target > 1.0:
        raise InfeasibleQosError(
            f"x_rel^2 = {qos.x_rel ** 2:.6g} exceeds epsilon = {qos.epsilon:.6g}: "
            "mu_2 - x^2 >= 1 - eps is unreachable for a [0,1] variable"
        )
    rho2 = rho_n(params, 2)
    bracket = 1.0 - target * (1.0 + rho2)
    if bracket <= 0.0:
        raise InfeasibleQosError(
            f"required mu_2 = {target:.6g} exceeds the infinite-power limit "
            f"1/(1+rho_2) = {1.0 / (1.0 + rho2):.6g}"
        )
    g = params.gamma_pl
    return 2.0 * math.gamma(2.0 / g) * bracket / (g * target * 2.0 ** (2.0 / g))


def power_at(c1: float, lam: float, params: SystemParams) -> float:
    """p(lam) = theta sigma2 (c1 pi lam)^(-gamma/2) for the scenario's gamma, theta, sigma2.

    0.0 for a noise-free scenario (theta = 0 or noise = 0): the moments are
    then power-independent, so any positive power works.  Otherwise
    ValueError unless p is a positive finite double.
    """
    if params.theta == 0.0 or params.noise == 0.0:
        return 0.0
    try:
        p = params.theta * params.noise * (c1 * math.pi * lam) ** (-params.gamma_pl / 2.0)
    except (OverflowError, ZeroDivisionError):
        p = math.inf
    if not 0.0 < p < math.inf:
        raise ValueError(f"the minimum power at lambda = {lam!r} is not a positive finite double")
    return p


def min_power(params: SystemParams, qos: QosSpec) -> float:
    """Minimum transmit power (mW) meeting the QoS via the Markov bound.

    params.power is ignored; the returned power makes the closed-form
    second moment hit 1 - eps + x^2 exactly.  Only theta = 0 or noise = 0
    returns 0.0 (see power_at).

    Raises:
        InfeasibleQosError: see max_noise_root.
        ValueError: the power is not a positive finite double (see power_at).
    """
    return power_at(max_noise_root(params, qos), params.lambda_bs, params)
