"""Power scaling law from the second-moment Markov bound.

For a [0,1]-valued coverage probability C, P(C >= x) >= mu_2 - x^2, so a
reliability constraint P(C > x) >= 1 - eps is guaranteed once
mu_2 >= 1 - eps + x^2.  Solving the closed-form second-moment approximation
for the transmit power gives

    p = c lambda^(-gamma/2),

i.e. the minimum power that holds the QoS constant falls off as the -gamma/2
power of the base-station density.  The law and its range check are one
function, power_at, that min_power and the CLI's power sweep both call.
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
    """Reliability target: P(C > x_rel) >= 1 - epsilon."""

    x_rel: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.x_rel < 1.0:
            raise ValueError(f"x_rel must lie in (0, 1), got {self.x_rel}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


def min_power(params: SystemParams, qos: QosSpec) -> float:
    """Minimum transmit power (mW) meeting the QoS via the Markov bound.

    params.power is ignored; the returned power, power_at(c, lambda, gamma),
    makes the approximate second moment hit 1 - eps + x^2 exactly.  Only
    theta = 0 or noise = 0 returns 0.0: the moment is then power-independent,
    so any positive power works whenever the QoS is feasible at all.

    Raises:
        InfeasibleQosError: the target 1 - eps + x^2 exceeds 1 (the Markov
            bound can never certify it) or exceeds the p -> inf moment limit
            1 / (1 + rho_2).
        ValueError: the power is not a positive finite double (see power_at).
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
    if params.theta == 0.0 or params.noise == 0.0:
        return 0.0
    g = params.gamma_pl
    gamma_2g = math.gamma(2.0 / g)
    c = (
        2.0
        * math.pi
        * bracket
        * gamma_2g
        / (g * target * (2.0 * params.theta * params.noise) ** (2.0 / g))
    ) ** (-g / 2.0)
    return power_at(c, params.lambda_bs, g)


def power_at(c: float, lam: float, gamma_pl: float) -> float:
    """c lam^(-gamma/2); ValueError unless that is a positive finite double."""
    try:
        p = c * lam ** (-gamma_pl / 2.0)
    except OverflowError:
        p = math.inf
    if not 0.0 < p < math.inf:
        raise ValueError(f"the minimum power at lambda = {lam!r} is not a positive finite double")
    return p
