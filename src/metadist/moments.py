"""Moments of the conditional coverage probability in a downlink Poisson
cellular network.

For a user at the origin served by the nearest base station of a PPP with
density lambda, Rayleigh fading, path-loss exponent gamma > 2, SINR
threshold theta, transmit power p and noise power sigma2, the n-th moment
of the conditional coverage probability is

    mu_n = pi lambda int_0^inf exp(-(A_n z + B_n z^(gamma/2))) dz,

with A_n = pi lambda (1 + rho_n), B_n = n theta sigma2 / p, and
1 + rho_n = 2F1(n, -2/gamma; 1 - 2/gamma; -theta).

The module provides the exact moments (double-exponential quadrature of
the integral above: mu_1..mu_N are the rows of one integrand on one shared
set of abscissae), a closed-form approximation

    mu_n ~= pi lambda / (A_n + gamma B_n^(2/gamma) / (2 Gamma(2/gamma))),

and an analytic bound on the approximation error that is exact in the
limits theta = 0, sigma2 = 0, or gamma -> 2.

A SystemParams object memoises 1 + rho_n per n, so the exact moments, the
closed form, the bound and the power law evaluate each 2F1 once per
scenario object.  A new object, including one from dataclasses.replace,
starts with an empty memo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import DEFAULT_TOL, integrate_semi_infinite_decaying
from .specfun import gauss_2f1

__all__ = [
    "SystemParams",
    "MomentSequence",
    "IntegralCoeffs",
    "METHOD_EXACT",
    "METHOD_CLOSED_FORM",
    "METHOD_EMPIRICAL",
    "rho_n",
    "coeffs",
    "moment_exact",
    "moment_approx",
    "moment_sequence",
    "approx_error_bound",
    "big_m_constant",
]

METHOD_EXACT = "exact_quadrature"
METHOD_CLOSED_FORM = "closed_form"
METHOD_EMPIRICAL = "empirical"
_METHODS = (METHOD_EXACT, METHOD_CLOSED_FORM, METHOD_EMPIRICAL)

# Moments are means of a [0,1] variable, hence nonincreasing in n; allow
# this much slack for quadrature / floating-point jitter when validating.
_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Physical scenario, all quantities linear (mW, per m^2, meters) and finite.

    Attributes:
        lambda_bs: base-station density per m^2.
        gamma_pl: path-loss exponent; must exceed 2 for the moment integral
            to converge.
        theta: SINR threshold, linear scale.
        power: transmit power in mW.
        noise: noise power in mW.
    """

    lambda_bs: float
    gamma_pl: float
    theta: float
    power: float
    noise: float
    # 1 + rho_n by n, filled by rho_n; not part of the scenario's identity.
    _one_plus_rho: dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("lambda_bs", "gamma_pl", "theta", "power", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lambda_bs > 0.0:
            raise ValueError(f"lambda_bs must be positive, got {self.lambda_bs}")
        if not self.gamma_pl > 2.0:
            raise ValueError(f"gamma_pl must exceed 2, got {self.gamma_pl}")
        if not self.theta >= 0.0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")
        if not self.power > 0.0:
            raise ValueError(f"power must be positive, got {self.power}")
        if not self.noise >= 0.0:
            raise ValueError(f"noise must be nonnegative, got {self.noise}")


@dataclass(frozen=True)
class IntegralCoeffs:
    """Coefficients (A_n, B_n, rho_n) of the moment integral for one n."""

    a_coef: float
    b_coef: float
    rho: float

    def __post_init__(self) -> None:
        if not self.a_coef > 0.0:
            raise ValueError(f"a_coef must be positive, got {self.a_coef}")
        if not self.b_coef >= 0.0:
            raise ValueError(f"b_coef must be nonnegative, got {self.b_coef}")
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")


@dataclass(frozen=True)
class MomentSequence:
    """Moments mu_0..mu_N of the conditional coverage probability.

    values[0] is always 1; subsequent values lie in [0, 1] and are
    nonincreasing.  A zero is valid: the sample mean of c^n underflows to it
    when every CCP sample is tiny.  `method` records provenance: exact
    quadrature, the closed-form approximation, or empirical averages from
    the simulator.
    """

    values: tuple[float, ...]
    method: str

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown moment method {self.method!r}")
        if len(self.values) == 0:
            raise ValueError("moment sequence must contain at least mu_0")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if abs(self.values[0] - 1.0) > 1e-12:
            raise ValueError(f"mu_0 must equal 1, got {self.values[0]}")
        for n, v in enumerate(self.values):
            if not 0.0 <= v <= 1.0 + 1e-12:
                raise ValueError(f"mu_{n}={v} outside [0, 1]")
            if n > 0 and v > self.values[n - 1] + _MONOTONE_SLACK:
                raise ValueError(
                    f"moments must be nonincreasing: mu_{n}={v} > mu_{n-1}={self.values[n-1]}"
                )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> float:
        return self.values[n]


def rho_n(params: SystemParams, n: int) -> float:
    """Interference scaling rho_n = 2F1(n, -2/gamma; 1-2/gamma; -theta) - 1.

    The 2F1 runs once per n and params object; later calls read its memo.
    """
    if n < 1:
        raise ValueError(f"rho_n requires n >= 1, got {n}")
    memo = params._one_plus_rho
    if n not in memo:
        g = params.gamma_pl
        memo[n] = gauss_2f1(float(n), -2.0 / g, 1.0 - 2.0 / g, -params.theta)
    return memo[n] - 1.0


def coeffs(params: SystemParams, n: int) -> IntegralCoeffs:
    """A_n = pi lambda (1 + rho_n) and B_n = n theta sigma2 / p."""
    if n < 1:
        raise ValueError(f"coeffs requires n >= 1, got {n}")
    rho = rho_n(params, n)
    a_coef = math.pi * params.lambda_bs * (1.0 + rho)
    b_coef = n * params.theta * params.noise / params.power
    return IntegralCoeffs(a_coef=a_coef, b_coef=b_coef, rho=rho)


def moment_exact(params: SystemParams, n: int, tol: float = DEFAULT_TOL) -> float:
    """mu_n by quadrature of the moment integral, to tolerance tol.

    theta = 0 short-circuits to 1 exactly (the integrand is the nearest-BS
    distance density, which integrates to one).
    """
    if n < 1:
        raise ValueError(f"moment_exact requires n >= 1, got {n}")
    return float(_moments_exact(params, [n], tol)[0])


def _moments_exact(params: SystemParams, ns, tol: float = DEFAULT_TOL) -> np.ndarray:
    """mu_n for each n in ns: one quadrature, one integrand row per n.

    With c_n = B_n^(2/gamma) the exponent is A_n z + (c_n z)^(gamma/2), so
    row n decays on the length 1 / (A_n + c_n); the rule is scaled to the
    geometric mean of these lengths over the rows.  (c_n z)^(gamma/2) is 0,
    not 0 * inf, when B_n = 0 and z^(gamma/2) overflows.
    """
    if params.theta == 0.0 or not ns:
        return np.ones(len(ns))
    cs = [coeffs(params, n) for n in ns]
    a = np.array([cf.a_coef for cf in cs])[:, None]
    half_g = params.gamma_pl / 2.0
    c = np.array([cf.b_coef for cf in cs])[:, None] ** (1.0 / half_g)

    def integrand(z: np.ndarray) -> np.ndarray:
        # Far out in the tail (c z)^(gamma/2) may overflow to inf; exp gives 0.
        with np.errstate(over="ignore"):
            return np.exp(-(a * z + (c * z) ** half_g))

    scale = float(np.exp(-np.log(a + c).mean()))
    pi_lambda = math.pi * params.lambda_bs
    return pi_lambda * integrate_semi_infinite_decaying(integrand, scale, tol / pi_lambda).value


def moment_approx(params: SystemParams, n: int) -> float:
    """Closed-form approximation of mu_n.

    Exact when theta = 0 or noise = 0 (B_n = 0) and in the gamma -> 2 limit.
    """
    if n < 1:
        raise ValueError(f"moment_approx requires n >= 1, got {n}")
    c = coeffs(params, n)
    g = params.gamma_pl
    denom = c.a_coef + g * c.b_coef ** (2.0 / g) / (2.0 * math.gamma(2.0 / g))
    return math.pi * params.lambda_bs / denom


def moment_sequence(
    params: SystemParams,
    n_max: int,
    method: str = METHOD_EXACT,
) -> MomentSequence:
    """mu_0..mu_n_max with the requested provenance (exact or closed form).

    The exact moments come from one quadrature call for all n.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    ns = range(1, n_max + 1)
    if method == METHOD_EXACT:
        values = [1.0] + _moments_exact(params, ns).tolist()
    elif method == METHOD_CLOSED_FORM:
        values = [1.0] + [moment_approx(params, n) for n in ns]
    else:
        raise ValueError(f"moment_sequence cannot compute method {method!r}")
    return MomentSequence(values=tuple(values), method=method)


def big_m_constant(gamma_pl: float) -> float:
    """Peak of exp(-f) for f(z) = -(B^(2/g) / ((2/g) Gamma(2/g))) z + B z^(g/2).

    f is convex on z >= 0 with minimum (1 - g/2) / Gamma(2/g)^(g/(g-2)),
    independent of B, so M = exp(-min f) >= 1.
    """
    if not gamma_pl > 2.0:
        raise ValueError(f"big_m_constant requires gamma_pl > 2, got {gamma_pl}")
    g = gamma_pl
    min_f = (1.0 - g / 2.0) / math.gamma(2.0 / g) ** (g / (g - 2.0))
    return math.exp(-min_f)


def approx_error_bound(a_coef: float, b_coef: float, gamma_pl: float) -> float:
    """Bound on |I - 1/K| for I = int_0^inf exp(-(A z + B z^(gamma/2))) dz.

    K = A + gamma B^(2/gamma) / (2 Gamma(2/gamma)) is the closed-form
    denominator; the bound is

        (gamma M / 2K) [ B^(2/gamma) / (Gamma(2/gamma) K)
                         + Gamma(gamma/2) (B^(2/gamma) / K)^(gamma/2) ].

    Note this bounds the unscaled integral: multiply by pi lambda to compare
    against moment values.
    """
    if not a_coef > 0.0:
        raise ValueError(f"a_coef must be positive, got {a_coef}")
    if not b_coef >= 0.0:
        raise ValueError(f"b_coef must be nonnegative, got {b_coef}")
    if not gamma_pl > 2.0:
        raise ValueError(f"gamma_pl must exceed 2, got {gamma_pl}")
    g = gamma_pl
    gamma_2g = math.gamma(2.0 / g)
    b_pow = b_coef ** (2.0 / g)
    k = a_coef + g * b_pow / (2.0 * gamma_2g)
    m = big_m_constant(g)
    bracket = b_pow / (gamma_2g * k) + math.gamma(g / 2.0) * (b_pow / k) ** (g / 2.0)
    return g * m / (2.0 * k) * bracket
