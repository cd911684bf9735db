"""Moments of the conditional coverage probability in a downlink Poisson
cellular network.

For a user at the origin served by the nearest base station of a PPP with
density lambda, Rayleigh fading, path-loss exponent gamma > 2, SINR
threshold theta, transmit power p and noise power sigma2, the n-th moment
of the conditional coverage probability is

    mu_n = pi lambda int_0^inf exp(-(A_n z + B_n z^(gamma/2))) dz,

with A_n = pi lambda (1 + rho_n), B_n = n theta sigma2 / p, and
1 + rho_n = 2F1(n, -2/gamma; 1 - 2/gamma; -theta).  Substituting
t = pi lambda z gives

    mu_n = int_0^inf exp(-(a_n t + (c_n t)^(gamma/2))) dt,

with a_n = 1 + rho_n and c_n = n^(2/gamma) c_1, where the noise root
c_1 = (theta sigma2 / p)^(2/gamma) / (pi lambda) (SystemParams.noise_root)
is the one place where lambda, p and sigma2 meet.  Scenarios with equal
gamma, theta and c_1 have equal moments.

Integrating by parts against W = U^delta / c_n, U ~ Exp(1), delta = 2/gamma,
whose survival function is exp(-(c_n t)^(gamma/2)), gives the u-form
mu_n = (1/a_n) int_0^inf e^-u (-expm1(-r_n u^delta)) du, r_n = a_n / c_n:
the cliff at t = 1/c_n becomes the weight e^-u, on the unit scale for
every row and gamma.  One row function (_moments) takes the rows
(a_n, c_n) for every requested n and gives either the exact moments
(quadrature of the u-form: mu_1..mu_N are the rows of one integrand on one
shared set of abscissae) or the closed-form approximation

    mu_n ~= 1 / (a_n + gamma c_n / (2 Gamma(2/gamma))).

Under both methods c_n = 0 gives mu_n = 1 / a_n exactly; moment_exact and
moment_approx are its one-row calls, moment_sequence its many-row call.
The module also gives an analytic bound on the approximation error, in the
z-form coefficients A_n, B_n (coeffs), that is exact in the limits theta =
0, sigma2 = 0, or gamma -> 2.

A SystemParams object memoises 1 + rho_n per n, so the exact moments, the
closed form, the bound and the power law evaluate each 2F1 once per
scenario object.  A new object, including one from dataclasses.replace,
starts with an empty memo.

A MomentSequence holds mu_0..mu_N and takes the triangle of their
differences E[C^l (1-C)^m], l + m <= n, itself (MomentSequence.differences):
its Hausdorff check and the Fourier-Jacobi map
(jacobi.fourier_jacobi_coeffs) each read one triangle.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .quadrature import integrate_semi_infinite_decaying
from .specfun import gauss_2f1

__all__ = [
    "SystemParams",
    "scenario_to_dict",
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

    Every field is stored as a Python float, whatever real type is passed.

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
        for name in ("lambda_bs", "gamma_pl", "theta", "power", "noise"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def noise_root(self) -> float:
        """c_1 = (theta sigma2 / p)^(2/gamma) / (pi lambda); 0.0 when theta or sigma2 is 0."""
        return (self.theta * self.noise / self.power) ** (2.0 / self.gamma_pl) / (
            math.pi * self.lambda_bs)


def scenario_to_dict(params: SystemParams) -> dict:
    """JSON-ready view of a scenario, in linear units (mW, per m^2)."""
    return {
        "lambda_bs": params.lambda_bs,
        "gamma_pl": params.gamma_pl,
        "theta": params.theta,
        "power_mw": params.power,
        "noise_mw": params.noise,
    }


@dataclass(frozen=True)
class IntegralCoeffs:
    """Coefficients A_n > 0, B_n >= 0 of the moment integral for one n (see coeffs).

    Both fields are stored as Python floats, whatever real type is passed.
    """

    a_coef: float
    b_coef: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_coef", float(self.a_coef))
        object.__setattr__(self, "b_coef", float(self.b_coef))


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
                raise ValueError(f"{self.method} moments: mu_{n}={v} outside [0, 1]")
            if n > 0 and v > self.values[n - 1] + _MONOTONE_SLACK:
                raise ValueError(
                    f"{self.method} moments must be nonincreasing: "
                    f"mu_{n}={v} > mu_{n-1}={self.values[n-1]}"
                )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> float:
        return self.values[n]

    def differences(self, n: int) -> list[list[float]]:
        """The triangle d[l][m] = E[C^l (1-C)^m], l + m <= n <= N.

        Each entry is sum_j (-1)^j C(m, j) mu_{l+j}, one correctly rounded
        math.fsum; the signed binomials of each m are built once.
        """
        if not 0 <= n < len(self):
            raise ValueError(f"differences up to order {n} need mu_0..mu_{n}, "
                             f"got mu_0..mu_{len(self) - 1}")
        mu = self.values
        # Row m from row m-1 by Pascal's rule, exact in floats (C(20, 10) < 2^53).
        signed = [[1.0]]
        for _ in range(n):
            prev = signed[-1]
            signed.append([1.0, *map(operator.sub, prev[1:], prev), -prev[-1]])
        return [[math.fsum(map(operator.mul, s, mu[l:])) for s in signed[:n + 1 - l]]
                for l in range(n + 1)]

    def check_hausdorff(self) -> None:
        """Raise ValueError if mu_0..mu_N cannot be moments of a law on [0, 1].

        Every difference E[C^n (1-C)^k] (differences(N)[n][k]), with k >= 1
        and n + k <= N, must be nonnegative, and then so must the variance
        mu_2 - mu_1^2.  The monotonicity slack (k = 1) lets each value be off
        by half of it, which moves a k-th difference by up to 2^(k-1) times
        the slack: that is the margin allowed.  It moves the variance by up
        to (1 + 2 mu_1)/2 times the slack, within the k = 2 margin, which the
        variance takes.

        Last, the Hankel matrices of the truncated Hausdorff problem must be
        positive semidefinite, which no law on [0, 1] can fail: for N = 2k,
        [E[C^(i+j)]], i, j = 0..k, and [E[C^(i+j+1) (1-C)]], i, j = 0..k-1;
        for N = 2k+1, [E[C^(i+j+1)]] and [E[C^(i+j) (1-C)]], i, j = 0..k.
        Up to the margins, a sequence that passes them is the moments of a
        law on [0, 1] (the truncated Hausdorff moment problem is solvable).
        Each entry is a value or a first difference, off by at most the
        slack, so an m x m matrix moves by at most m times the slack in the
        2-norm: its smallest eigenvalue may reach -m times the slack.
        """
        diffs = self.differences(len(self) - 1)
        for k in range(1, len(self)):
            for n in range(len(self) - k):
                if not diffs[n][k] >= -(2.0 ** (k - 1)) * _MONOTONE_SLACK:
                    raise ValueError(
                        f"not the moments of a law on [0, 1]: the difference "
                        f"E[C^n (1-C)^k] at k={k}, n={n} is {diffs[n][k]:.6g} < 0"
                    )
        if len(self) > 2:
            mu1, mu2 = self.values[1], self.values[2]
            if not mu2 - mu1 * mu1 >= -2.0 * _MONOTONE_SLACK:
                raise ValueError(negative_variance_message(mu1, mu2))
        # (s, t, m): the m x m matrix [E[C^(i+j+s) (1-C)^t]] = [diffs[i+j+s][t]].
        half = (len(self) - 1) // 2
        hankels = ([(1, 0, half + 1), (0, 1, half + 1)] if len(self) % 2 == 0
                   else [(0, 0, half + 1), (1, 1, half)])
        for s, t, m in hankels:
            if m == 0:
                continue
            smallest = float(np.linalg.eigvalsh(
                [[diffs[i + j + s][t] for j in range(m)] for i in range(m)])[0])
            if not smallest >= -m * _MONOTONE_SLACK:
                entry = f"C^(i+j{'+1' if s else ''}){' (1-C)' if t else ''}"
                raise ValueError(
                    f"not the moments of a law on [0, 1]: the Hankel matrix "
                    f"[E[{entry}]], i, j = 0..{m - 1}, has eigenvalue {smallest:.6g} < 0"
                )


def negative_variance_message(mu1: float, mu2: float) -> str:
    """check_hausdorff's and moment matching's error text for mu2 < mu1^2."""
    return (f"mu2={mu2} lies below mu1^2={mu1 * mu1}: a negative variance, so these "
            "are not the moments of a law on [0, 1]")


def rho_n(params: SystemParams, n: int) -> float:
    """Interference scaling rho_n = 2F1(n, -2/gamma; 1-2/gamma; -theta) - 1.

    rho_n >= 0 for every scenario, so a 2F1 below 1 (or NaN) is a failed
    evaluation and raises ValueError; it is not memoised.  n < 1 raises
    ValueError here, for coeffs and both moments too, and a non-integral n
    TypeError.  The 2F1 runs once per n and params object; later calls read
    its memo.
    """
    if n < 1:
        raise ValueError(f"rho_n requires n >= 1, got {n}")
    n = operator.index(n)
    memo = params._one_plus_rho
    if n not in memo:
        g = params.gamma_pl
        one_plus_rho = gauss_2f1(float(n), -2.0 / g, 1.0 - 2.0 / g, -params.theta)
        if not one_plus_rho >= 1.0:
            raise ValueError(f"1 + rho_{n} must be at least 1, got {one_plus_rho}")
        memo[n] = one_plus_rho
    return memo[n] - 1.0


def coeffs(params: SystemParams, n: int) -> IntegralCoeffs:
    """A_n = pi lambda (1 + rho_n) > 0 and B_n = n theta sigma2 / p >= 0 (the z-form)."""
    a_coef = math.pi * params.lambda_bs * (1.0 + rho_n(params, n))
    b_coef = n * params.theta * params.noise / params.power
    return IntegralCoeffs(a_coef=a_coef, b_coef=b_coef)


def moment_exact(params: SystemParams, n: int) -> float:
    """mu_n by quadrature of the moment integral (see _moments).

    A noise-free scenario (c_1 = 0) gives 1 / (1 + rho_n) exactly.
    """
    return float(_moments(params, [n], METHOD_EXACT)[0])


def moment_approx(params: SystemParams, n: int) -> float:
    """Closed-form approximation 1 / (a_n + gamma c_n / (2 Gamma(2/gamma))) of mu_n.

    Exact when c_1 = 0 (theta = 0 or noise = 0) and in the gamma -> 2 limit.
    The value is the closed-form row of _moments.
    """
    return float(_moments(params, [n], METHOD_CLOSED_FORM)[0])


def _moments(params: SystemParams, ns, method: str) -> np.ndarray:
    """mu_n for each n in ns by `method`: the rows a_n = 1 + rho_n, c_n = n^(2/gamma) c_1.

    Every row starts from mu_n = 1 / a_n, which is exact for c_n = 0 (theta
    = 0 or sigma2 = 0) under both methods; only the rows with c_n > 0 are
    filled in.  Each n is read with operator.index, so each c_n is a Python
    float product (SystemParams stores Python floats), which gives inf where
    c_n overflows (numpy's multiply would warn).

    The closed form 1 / (a_n + gamma c_n / (2 Gamma(2/gamma))) is taken as
    G / (a_n G + c_n) with G = Gamma(1 + 2/gamma) <= 1: gamma c_n would
    overflow once c_n passes 1.8e308 / gamma, while a_n G + c_n stays finite
    for every finite c_n.

    The exact moments are one quadrature in u, one integrand row per n.
    Every row decays on the unit scale, with no scale hint, and takes the
    engine's one fixed 321-node rule, with no refinement: its error
    estimate is checked against quadrature.DEFAULT_TOL relative to the
    row's own mu_n.  A c_n that overflows is one more row: r_n = a_n / inf
    = 0 makes its integrand 0, so the rule returns 0.0, and the true mu_n
    <= Gamma(1 + 2/gamma) / c_n lies below the normal doubles.
    """
    if method not in (METHOD_EXACT, METHOD_CLOSED_FORM):
        raise ValueError(f"moment_sequence cannot compute method {method!r}")
    ns = [operator.index(n) for n in ns]
    delta = 2.0 / params.gamma_pl
    a, c = np.array(
        [(1.0 + rho_n(params, n), n**delta * params.noise_root) for n in ns]
    ).reshape(-1, 2).T
    mu = 1.0 / a
    rows = c > 0.0
    a, c = a[rows], c[rows]
    if method == METHOD_CLOSED_FORM:
        g1 = math.gamma(1.0 + delta)
        mu[rows] = g1 / (a * g1 + c)
    elif rows.any():

        def integrand(u: np.ndarray) -> np.ndarray:
            # r_n = a_n / c_n or r_n u^delta may overflow: -expm1(-inf) = 1 is the exact limit.
            with np.errstate(over="ignore"):
                ru = (a / c)[:, None] * u**delta
            return np.exp(-u) * -np.expm1(-ru)

        mu[rows] = integrate_semi_infinite_decaying(integrand).value / a
    return mu


def moment_sequence(
    params: SystemParams,
    n_max: int,
    method: str = METHOD_EXACT,
) -> MomentSequence:
    """mu_0..mu_n_max with the requested provenance (exact or closed form).

    Both methods take one _moments call for all n; the exact one makes one
    quadrature call.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    values = [1.0] + _moments(params, range(1, n_max + 1), method).tolist()
    return MomentSequence(values=tuple(values), method=method)


def big_m_constant(gamma_pl: float) -> float:
    """Peak of exp(-f) for f(z) = -(B^(2/g) / ((2/g) Gamma(2/g))) z + B z^(g/2).

    f is convex on z >= 0 with minimum (1 - g/2) / Gamma(2/g)^(g/(g-2)),
    independent of B, so M = exp(-min f) >= 1.
    """
    if not gamma_pl > 2.0:
        raise ValueError(f"big_m_constant requires gamma_pl > 2, got {gamma_pl}")
    g = float(gamma_pl)
    min_f = (1.0 - g / 2.0) / math.gamma(2.0 / g) ** (g / (g - 2.0))
    return math.exp(-min_f)


def approx_error_bound(a_coef: float, b_coef: float, gamma_pl: float) -> float:
    """Bound on |I - 1/K| for I = int_0^inf exp(-(A z + B z^(gamma/2))) dz.

    K = A + gamma B^(2/gamma) / (2 Gamma(2/gamma)) is the closed-form
    denominator; the bound is

        (gamma M / 2K) [ B^(2/gamma) / (Gamma(2/gamma) K)
                         + Gamma(gamma/2) (B^(2/gamma) / K)^(gamma/2) ].

    The second term is exp(lgamma(gamma/2) + (gamma/2) log(B^(2/gamma)/K)),
    0 when B = 0, so the bound is inf exactly where it exceeds the doubles.
    Note this bounds the unscaled integral: multiply by pi lambda to compare
    against moment values.

    The bound is the paper's. It is exact in its limits (B = 0, gamma -> 2)
    but vacuous above about gamma 8, where the Gamma(gamma/2) term grows
    without limit while |mu - mu_approx| stays below 1. At lambda 1e-3,
    0 dB and -100 dBm, pi lambda times the bound on mu_1 is 0.023 at
    gamma 5, 0.93 at gamma 8, 7.3 at gamma 10 and 9.7e4 at gamma 20.
    ROADMAP item 13 plans a certified error column.
    """
    if not a_coef > 0.0:
        raise ValueError(f"a_coef must be positive, got {a_coef}")
    if not 0.0 <= b_coef < math.inf:
        raise ValueError(f"b_coef must be nonnegative and finite, got {b_coef}")
    if not gamma_pl > 2.0:
        raise ValueError(f"gamma_pl must exceed 2, got {gamma_pl}")
    a_coef, b_coef, g = float(a_coef), float(b_coef), float(gamma_pl)
    gamma_2g = math.gamma(2.0 / g)
    b_pow = b_coef ** (2.0 / g)
    k = a_coef + g * b_pow / (2.0 * gamma_2g)
    m = big_m_constant(g)
    with np.errstate(divide="ignore", over="ignore"):
        second = np.exp(math.lgamma(g / 2.0) + g / 2.0 * np.log(b_pow / k))
    return float(g * m / (2.0 * k) * (b_pow / (gamma_2g * k) + second))
