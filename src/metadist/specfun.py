"""Scalar special functions used throughout the toolkit.

Everything here is a pure function over Python floats: log-gamma,
generalized binomial coefficients, the Gauss hypergeometric function 2F1
restricted to non-positive real argument, and the regularized incomplete
beta function.  The 2F1 restriction is deliberate: the only
regime the rest of the package needs is z = -theta with theta >= 0.
"""
from __future__ import annotations

import math

__all__ = [
    "ln_gamma",
    "binom",
    "gauss_2f1",
    "reg_inc_beta",
]

_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 10_000


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Relative error is at machine level (<= 1e-13 over [1e-3, 1e3]).
    """
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def binom(r: float, k: int) -> float:
    """Generalized binomial coefficient C(r, k) for real r and integer k >= 0.

    Computed as Gamma(r+1) / (Gamma(k+1) Gamma(r-k+1)) in log space when all
    gamma arguments are positive, falling back to the defining product
    prod_{j<k} (r-j)/(j+1) otherwise (r may be any real).
    """
    if k < 0:
        raise ValueError(f"binom requires k >= 0, got {k}")
    if k == 0:
        return 1.0
    if r + 1.0 > 0.0 and r - k + 1.0 > 0.0:
        return math.exp(
            math.lgamma(r + 1.0) - math.lgamma(k + 1.0) - math.lgamma(r - k + 1.0)
        )
    out = 1.0
    for j in range(k):
        out *= (r - j) / (j + 1.0)
    return out


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0.

    The direct power series diverges for z < -1, so the argument is first
    mapped through the Pfaff transformation

        2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),

    which sends z in (-inf, 0] to w = z/(z-1) in [0, 1) where the series
    converges.  Summation stops once a term contributes less than 1e-16
    relatively, with a hard cap of 10,000 terms.
    """
    if z > 0.0:
        raise ValueError(f"gauss_2f1 supports z <= 0 only, got z={z}")
    if c <= 0.0 and c == math.floor(c):
        raise ValueError(f"gauss_2f1 undefined for non-positive integer c={c}")
    if z == 0.0:
        return 1.0

    w = z / (z - 1.0)
    b2 = c - b
    prefactor = (1.0 - z) ** (-a)

    term = 1.0
    total = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b2 + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            break
    return prefactor * total


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz).

    Valid and rapidly convergent for x < (a+1)/(a+b+2).
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1].

    I_x(a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt / B(a, b).  Uses the usual
    symmetric continued-fraction split so that I_x(a,b) + I_{1-x}(b,a) = 1
    holds to machine precision.  Absolute error <= 1e-12.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_prefactor = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_prefactor)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b
