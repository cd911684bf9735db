"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the code path it is used to check:
rho_quadrature integrates the defining y-integral with scipy.integrate.quad
instead of evaluating the hypergeometric identity, gauss_jacobi_integral
takes its Gauss-Jacobi nodes and weights from scipy, beta_moments is the
exact product formula, max_exp_neg_f maximizes by grid search plus
golden-section refinement rather than using the closed-form minimum, and
jacobi_poly_explicit sums the binomial form of the polynomial, with
scipy's binomial coefficients, instead of running the three-term recurrence.
rising_factorial is the plain Pochhammer product, which the package itself
never needs.  binom_exact is the binomial coefficient in exact rational
arithmetic, which the exact test of the moment-to-coefficient map builds
on, and ccp_sampled_reference sums each draw's interference over the
other base stations one by one instead of taking a matrix-vector product.
ccp_analytic_reference is the defining product over interferers in plain
distances, one Python term at a time, where the simulator's kernel works on
squared normalised distances a block of realizations at a time.
gauss_2f1_series_reference is the Pfaff-mapped 2F1 series as one scalar
Python loop, the form the package's chunked series must match bit for bit.
moment_integral_mpmath is the moment integral in 30-digit arithmetic by
mpmath's tanh-sinh rule, not the package's exp-sinh rule in doubles.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import binom, roots_jacobi


def rho_quadrature(n: int, gamma_pl: float, theta: float, tol: float = 1e-11) -> float:
    """rho_n = 2 int_0^1 (1 - (1 + theta y^gamma)^-n) y^-3 dy.

    1 - (1+t)^-n is evaluated as -expm1(-n log1p(t)): the naive form loses
    all significance for t near machine epsilon and the integrand multiplies
    it by y^-3.
    """

    def f(y: float) -> float:
        return 2.0 * -math.expm1(-n * math.log1p(theta * y**gamma_pl)) * y**-3.0

    return quad(f, 0.0, 1.0, epsabs=tol, epsrel=0.0)[0]


def gauss_jacobi_integral(f, alpha: float, beta: float, nodes: int = 16) -> float:
    """int_0^1 f(x) (1-x)^alpha x^beta dx by scipy's Gauss-Jacobi rule.

    Exact, up to rounding, for a polynomial f of degree below 2 * nodes; f
    takes an ndarray.  The rule lives on [-1, 1], so x = (1 + t) / 2.
    """
    t, w = roots_jacobi(nodes, alpha, beta)
    return 2.0 ** -(alpha + beta + 1.0) * math.fsum(w * f(0.5 * (1.0 + t)))


def gauss_2f1_series_reference(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) for z <= 0: the Pfaff-mapped series, one term at a time.

    Same domain checks, stopping rule (term <= 1e-16 of the total) and
    silent 10,000-term cap as specfun.gauss_2f1.
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
    for k in range(10_000):
        term *= (a + k) * (b2 + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= 1e-16 * abs(total):
            break
    return prefactor * total


def rising_factorial(a: float, n: int) -> float:
    """Pochhammer symbol (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError(f"rising_factorial requires n >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def binom_exact(r: float, k: int) -> Fraction:
    """C(r, k) = prod_{j<k} (r-j)/(j+1) in exact rationals, for the float r."""
    out = Fraction(1)
    for j in range(k):
        out *= (Fraction(r) - j) / (j + 1)
    return out


def ccp_analytic_reference(distances, params) -> float:
    """C = exp(-theta sigma2 r0^gamma / p) prod_i 1 / (1 + theta (r0/r_i)^gamma).

    r0 is the nearest distance and the product runs over every other BS.  The
    logs of the factors are added with `math.fsum`, so the only rounding left
    is in each factor and in the final exp.
    """
    r = [float(v) for v in distances]
    serving = min(range(len(r)), key=r.__getitem__)
    r0 = r[serving]
    g = params.gamma_pl
    logs = [-params.theta * params.noise * r0**g / params.power]
    for i, ri in enumerate(r):
        if i != serving:
            logs.append(-math.log1p(params.theta * (r0 / ri) ** g))
    return math.exp(math.fsum(logs))


def ccp_sampled_reference(distances, params, num_draws: int, rng) -> float:
    """Sampled CCP with each draw's interference summed over the other BSs.

    Draws the same (num_draws, N) exponential gains as `sim.ccp_sampled` from
    `rng`, and counts the draws with S > theta (I + sigma2), where S is the
    nearest BS's received power and I the exactly rounded (`math.fsum`) sum of
    the others'.  No division, so a single noise-free BS covers every draw.
    """
    r = np.asarray(distances, dtype=float)
    gains = rng.exponential(1.0, size=(num_draws, r.size))
    serving = int(np.argmin(r))
    path_gain = r**-params.gamma_pl
    covered = 0
    for row in gains:
        received = (row * params.power * path_gain).tolist()
        signal = received.pop(serving)
        covered += signal > params.theta * (math.fsum(received) + params.noise)
    return covered / num_draws


def jacobi_poly_explicit(alpha: float, beta: float, n: int, x: float) -> float:
    """Explicit binomial-sum form of the shifted Jacobi polynomial P_n^(alpha,beta).

    P_n(x) = sum_l C(n+alpha, l) C(n+beta, n-l) x^l (x-1)^(n-l).  Cancels
    badly for n >~ 15; the recurrence is the production path.
    """
    terms = [
        binom(n + alpha, ell) * binom(n + beta, n - ell) * x**ell * (x - 1.0) ** (n - ell)
        for ell in range(n + 1)
    ]
    return math.fsum(terms)


def beta_moments(p: float, q: float, n_max: int) -> tuple[float, ...]:
    """Raw moments of Beta(p, q): mu_n = prod_k (p+k)/(p+q+k) for k < n."""
    values = [1.0]
    for n in range(1, n_max + 1):
        values.append(values[-1] * (p + n - 1.0) / (p + q + n - 1.0))
    return tuple(values)


def max_exp_neg_f(gamma_pl: float, b_coef: float) -> float:
    """max_z exp(-f(z)) for f(z) = -(B^(2/g)/((2/g)Gamma(2/g))) z + B z^(g/2).

    Log-spaced grid bracketing followed by golden-section refinement; never
    consults the closed-form minimum it is used to verify.
    """
    g = gamma_pl
    slope = b_coef ** (2.0 / g) / ((2.0 / g) * math.gamma(2.0 / g))

    def f(z: float) -> float:
        return -slope * z + b_coef * z ** (g / 2.0)

    zs = np.logspace(-12, 6, 20001)
    idx = int(np.argmin([f(z) for z in zs]))
    lo = zs[max(idx - 1, 0)]
    hi = zs[min(idx + 1, len(zs) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(200):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
        if b - a < 1e-15 * max(1.0, a):
            break
    return math.exp(-f(0.5 * (a + b)))


def moment_integral_mpmath(a_coef: float, b_coef: float, gamma_pl: float) -> float:
    """int_0^inf exp(-(A z + B z^(gamma/2))) dz by mpmath at 30 digits.

    mpmath's tanh-sinh rule on [0, L/100, L, 100 L, inf], where
    L = 1/(A + B^(2/gamma)) is the length on which the integrand decays;
    raises if mpmath's own error estimate exceeds 1e-20 of the value.
    """
    with mpmath.workdps(30):
        a, b, half_g = mpmath.mpf(a_coef), mpmath.mpf(b_coef), mpmath.mpf(gamma_pl) / 2
        length = 1 / (a + b ** (1 / half_g))
        value, error = mpmath.quad(
            lambda z: mpmath.exp(-(a * z + b * z**half_g)),
            [0, length / 100, length, 100 * length, mpmath.inf], error=True,
        )
        if not error <= 1e-20 * value:
            raise ArithmeticError(f"mpmath error estimate {error} for value {value}")
        return float(value)
