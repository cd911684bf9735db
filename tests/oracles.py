"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the code path it is used to check:
rho_quadrature integrates the defining y-integral with scipy.integrate.quad
instead of evaluating the hypergeometric identity, gauss_jacobi_integral
takes its Gauss-Jacobi nodes and weights from scipy, beta_moments is the
exact product formula, max_exp_neg_f maximizes by grid search plus
golden-section refinement rather than using the closed-form minimum, and
jacobi_poly_explicit sums the binomial form of the polynomial, with
scipy's binomial coefficients, instead of running the three-term recurrence.
binom_exact is the binomial coefficient in exact rational arithmetic, which
the exact test of the moment-to-coefficient map builds on, and
ccp_sampled_reference sums each draw's interference over the other base
stations one by one instead of taking a matrix-vector product.
log_inv_ccp_reference is -log of the defining product over interferers
in plain distances, one Python term at a time, where the simulator's
kernel works on unit-rate arrivals a block of realizations at a time.
gauss_2f1_series_reference is the Pfaff-mapped 2F1 series as one scalar
Python loop, the form the package's chunked series must match bit for bit.

The moments have three oracles here, and no test module evaluates
1 + rho_n or an exact mu_n itself.  one_plus_rho_scipy is 1 + rho_n from
scipy's hyp2f1, not the package's 2F1 series; where scipy's value is not
finite (1 - 2/gamma below about 5e-14) it is mpmath's hyp2f1 at 30 digits.
moment_t_mpmath is the one mpmath oracle of the moment integral: mu_n in
30-digit arithmetic by mpmath's tanh-sinh rule, not the package's exp-sinh
rule in doubles, in the t-form, the package's variable before its Weibull
substitution, split at the cliff t = 1/c_n.  moment_quad is the same
integral in doubles by scipy's quad, in the z-form.  Each scales its
variable to the length on which the integrand decays, and both take a_n
from one_plus_rho_scipy.
far_integral_parts_full evaluates the far field's series with every one of
its terms, where specfun.far_integral_parts stops at the last one that can
change the sum.  jacobi_poly is scipy's eval_jacobi on [0, 1], not the
package's Clenshaw series, which the tests check against it and against
jacobi_poly_explicit.
disk_arrivals draws every BS of a disk realization, continuing the arrival
process of sim.draw_ppp past its NEAREST_BS nearest BSs, and disk_ccp
multiplies over all of them with a segmented reduction, where the simulator
draws only the nearest BSs and takes the rest of the disk in closed form.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import binom, eval_jacobi, hyp2f1, roots_jacobi

from metadist import sim, specfun


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


def binom_exact(r: float, k: int) -> Fraction:
    """C(r, k) = prod_{j<k} (r-j)/(j+1) in exact rationals, for the float r."""
    out = Fraction(1)
    for j in range(k):
        out *= (Fraction(r) - j) / (j + 1)
    return out


def log_inv_ccp_reference(distances, params) -> float:
    """-log C = theta sigma2 r0^gamma / p + sum_i log1p(theta (r0/r_i)^gamma).

    r0 is the nearest distance and the sum runs over every other BS.  The
    terms are added with `math.fsum`, so the only rounding left is in each
    term.
    """
    r = [float(v) for v in distances]
    serving = min(range(len(r)), key=r.__getitem__)
    r0 = r[serving]
    g = params.gamma_pl
    terms = [params.theta * params.noise * r0**g / params.power]
    for i, ri in enumerate(r):
        if i != serving:
            terms.append(math.log1p(params.theta * (r0 / ri) ** g))
    return math.fsum(terms)


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


def far_integral_parts_full(s: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """specfun.far_integral_parts with all specfun._F_TERMS rows of its power table.

    The same coefficients, powers by the same squarings and the same
    product, but no row is left out, however small z^j has become.
    """
    coefficients, f_inf = specfun._series_coefficients(delta)
    low = s <= 1.0
    one_plus = 1.0 + s
    z = np.where(low, s, 1.0) / one_plus
    powers = np.empty((specfun._F_TERMS, *s.shape))
    powers[0] = 1.0
    powers[1] = z
    for start, count in ((2, 2), (4, 4), (8, 8), (16, 16), (32, specfun._F_TERMS - 32)):
        z = z * z
        np.multiply(powers[:count], z, out=powers[start:start + count])
    high, low_series = np.einsum("kj,j...->k...", coefficients, powers)
    series = np.where(low, low_series, high)
    series *= s ** (1.0 - delta) / one_plus
    return np.where(low, 0.0, f_inf), series


def disk_arrivals(config, size: int, rng) -> np.ndarray:
    """Every BS of `size` nonempty disk realizations, as unit-rate arrivals.

    Columns 0..NEAREST_BS-1 are `sim.draw_ppp(config, size, rng)`, the
    nearest BSs a campaign block draws; later columns continue each row's
    arrival process with further standard exponentials from rng until every
    row has passed the disk's edge m = lambda pi R^2.  Row k's BSs in the
    disk are its arrivals <= m.
    """
    m = config.mean_count
    arrivals, _ = sim.draw_ppp(config, size, rng)
    parts = [arrivals]
    step = max(sim.NEAREST_BS, math.ceil(m))
    while not np.all(parts[-1][:, -1] > m):
        gaps = rng.standard_exponential((size, step))
        parts.append(parts[-1][:, -1:] + np.cumsum(gaps, axis=1))
    return np.concatenate(parts, axis=1)


def disk_distances(config, rng) -> np.ndarray:
    """BS distances in m, nearest first, of one nonempty disk realization (disk_arrivals)."""
    arrivals = disk_arrivals(config, 1, rng)[0]
    return config.region_radius * np.sqrt(arrivals[arrivals <= config.mean_count]
                                          / config.mean_count)


def disk_ccp(arrivals: np.ndarray, config) -> np.ndarray:
    """Analytic CCP of each row of disk_arrivals, over every BS of its disk.

    The simulator's full-disk kernel before it drew only the nearest BSs:
    the squared distances over R^2 of all realizations, u = t / m for the
    arrivals t <= m, in one flat array, realization k owning the next
    counts[k] of them, reduced segment by segment.  The log-product over all
    BSs of a realization includes the serving one, whose term is exactly
    log1p(theta); it is subtracted, so that a tie at the minimum still
    counts the other BS as an interferer.
    """
    params, m = config.params, config.mean_count
    inside = arrivals <= m
    u, counts = arrivals[inside] / m, inside.sum(axis=1)
    half = 0.5 * params.gamma_pl
    starts = np.cumsum(counts) - counts
    u0 = np.minimum.reduceat(u, starts)
    terms = np.repeat(u0, counts)
    with np.errstate(invalid="ignore"):
        np.divide(terms, u, out=terms)
    np.fmin(terms, 1.0, out=terms)  # 0/0 for a BS on the user: the ratio is 1
    np.power(terms, half, out=terms)
    terms *= params.theta
    np.log1p(terms, out=terms)
    log_i = np.add.reduceat(terms, starts) - math.log1p(params.theta)
    noise = params.theta * params.noise * config.region_radius**params.gamma_pl / params.power
    return np.exp(-noise * u0**half - log_i)


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


def jacobi_poly(alpha: float, beta: float, n: int, x):
    """Shifted Jacobi polynomial P_n^(alpha,beta) on [0, 1] by scipy's eval_jacobi.

    P_n^(alpha,beta)(2x - 1) on the canonical interval, orthogonal under
    (1-x)^alpha x^beta on [0, 1]: a float for a scalar x, an ndarray of x's
    shape for an ndarray.
    """
    vals = eval_jacobi(n, alpha, beta, 2.0 * np.asarray(x, dtype=float) - 1.0)
    return float(vals) if vals.ndim == 0 else vals


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


def moment_t_mpmath(params, n: int) -> float:
    """mu_n = int_0^inf exp(-(a_n t + (c_n t)^(gamma/2))) dt by mpmath at 30 digits.

    The t-form of the moment integral, taken in u = t / L for L = 1/(a_n +
    c_n), the length on which its integrand decays.  The integral in u is
    of order 1, so mpmath's error estimate, whose floor is absolute (about
    1e-35), stays relative when mu_n is as small as 2e-16 (gamma one ulp
    above 2).  The rule is split at u = 1/100, 1 and 100 and, with noise
    (c_n > 0), at the cliff t = 1/c_n.  With noise it stops at t = (1 +
    100/gamma) / c_n: past it, exp(-(c_n t)^(gamma/2)) integrates to below
    e^-50 of mu_n, and at a steep path loss mpmath would spend minutes on
    its exp.  a_n = 1 + rho_n is one_plus_rho_scipy's and c_n = n^(2/gamma)
    c_1 is taken in mpmath from theta sigma2 / p and lambda.  Raises if
    mpmath's own error estimate exceeds 1e-20 of the value.
    """
    with mpmath.workdps(30):
        g = mpmath.mpf(params.gamma_pl)
        a = mpmath.mpf(one_plus_rho_scipy(params, n))
        c = (n * mpmath.mpf(params.theta) * params.noise / params.power) ** (2 / g) / (
            mpmath.pi * params.lambda_bs)
        length = 1 / (a + c)
        al, cl = a * length, c * length
        points, end = {mpmath.mpf(1) / 100, mpmath.mpf(1), mpmath.mpf(100)}, mpmath.inf
        if c > 0:
            points.add(1 / cl)
            end = (1 + 100 / g) / cl
        value, error = mpmath.quad(
            lambda u: mpmath.exp(-(al * u + (cl * u) ** (g / 2))),
            [0, *sorted(u for u in points if u < end), end], error=True,
        )
        if not error <= 1e-20 * value:
            raise ArithmeticError(f"mpmath error estimate {error} for value {value}")
        return float(length * value)


def moment_quad(params, n: int) -> float:
    """mu_n = pi lambda int_0^inf exp(-(A_n z + B_n z^(gamma/2))) dz by scipy's quad.

    A_n = pi lambda a_n, with a_n from one_plus_rho_scipy, and B_n = n theta
    sigma2 / p.  The rule runs in u = z / L, L = 1 / (A_n + B_n^(2/gamma)),
    the length on which the integrand decays, so the integral in u is of
    order 1.
    """
    g, scale = params.gamma_pl, math.pi * params.lambda_bs
    a_coef = scale * one_plus_rho_scipy(params, n)
    b_coef = n * params.theta * params.noise / params.power
    length = 1.0 / (a_coef + b_coef ** (2.0 / g))
    al, bl = a_coef * length, b_coef * length ** (g / 2.0)
    value, _ = quad(lambda u: math.exp(-(al * u + bl * u ** (g / 2.0))), 0.0, math.inf,
                    epsabs=1e-15, epsrel=1e-13, limit=400)
    return scale * length * value


def one_plus_rho_scipy(params, n: int) -> float:
    """1 + rho_n = 2F1(n, -2/gamma; 1 - 2/gamma; -theta) by scipy.special.hyp2f1.

    scipy's float wherever it is finite.  It returns inf once 1 - 2/gamma
    falls below about 5e-14; there the value is mpmath's hyp2f1 at 30 digits.
    """
    d = 2.0 / params.gamma_pl
    value = float(hyp2f1(n, -d, 1.0 - d, -params.theta))
    if math.isfinite(value):
        return value
    with mpmath.workdps(30):
        return float(mpmath.hyp2f1(n, -d, 1.0 - d, -params.theta))
