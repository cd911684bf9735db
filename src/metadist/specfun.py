"""Special functions used throughout the toolkit.

Everything here is a pure function: the Gauss hypergeometric function 2F1
(restricted to non-positive real argument) over Python floats, the
regularized incomplete beta function over a scalar or ndarray x, and the
far-field integral F(s) = int_0^s x^-delta / (1 + x) dx over an ndarray s.
Gamma and log-gamma come straight from `math`.  The 2F1 restriction is
deliberate: the only regime the rest of the package needs is z = -theta
with theta >= 0.

The 2F1 series is sized from its own decay rate w = z/(z-1): a series
that w^64 brings below its tolerance, all a low threshold needs, is summed
in a Python loop, and a longer one in numpy chunks, the first covering 1.5
times the terms w^k needs to fall below the tolerance.  Each chunk's
sequential accumulates round exactly as the loop would, so the result is
the same float whatever the chunking.  The chunks' ratio factors that do
not depend on the order n are cached for the last gamma.  Its 10,000-term
cap still returns silently; ROADMAP's first correctness item computes every
1 + rho_n from F by a recurrence of positive terms instead.

The incomplete beta's continued fraction runs over all lanes of x at once,
two partial numerators per step (its even contraction) as a three-term
recurrence renormalised every step.  Each step computes its coefficients
as Python floats, once for each of the two pairs (a, b) and (b, a), not
per lane.  Each lane freezes in the step its own convergence test passes,
so an array call gives every element the float a scalar call would.

F is a series of positive terms in z = min(s, 1) / (1 + s) <= 1/2, with
F(inf) = pi / sin(pi delta) split off above s = 1.  Its coefficients are
cached per delta, its powers of z built by repeated squaring, and a call
keeps only as many powers as its largest z needs to reach the same floats
(see far_integral_parts).  The simulator's far field sums it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "far_integral_parts",
    "gauss_2f1",
    "reg_inc_beta",
]

_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 10_000
# A series is short when w^64 is at most the tolerance.  A short series runs
# up to 128 terms in Python, room for the orders' polynomial growth (n = 10
# at 0 dB stops on term 84); a numpy chunk is sized at least 64 terms.
_SERIES_SHORT_TERMS = 64
_SERIES_SHORT_W = _SERIES_RTOL ** (1.0 / _SERIES_SHORT_TERMS)
_SERIES_PYTHON_TERMS = 128
# k of every term; each chunk of gauss_2f1 is a slice of it.
_SERIES_K = np.arange(_SERIES_MAX_TERMS, dtype=float)
_CF_RTOL = 1e-16
_CF_MAX_STEPS = 500

# Terms of F's series (see far_integral_parts): each term is at most half
# the one before, so the terms left out sum to below 2^-53 of the series.
# far_integral_parts stops earlier, at the first squaring length J whose
# z^J is below _NEGLIGIBLE_POWER: every term from J on is then below half an
# ulp of the running sum, so the sum in j order is the same float.
_F_TERMS = 54
_NEGLIGIBLE_POWER = 2.0**-54


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0.

    The direct power series diverges for z < -1, so the argument is first
    mapped through the Pfaff transformation

        2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),

    which sends z in (-inf, 0] to w = z/(z-1) in [0, 1) where the series
    converges.  Summation stops once a term contributes less than 1e-16
    relatively, with a hard cap of 10,000 terms that returns the partial
    sum without raising (see ROADMAP item 1, which takes every 1 + rho_n
    from the recurrence on F, far_integral_parts, instead).

    The series is sized from w.  Where w^64 <= 1e-16 (theta up to about
    1.1 dB) up to 128 terms are summed in a Python loop; any longer series
    runs in numpy chunks, the first of 1.5 times log(1e-16) / log(w) terms
    (at least 64) and each later one twice the last, none past the cap.
    That estimate is where w^k falls below the tolerance; it is the cap when
    w is NaN or rounds to 1.0 (theta >= 2^53).  A chunk's term ratios are
    multiplied onto the carried term, and its terms added onto the carried
    total, by sequential accumulates, so each partial sum is the float the
    loop would produce and the result does not depend on the chunking.  The
    ratios' factors b2 + k and (c + k)(k + 1) do not depend on a; the last
    (b2, c) pair's are cached, so the orders of one scenario build them once.
    """
    if z > 0.0:
        raise ValueError(f"gauss_2f1 supports z <= 0 only, got z={z}")
    if c <= 0.0 and c == math.floor(c):
        raise ValueError(f"gauss_2f1 undefined for non-positive integer c={c}")
    a, b, c, z = float(a), float(b), float(c), float(z)
    if z == 0.0:
        return 1.0

    w = z / (z - 1.0)
    b2 = c - b
    prefactor = (1.0 - z) ** (-a)

    term = 1.0
    total = 1.0
    start = 0
    if w <= _SERIES_SHORT_W:
        for k in range(_SERIES_PYTHON_TERMS):
            term *= (a + k) * (b2 + k) / ((c + k) * (k + 1.0)) * w
            total += term
            if abs(term) <= _SERIES_RTOL * abs(total):
                return prefactor * total
        start = _SERIES_PYTHON_TERMS

    needed = math.log(_SERIES_RTOL) / math.log(w) if 0.0 < w < 1.0 else _SERIES_MAX_TERMS
    size = int(max(1.5 * needed, _SERIES_SHORT_TERMS))
    # Overflow to inf stays silent, as it is for the Python floats above; a
    # chunk also computes the terms past its stop, which are never read.
    with np.errstate(all="ignore"):
        upper, lower = _series_factors(b2, c)
        while start < _SERIES_MAX_TERMS:
            chunk = slice(start, min(start + size, _SERIES_MAX_TERMS))
            # The loop's ((a + k)(b2 + k)) / ((c + k)(k + 1)) w, op for op.
            terms = a + _SERIES_K[chunk]
            terms *= upper[chunk]
            terms /= lower[chunk]
            terms *= w
            terms[0] *= term
            np.multiply.accumulate(terms, out=terms)
            totals = terms.copy()
            totals[0] += total
            np.add.accumulate(totals, out=totals)
            stop = np.abs(terms) <= _SERIES_RTOL * np.abs(totals)
            first = int(stop.argmax())
            if stop[first]:
                return prefactor * float(totals[first])
            term, total = terms[-1], totals[-1]
            start, size = start + size, 2 * size
    return prefactor * float(total)


@functools.lru_cache(maxsize=1)
def _series_factors(b2: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The term ratios' factors that do not depend on a: b2 + k and (c + k)(k + 1).

    Tabulated over _SERIES_K.  The orders n of one scenario share one
    (b2, c), so the one cached pair serves all of their chunks.
    """
    return b2 + _SERIES_K, (c + _SERIES_K) * (_SERIES_K + 1.0)


def _cf_step(c: float, d: float, m: int, odd: float) -> tuple[float, float, float]:
    """Step m of the pair (c, d) in _beta_cont_frac: (p_m, q_m, d_2m+1 / x).

    odd is d_2m-1 / x, the third value of step m - 1.
    """
    even = m * (d - m) / ((c - 1.0 + 2.0 * m) * (c + 2.0 * m))
    new = -(c + m) * (c + d + m) / ((c + 2.0 * m) * (c + 1.0 + 2.0 * m))
    return even + new, even * odd, new


def _beta_cont_frac(a: float, b: float, swap: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta function, lane by lane.

    Lane i of the 1-D x evaluates the fraction of the pair (a, b) at x[i],
    or of (b, a) where swap[i]; a and b are finite and positive
    (reg_inc_beta checks them).  Valid and rapidly convergent for
    x < (a+1)/(a+b+2) of the lane's pair.  The fraction

        1/(1+ d_1/(1+ d_2/(1+ ...))),
        d_2m = m(b-m) x / ((a+2m-1)(a+2m)),
        d_2m+1 = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)),

    is taken two partial numerators at a time (its even contraction).  The
    denominators of successive convergents then obey the three-term
    recurrence B_m = (1 + d_2m + d_2m+1) B_m-1 - d_2m d_2m-1 B_m-2, with
    d_2m + d_2m+1 = p_m x and d_2m d_2m-1 = q_m x^2.  Each step computes
    both pairs' p_m and q_m as Python floats (_cf_step), q_m from the odd
    term of the step before, and spreads them over the lanes.  The
    recurrence is renormalised every step: w = x B_m-1 / B_m stays O(x),
    and the convergent h moves by

        h_m - h_m-1 = q_m w_m-1 w_m (h_m-1 - h_m-2),
        x / w_m = 1 + x (p_m - q_m w_m-1).

    A lane freezes in the first step where |h_m / h_m-1 - 1| < 1e-16.  A
    zero or non-finite denominator turns the lane's step into inf or NaN,
    which never passes that test.  If any lane is live after 499 steps,
    raises ArithmeticError whose one argument is the first such lane.
    """
    if not x.size:
        return np.empty_like(x)
    out = np.empty_like(x)
    live = np.ones(x.shape, dtype=bool)
    newly = np.empty_like(live)
    ratio = np.empty_like(x)
    # Each step takes its p_m and q_m into the rows den and t of spread, per
    # lane from column pair[i] of its 2 x 2 coefficients.
    pair = swap.astype(np.intp)
    spread = np.empty((2, x.size))
    den, t = spread
    # d_1 / x of each pair.
    odd0, odd1 = -a * (a + b) / (a * (a + 1.0)), -b * (b + a) / (b * (b + 1.0))
    with np.errstate(all="ignore"):
        h = 1.0 / (1.0 + np.array((odd0, odd1)).take(pair) * x)
        step = h.copy()
        w = x * h
        for m in range(1, _CF_MAX_STEPS):
            p0, q0, odd0 = _cf_step(a, b, m, odd0)
            p1, q1, odd1 = _cf_step(b, a, m, odd1)
            np.array(((p0, p1), (q0, q1))).take(pair, axis=1, out=spread)
            t *= w
            den -= t
            den *= x
            den += 1.0
            np.divide(x, den, out=w)
            t *= w
            step *= t
            np.divide(step, h, out=ratio)
            h += step
            np.abs(ratio, out=ratio)
            np.less(ratio, _CF_RTOL, out=newly)
            newly &= live
            if newly.any():
                np.copyto(out, h, where=newly)
                live ^= newly
                if not live.any():
                    return out
    raise ArithmeticError(int(live.argmax()))


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1].

    I_x(a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt / B(a, b).  Accepts a scalar
    or ndarray x and mirrors the input shape; each element gets the same
    result as a scalar call.  Uses the usual symmetric continued-fraction
    split, I_x(a,b) = 1 - I_{1-x}(b,a) for x at or above (a+1)/(a+b+2), so
    that I_x(a,b) + I_{1-x}(b,a) = 1 holds to machine precision.  Absolute
    error <= 1e-12.

    Both sides are one call of the continued fraction, (a, b) on the
    direct lanes and (b, a) on the swapped ones; each step takes both
    pairs' coefficients of the even contraction's three-term recurrence
    (see _beta_cont_frac), at most 499 steps.

    Raises:
        ValueError: a or b not in (0, inf), or any x outside [0, 1] (or NaN).
        ArithmeticError: the continued fraction fails to converge at any x
            within 499 steps, or meets a zero or non-finite denominator;
            the message names a, b and the first such x.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"reg_inc_beta requires finite a, b > 0, got a={a}, b={b}")
    a, b = float(a), float(b)
    arr = np.asarray(x, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={arr[bad][0]}")
    out = np.where(arr == 1.0, 1.0, 0.0)
    inner = (arr > 0.0) & (arr < 1.0)
    xi = arr[inner]
    ln_prefactor = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * np.log(xi)
        + b * np.log1p(-xi)
    )
    front = np.exp(ln_prefactor)
    swap = xi >= (a + 1.0) / (a + b + 2.0)
    try:
        frac = _beta_cont_frac(a, b, swap, np.where(swap, 1.0 - xi, xi))
    except ArithmeticError as lane:
        raise ArithmeticError(
            "incomplete beta continued fraction failed to converge "
            f"(a={a}, b={b}, x={xi[lane.args[0]]})"
        ) from None
    part = front * frac / np.where(swap, b, a)
    out[inner] = np.where(swap, 1.0 - part, part)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
def _series_coefficients(delta: float) -> tuple[np.ndarray, float]:
    """F's series coefficients and F(inf) = pi / sin(pi delta) (see far_integral_parts).

    Row 0 holds -j! / (1+delta)_j / delta, row 1 j! / (2-delta)_j / (1-delta),
    for j < _F_TERMS.  The blocks of one campaign share one delta = 2/gamma,
    and a new scenario brings a new one, so the one cached entry is the only
    one ever read again.
    """
    j = np.arange(1.0, _F_TERMS)
    out = np.empty((2, _F_TERMS))
    out[:, 0] = -1.0 / delta, 1.0 / (1.0 - delta)
    np.cumprod(j / (j - 1.0 + np.array([[1.0 + delta], [2.0 - delta]])), axis=1, out=out[:, 1:])
    out[:, 1:] *= out[:, :1]
    out.setflags(write=False)
    return out, math.pi / math.sin(math.pi * delta)


# The powers z^j of F's series by repeated squaring: rows [start, start +
# count) are rows [0, count) times z^start.
_SQUARINGS = ((2, 2), (4, 4), (8, 8), (16, 16), (32, _F_TERMS - 32))


def far_integral_parts(s: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """F(s) = int_0^s x^-delta / (1 + x) dx as the sum of two parts, elementwise.

    For s >= 0 and 0 < delta < 1.  Up to s = 1, F is the hypergeometric
    series in w = s / (1 + s),

        F(s) = s^(1-delta) / (1 + s) sum_j j! / (2-delta)_j w^j / (1 - delta),

    and above it F(inf) = pi / sin(pi delta) less the same form in 1/s,
    s^(1-delta) / (1 + s) sum_j j! / (1+delta)_j v^j / delta, v = 1 / (1 + s).
    Returns (offset, series): offset is 0 or F(inf), series the signed
    series term, so that a difference of two F above s = 1 cancels F(inf)
    exactly.  Either series has positive terms of ratio at most 1/2.  One
    z = min(s, 1) / (1 + s) is w up to s = 1 and v above; its powers meet
    both rows of coefficients in one product, whose s > 1 row replaces the
    other where s > 1, and the offset is F(inf) times (s > 1).  The
    prefactor is taken from s, not from w or v, whose rounding it would
    amplify near s = 0 or s = inf; F(0) is 0 exactly.

    The table holds the first J powers only, J the first length of the
    squaring ladder 2, 4, ..., 32, 54 at which every z^J is below 2^-54
    (z <= 1/2).  J is chosen once, from the largest z of the call: a
    rounded square is monotone, so squaring the largest z as the table
    squares every z gives the largest z^J.  The cut keeps the floats: the
    product sums the terms in j order, the first is c_0 exactly, the terms
    share c_0's sign and |c_j| <= |c_0|, and every power from row J on is at
    most z^J, a rounded product of floats <= 1 with z^J or a square of it.
    So each term left out is at most |c_0| 2^-54, below half an ulp of a
    running sum of magnitude >= |c_0|, and adding it would leave the sum
    unchanged.  A campaign block at gamma 4 takes J = 8 at -20 dB and 16 at
    0 dB; from about 20 dB the table is full.
    """
    delta = float(delta)
    coefficients, f_inf = _series_coefficients(delta)
    one_plus = 1.0 + s
    z = np.fmin(s, 1.0) / one_plus
    largest = z.max()
    powers = np.empty((_F_TERMS, *s.shape))
    powers[0] = 1.0
    powers[1] = z
    terms = 2
    for start, count in _SQUARINGS:
        largest *= largest
        if largest < _NEGLIGIBLE_POWER:
            break
        z = z * z
        terms = start + count
        np.multiply(powers[:count], z, out=powers[start:terms])
    high_series, series = np.einsum("kj,j...->k...", coefficients[:, :terms], powers[:terms])
    high = s > 1.0
    np.copyto(series, high_series, where=high)
    series *= s ** (1.0 - delta) / one_plus
    return high * f_inf, series
