"""Special functions used throughout the toolkit.

Everything here is a pure function: generalized binomial coefficients and
the Gauss hypergeometric function 2F1 (restricted to non-positive real
argument) over Python floats, and the regularized incomplete beta function
over a scalar or ndarray x.  Gamma and log-gamma come straight from `math`.  The 2F1 restriction
is deliberate: the only regime the rest of the package needs is z = -theta
with theta >= 0.

The 2F1 series sums a short scalar prefix in a Python loop, which is all a
low threshold needs, and continues in numpy chunks whose sequential
accumulates round exactly as that loop would: the result is the same float
as summing every term in Python.  Its 10,000-term cap still returns
silently; ROADMAP's first correctness item replaces the series with the
incomplete beta.

The incomplete beta's continued fraction runs over all lanes of x at once,
two partial numerators per step (its even contraction) as a three-term
recurrence renormalised every step.  Its coefficients are tabulated per
(a, b) pair, not per lane, a range of steps at a time as far as the
slowest lane needs.  Each lane freezes in the step its own convergence
test passes, so an array call gives every element the float a scalar call
would.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binom",
    "gauss_2f1",
    "reg_inc_beta",
]

_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 10_000
_SERIES_PREFIX_TERMS = 128
_SERIES_FIRST_CHUNK = 1024
_CF_RTOL = 1e-16
_CF_MAX_STEPS = 500
_CF_FIRST_STOP = 16


def binom(r: float, k: int) -> float:
    """Generalized binomial coefficient C(r, k) for real r and integer k >= 0.

    The defining product prod_{j<k} (r-j)/(j+1), valid for every real r,
    including the negative integers where a gamma ratio has poles.
    """
    if k < 0:
        raise ValueError(f"binom requires k >= 0, got {k}")
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
    relatively, with a hard cap of 10,000 terms that returns the partial
    sum without raising (see ROADMAP, the incomplete-beta item).

    The first 128 terms are summed in a Python loop; the rest in numpy
    chunks of 1024, 2048, ... terms.  A chunk's term ratios are multiplied
    onto the carried term, and its terms added onto the carried total, by
    sequential accumulates, so each partial sum is the float the loop would
    produce and the result does not depend on the chunking.
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
    for k in range(_SERIES_PREFIX_TERMS):
        term *= (a + k) * (b2 + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return prefactor * total

    start, size = _SERIES_PREFIX_TERMS, _SERIES_FIRST_CHUNK
    # Overflow to inf stays silent, as it is for the Python floats above; a
    # chunk also computes the terms past its stop, which are never read.
    with np.errstate(all="ignore"):
        while start < _SERIES_MAX_TERMS:
            k = np.arange(start, min(start + size, _SERIES_MAX_TERMS), dtype=float)
            terms = (a + k) * (b2 + k) / ((c + k) * (k + 1.0)) * w
            terms[0] *= term
            terms = np.multiply.accumulate(terms)
            totals = terms.copy()
            totals[0] += total
            totals = np.add.accumulate(totals)
            stop = np.abs(terms) <= _SERIES_RTOL * np.abs(totals)
            first = int(stop.argmax())
            if stop[first]:
                return prefactor * float(totals[first])
            term, total = terms[-1], totals[-1]
            start, size = start + size, 2 * size
    return prefactor * float(total)


def _cf_coefficients(
    a: np.ndarray, b: np.ndarray, first: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The even contraction's coefficients of steps m = first..stop-1.

    Returns (odd, p, q): odd[0] = d_2m+1 / x at m = first - 1, and row
    m - first of p and q holds step m's p_m and q_m, one column per pair.
    Every element is the same float whatever the range it is tabulated in.
    """
    m = np.arange(first - 1, stop, dtype=float)[:, None]
    # odd[i] = d_2m+1 / x at m = first - 1 + i, even[i] = d_2m / x at m = first + i.
    odd = -(a + m) * (a + b + m) / ((a + 2.0 * m) * (a + 1.0 + 2.0 * m))
    m = m[1:]
    even = m * (b - m) / ((a - 1.0 + 2.0 * m) * (a + 2.0 * m))
    return odd, even + odd[1:], even * odd[:-1]


def _beta_cont_frac(
    a: np.ndarray, b: np.ndarray, pair: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Continued fraction for the incomplete beta function, lane by lane.

    Lane i evaluates the fraction of the pair (a[k], b[k]), k = pair[i], at
    x[i]; a and b hold the distinct pairs only.  Valid and rapidly
    convergent for x < (a+1)/(a+b+2).  The fraction

        1/(1+ d_1/(1+ d_2/(1+ ...))),
        d_2m = m(b-m) x / ((a+2m-1)(a+2m)),
        d_2m+1 = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)),

    is taken two partial numerators at a time (its even contraction).  The
    denominators of successive convergents then obey the three-term
    recurrence B_m = (1 + d_2m + d_2m+1) B_m-1 - d_2m d_2m-1 B_m-2, with
    d_2m + d_2m+1 = p_m x and d_2m d_2m-1 = q_m x^2.  The coefficients p_m
    and q_m are tabulated per pair, steps 1-15 first and then in doubling
    ranges (16-31, 32-63, ...) only while some lane is still live, and
    spread over the lanes each step.  The recurrence is renormalised every
    step: w = x B_m-1 / B_m stays O(x), and the convergent h moves by

        h_m - h_m-1 = q_m w_m-1 w_m (h_m-1 - h_m-2),
        x / w_m = 1 + x (p_m - q_m w_m-1).

    A lane freezes in the first step where |h_m / h_m-1 - 1| < 1e-16.  A
    zero or non-finite denominator turns the lane's step into inf or NaN,
    which never passes that test, so it raises with the unconverged lanes.
    """
    if not x.size:
        return np.empty_like(x)
    out = np.empty_like(x)
    live = np.ones(x.shape, dtype=bool)
    newly = np.empty_like(live)
    den, t, ratio = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    first, stop = 1, _CF_FIRST_STOP
    with np.errstate(all="ignore"):
        odd, p_tab, q_tab = _cf_coefficients(a, b, first, stop)
        h = 1.0 / (1.0 + odd[0].take(pair) * x)
        step = h.copy()
        w = x * h
        while True:
            for p_m, q_m in zip(p_tab, q_tab):
                p_m.take(pair, out=den)
                q_m.take(pair, out=t)
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
            if stop == _CF_MAX_STEPS:
                break
            first, stop = stop, min(2 * stop, _CF_MAX_STEPS)
            _, p_tab, q_tab = _cf_coefficients(a, b, first, stop)
    i = int(np.flatnonzero(live)[0])
    raise ArithmeticError(
        "incomplete beta continued fraction failed to converge "
        f"(a={a[pair[i]]}, b={b[pair[i]]}, x={x[i]})"
    )


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1].

    I_x(a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt / B(a, b).  Accepts a scalar
    or ndarray x and mirrors the input shape; each element gets the same
    result as a scalar call.  Uses the usual symmetric continued-fraction
    split, I_x(a,b) = 1 - I_{1-x}(b,a) for x at or above (a+1)/(a+b+2), so
    that I_x(a,b) + I_{1-x}(b,a) = 1 holds to machine precision.  Absolute
    error <= 1e-12.

    The two sides are one call of the continued fraction with two pairs,
    (a, b) for the direct lanes and (b, a) for the swapped ones; it steps
    the even contraction's three-term recurrence (see _beta_cont_frac), at
    most 499 steps.

    Raises:
        ValueError: a or b not positive, or any x outside [0, 1] (or NaN).
        ArithmeticError: the continued fraction fails to converge at any x
            within 499 steps, or meets a zero or non-finite denominator.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
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
    frac = _beta_cont_frac(
        np.array([a, b]), np.array([b, a]), swap.astype(np.intp), np.where(swap, 1.0 - xi, xi)
    )
    part = front * frac / np.where(swap, b, a)
    out[inner] = np.where(swap, 1.0 - part, part)
    return float(out) if out.ndim == 0 else out
