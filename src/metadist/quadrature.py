"""Adaptive Gauss-Kronrod quadrature.

The engine is the "exact" oracle for every integral in the package: it is a
7/15-point nested pair with bisection of whichever interval currently carries
the largest error estimate.  Integrands are evaluated on 1-D ndarrays of
abscissae, many 15-node panels per call: all opening panels in one call,
then both halves of each bisection in one call.  Plain numpy expressions
are therefore fast enough for oracle use.

Endpoints are never sampled, which makes integrable endpoint singularities
(weight functions with alpha, beta in (-1, 0), the y -> 0 behaviour of the
interference integral) safe without special casing.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_finite",
    "integrate_semi_infinite_decaying",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_INTERVALS = 2000

# 15-point Kronrod abscissae on [-1, 1] and their weights; the 7-point Gauss
# subrule lives on nodes 1, 3, 5, ..., 13.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_EPS50 = 50.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance is unreachable within budget.

    A NaN or infinite integrand value makes the error estimate NaN, which
    never meets the tolerance, so it raises this too.
    """


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an a-posteriori error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int


def _gk15(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels on [lo[i], hi[i]]: (values, error estimates).

    All panels' nodes go to f in one flat 1-D call.  Weighted sums are
    reduced row by row, so a panel's result does not depend on the panels
    it was batched with.  Error model follows the classic QUADPACK
    rescaling of |K15 - G7| by the panel's total variation, which keeps the
    estimate honest next to singularities where the raw difference is
    overly optimistic.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK
    # Keep abscissae strictly interior: panels hugging an endpoint can round
    # nodes onto it, which integrable endpoint singularities cannot tolerate.
    # A panel only one ulp wide has no interior and is left unclipped.
    lo_in = np.nextafter(lo, hi)
    hi_in = np.nextafter(hi, lo)
    wide = lo_in <= hi_in
    lo_in = np.where(wide, lo_in, -np.inf)
    hi_in = np.where(wide, hi_in, np.inf)
    np.clip(x, lo_in[:, None], hi_in[:, None], out=x)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    sk = (fx * _WK).sum(axis=1)
    sg = (fx[:, _GAUSS_IDX] * _WG).sum(axis=1)
    value = sk * half
    resabs = (np.abs(fx) * _WK).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * sk[:, None]) * _WK).sum(axis=1) * half
    err = np.abs(sk - sg) * half
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err[scaled] / resasc[scaled]
    err[scaled] = resasc[scaled] * np.minimum(1.0, ratio**1.5)
    return value, np.maximum(err, _EPS50 * resabs)


def _adapt(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: list[float],
    tol: float,
    max_intervals: int,
) -> QuadResult:
    """Refine the worst interval until the summed error estimate meets tol."""
    los = np.array(breakpoints[:-1], dtype=float)
    his = np.array(breakpoints[1:], dtype=float)
    vals, errs = _gk15(f, los, his)
    evals = 15 * len(los)
    heap = list(zip((-errs).tolist(), los.tolist(), his.tolist(), vals.tolist(), errs.tolist()))
    heapq.heapify(heap)
    total_err = sum(errs.tolist())

    n_intervals = len(heap)
    while total_err > tol and n_intervals < max_intervals:
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval is at floating-point resolution; its error is final.
            heapq.heappush(heap, (0.0, lo, hi, val, err))
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        halves, half_errs = _gk15(f, np.array([lo, mid]), np.array([mid, hi]))
        (v1, v2), (e1, e2) = halves.tolist(), half_errs.tolist()
        evals += 30
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        n_intervals += 1

    # Re-sum from the heap to shed the running total's accumulated cancellation.
    total_err = math.fsum(item[4] for item in heap)
    if not total_err <= tol:
        raise QuadratureError(
            f"tolerance {tol:g} not reached: error estimate {total_err:g} "
            f"after {n_intervals} intervals"
        )
    value = math.fsum(item[3] for item in heap)
    return QuadResult(value=value, abs_error_estimate=total_err, evaluations=evals)


def integrate_finite(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> QuadResult:
    """Integrate f over [lo, hi] to absolute tolerance tol.

    f must map an ndarray of abscissae to an ndarray of values and may have
    integrable singularities at the endpoints (they are never sampled).

    Raises:
        QuadratureError: tolerance unmet after the subdivision budget, or a
            NaN or infinite integrand value.
    """
    if not lo < hi:
        raise ValueError(f"integrate_finite requires lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return _adapt(f, [lo, hi], tol, max_intervals)


def integrate_semi_infinite_decaying(
    f: Callable[[np.ndarray], np.ndarray],
    decay_rate: float,
    tol: float = DEFAULT_TOL,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> QuadResult:
    """Integrate f over [0, inf) given an eventual bound f(z) <= exp(-a z).

    The tail is truncated analytically: with a = decay_rate, z_max is chosen
    so that the discarded mass exp(-a z_max)/a is below tol/10.  The finite
    part starts from a dyadic ladder of panels between 0 and z_max so that
    integrands whose mass sits many orders of magnitude below z_max (sharp
    noise-driven decay) cannot be missed by a first coarse panel.
    """
    if not decay_rate > 0.0:
        raise ValueError(f"decay_rate must be positive, got {decay_rate}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    z_max = math.log(10.0 / (decay_rate * tol)) / decay_rate
    if not z_max > 0.0:
        # Tail already below tolerance at z = 0: the integral is within tol of 0.
        return QuadResult(value=0.0, abs_error_estimate=tol / 10.0, evaluations=0)

    breakpoints = [0.0] + [z_max * 2.0 ** (-k) for k in range(52, -1, -1)]
    result = _adapt(f, breakpoints, tol, max_intervals)
    return QuadResult(
        value=result.value,
        abs_error_estimate=result.abs_error_estimate + tol / 10.0,
        evaluations=result.evaluations,
    )
