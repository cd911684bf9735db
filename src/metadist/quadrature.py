"""Adaptive Gauss-Kronrod quadrature.

The engine is the "exact" oracle for every integral in the package: it is a
7/15-point nested pair with bisection of whichever interval currently carries
the largest error estimate.  Integrands are evaluated on ndarrays of
abscissae (one call per 15-node panel), so plain numpy expressions are fast
enough for oracle use.

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
    """Raised when the requested tolerance is unreachable within budget."""


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an a-posteriori error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel on [lo, hi]: (value, error estimate).

    Error model follows the classic QUADPACK rescaling of |K15 - G7| by the
    panel's total variation, which keeps the estimate honest next to
    singularities where the raw difference is overly optimistic.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _XK
    # Keep abscissae strictly interior: panels hugging an endpoint can round
    # nodes onto it, which integrable endpoint singularities cannot tolerate.
    lo_in = np.nextafter(lo, hi)
    hi_in = np.nextafter(hi, lo)
    if lo_in <= hi_in:
        np.clip(x, lo_in, hi_in, out=x)
    fx = np.asarray(f(x), dtype=float)
    sk = float(_WK @ fx)
    sg = float(_WG @ fx[_GAUSS_IDX])
    value = sk * half
    resabs = float(_WK @ np.abs(fx)) * half
    resasc = float(_WK @ np.abs(fx - 0.5 * sk)) * half
    err = abs(sk - sg) * half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, _EPS50 * resabs)
    return value, err


def _adapt(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: list[float],
    tol: float,
    max_intervals: int,
) -> QuadResult:
    """Refine the worst interval until the summed error estimate meets tol."""
    heap: list[tuple[float, float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    evals = 0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = _gk15(f, lo, hi)
        evals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val, err))

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
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        n_intervals += 1

    # Recompute the totals from the heap to shed accumulated cancellation.
    total = math.fsum(item[3] for item in heap)
    total_err = math.fsum(item[4] for item in heap)
    if total_err > tol:
        raise QuadratureError(
            f"tolerance {tol:g} not reached: error estimate {total_err:g} "
            f"after {n_intervals} intervals"
        )
    return QuadResult(value=total, abs_error_estimate=total_err, evaluations=evals)


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
        QuadratureError: tolerance unmet after the subdivision budget.
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
