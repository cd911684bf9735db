"""Double-exponential quadrature of the exact moment integrals.

The package integrates one kind of function: the moment integrand in its
Weibull form e^-z (-expm1(-r z^delta)) over [0, inf) (see moments), with
a branch point at z = 0 and decay like e^-z.  The engine is the exp-sinh
trapezoid rule of Takahasi and Mori (1974): z = exp((pi/2) sinh u) maps
u in R onto (0, inf), and the transformed integrand decays double
exponentially at both ends of the u-axis, so a trapezoid sum on the fixed
window u in [-4.5, 3.5] converges geometrically in 1/h whatever the power
of z at 0.  The rule has no scale: every row decays on the unit scale.

An integrand is evaluated on one 1-D ndarray of abscissae per call and may
return one row of values, shape (m,), or several rows, shape (rows, m): the
moments mu_1..mu_N are N rows on the same abscissae.  A one-row integrand
gets a float value and error estimate; a multi-row one gets arrays of
shape (rows,).  The tolerance is relative to each row's own value, so a
moment of 1e-6 is resolved to the same significant digits as one near 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_semi_infinite_decaying",
]

DEFAULT_TOL = 1e-10

# Window and base step on the u-axis: 321 nodes, halved at most this often.
_U_LO, _U_HI, _H = -4.5, 3.5, 0.025
_MAX_HALVINGS = 4


def _nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale abscissae exp((pi/2) sinh u) and their weights dz/du."""
    x = np.exp(0.5 * np.pi * np.sinh(u))
    return x, x * (0.5 * np.pi) * np.cosh(u)


_X, _W = _nodes(np.linspace(_U_LO, _U_HI, round((_U_HI - _U_LO) / _H) + 1))


class QuadratureError(RuntimeError):
    """Raised when the relative tolerance is unreachable within the halvings.

    A NaN or infinite integrand value makes the value or error estimate
    non-finite, which raises this too.
    """


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an a-posteriori error estimate.

    value and abs_error_estimate are floats for a one-row integrand and
    arrays of shape (rows,) otherwise; evaluations counts abscissae, once
    for all rows.
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def integrate_semi_infinite_decaying(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """Integrate f over [0, inf) to relative tolerance tol in every row.

    f should decay on the unit scale (see moments).  The error estimate is
    |I_h - I_2h|, where I_2h sums every other node of the same rule.  While
    a row's estimate exceeds tol |I_h| the step is halved, evaluating f only
    at the new midpoints: I_{h/2} = I_h / 2 + (h/2) * (sum over the
    midpoints).  A row whose value and estimate are both 0 meets any
    tolerance.  A non-finite result, or an estimate still above tol |I_h|
    after the last halving, raises QuadratureError.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    fw = f(_X) * _W
    h, halvings, evaluations = _H, 0, _X.size
    value = h * fw.sum(axis=-1)
    error = np.abs(value - 2.0 * h * fw[..., ::2].sum(axis=-1))
    # A NaN estimate fails `error > tol * |value|` and ends refinement; the
    # check after the loop raises for it.
    while (error > tol * np.abs(value)).any() and halvings < _MAX_HALVINGS:
        # One midpoint in each of the evaluations - 1 intervals so far.
        x, w = _nodes(_U_LO + h * (np.arange(evaluations - 1) + 0.5))
        h, halvings, evaluations = 0.5 * h, halvings + 1, evaluations + x.size
        previous = value
        value = 0.5 * previous + h * (f(x) * w).sum(axis=-1)
        error = np.abs(value - previous)

    if not (np.isfinite(value).all() and (error <= tol * np.abs(value)).all()):
        raise QuadratureError(
            f"relative tolerance {tol:g} not reached: error estimate {np.max(error):g} "
            f"after {halvings} halvings ({evaluations} evaluations)"
        )
    if fw.ndim == 1:
        value, error = float(value), float(error)
    return QuadResult(value=value, abs_error_estimate=error, evaluations=evaluations)
