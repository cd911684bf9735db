"""Double-exponential quadrature of the exact moment integrals.

The package integrates one kind of function: the moment integrand in its
Weibull form e^-z (-expm1(-r z^delta)) over [0, inf) (see moments), with
a branch point at z = 0 and decay like e^-z.  The engine is one fixed
exp-sinh trapezoid rule of Takahasi and Mori (1974): z = exp((pi/2) sinh u)
maps u in R onto (0, inf), and the transformed integrand decays double
exponentially at both ends of the u-axis, so a trapezoid sum on the window
u in [-4.5, 3.5] with step 1/40 converges geometrically in 1/h whatever
the power of z at 0.  The rule has no scale and no refinement: its 321
abscissae are fixed, every row decays on the unit scale, and each result
carries an error estimate that is checked, not acted on.

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

# Step on the u-axis and its 321 nodes in [-4.5, 3.5]; the unit-scale
# abscissae exp((pi/2) sinh u) and their weights dz/du.
_H = 0.025
_U = np.linspace(-4.5, 3.5, 321)
_X = np.exp(0.5 * np.pi * np.sinh(_U))
_W = _X * (0.5 * np.pi) * np.cosh(_U)


class QuadratureError(RuntimeError):
    """Raised when a row's error estimate exceeds DEFAULT_TOL of its value.

    A NaN or infinite integrand value makes the value or error estimate
    non-finite, which raises this too.
    """


@dataclass(frozen=True)
class QuadResult:
    """Integral value with the rule's a-posteriori error estimate.

    value and abs_error_estimate are floats for a one-row integrand and
    arrays of shape (rows,) otherwise; evaluations counts abscissae, once
    for all rows, and is always the rule's 321.
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def integrate_semi_infinite_decaying(f: Callable[[np.ndarray], np.ndarray]) -> QuadResult:
    """Integrate f over [0, inf) on the fixed rule, checked to DEFAULT_TOL in every row.

    f should decay on the unit scale (see moments) and is called once, on
    the 321 abscissae.  The error estimate is |I_h - I_2h|, where I_2h sums
    every other node of the same rule.  A row whose value and estimate are
    both 0 passes.  A non-finite value, or an estimate above
    DEFAULT_TOL |I_h| in any row, raises QuadratureError.
    """
    fw = f(_X) * _W
    value = _H * fw.sum(axis=-1)
    error = np.abs(value - 2.0 * _H * fw[..., ::2].sum(axis=-1))
    if not (np.isfinite(value).all() and (error <= DEFAULT_TOL * np.abs(value)).all()):
        raise QuadratureError(f"error estimate {np.max(error):g} above the relative "
                              f"tolerance {DEFAULT_TOL:g} on the {_X.size}-node rule")
    if fw.ndim == 1:
        value, error = float(value), float(error)
    return QuadResult(value=value, abs_error_estimate=error, evaluations=_X.size)
