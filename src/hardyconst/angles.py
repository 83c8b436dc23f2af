"""Critical adjacent-angle bounds by one-dimensional constrained maximization.

A convex corner of angle gamma can be attached next to a reflex opening
beta without lowering the Hardy constant as long as

    cot(gamma/2) >= max over theta in [0, pi/2] of
                    sin(theta) / (cos(theta) + alpha / g(beta, theta)),

so the critical angle gamma*(beta) is pi - 2 arctan of that maximum.
Replacing g by its quartic upper bound gives the slightly smaller
gamma**(beta), which evaluates no 2F1.

The maximum is found by a dense scan of 400 angles, evaluated as one array
call of g, then refined by brentq on the first-order condition in the cell
around the best scan point, so the argmax is known to a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .hardycore import SEAM_SLACK, beta_critical, g_func, is_subcritical, solve_c_beta
from .odeengine import g_upper_bound, g_upper_bound_derivative

__all__ = ["CriticalAngles", "gamma_star", "gamma_star_star"]

PI = math.pi

_SCAN_POINTS = 400


def _maximize(f: Callable, slope: Callable):
    """Dense scan of [0, pi/2] refined by brentq on slope in the best cell.

    f takes a float or an array of angles: the scan is one array call.
    slope(theta) has the sign of f'; its root in the cell around the best
    scan point is the maximum.  The scan point is kept if slope does not
    change sign across the cell or if it is the larger.
    """
    grid = np.linspace(0.0, 0.5 * PI, _SCAN_POINTS)
    vals = f(grid)
    i = int(np.argmax(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, _SCAN_POINTS - 1)])
    if slope(lo) > 0.0 > slope(hi):
        theta = brentq(slope, lo, hi, xtol=1e-15)
        value = f(theta)
        if value >= vals[i]:
            return theta, value
    return float(grid[i]), float(vals[i])


def _objective(alpha: float, g_of_theta: Callable) -> Callable:
    """theta -> sin(theta) / (cos(theta) + alpha / g(theta)), for a float or an array.

    0 where theta < 1e-12 (the limit: the numerator tends to 0, the
    denominator to 2) and where g <= 0.  g is called once, on an array of
    the remaining angles.
    """

    def obj(theta):
        t = np.ravel(theta).astype(float)
        vals = np.zeros(t.shape)
        idx = np.flatnonzero(t >= 1e-12)
        g = g_of_theta(t[idx])
        pos = g > 0.0
        t_pos = t[idx[pos]]
        vals[idx[pos]] = np.sin(t_pos) / (np.cos(t_pos) + alpha / g[pos])
        return vals.reshape(np.shape(theta)) if np.ndim(theta) else float(vals[0])

    return obj


@dataclass(frozen=True)
class CriticalAngles:
    """Critical adjacent angles for one opening beta.

    gamma_star_star is present only for supercritical openings, where the
    quartic bound applies; argmax_theta records where the defining maximum
    is attained.
    """

    beta: float
    gamma_star: float
    gamma_star_star: Optional[float]
    argmax_theta: float


def gamma_star(beta: float) -> CriticalAngles:
    """Critical adjacent angle gamma*(beta) for beta in [pi, 2pi].

    Numerically gamma* decreases from ~0.867 pi at beta = pi to ~0.673 pi
    at beta = 2 pi and always stays inside (pi/2, pi).
    """
    if not PI - 1e-12 <= beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside [pi, 2pi]")
    beta = min(max(beta, PI), 2.0 * PI)
    sol = solve_c_beta(beta)
    alpha, c = sol.alpha, sol.c

    def slope(theta):
        # g' = -(g^2 - g cos(theta) + c)/sin(theta) turns the numerator of
        # the objective's derivative into this
        g = g_func(theta, beta)
        return (1.0 - alpha) + 2.0 * alpha * math.cos(theta) / g - alpha * c / (g * g)

    argmax, m = _maximize(_objective(alpha, lambda t: g_func(t, beta)), slope)
    gs = PI - 2.0 * math.atan(m)
    gss = None if is_subcritical(beta) else gamma_star_star(beta)
    return CriticalAngles(beta=beta, gamma_star=gs, gamma_star_star=gss, argmax_theta=argmax)


def gamma_star_star(beta: float) -> float:
    """Polynomial-bound variant gamma**(beta) for supercritical openings.

    Uses the quartic upper bound in place of g, so no 2F1 is evaluated;
    gamma** <= gamma* pointwise.
    """
    if not beta_critical() - SEAM_SLACK <= beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside [beta_cr, 2pi]")
    alpha = solve_c_beta(min(beta, 2.0 * PI)).alpha

    def slope(theta):
        g = g_upper_bound(theta, alpha)
        dg = g_upper_bound_derivative(theta, alpha)
        return 1.0 + alpha * math.cos(theta) / g + alpha * math.sin(theta) * dg / (g * g)

    obj = _objective(alpha, lambda t: g_upper_bound(np.minimum(t, 0.5 * PI), alpha))
    _, m = _maximize(obj, slope)
    return PI - 2.0 * math.atan(m)
