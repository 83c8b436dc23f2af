"""Critical adjacent-angle bounds by one-dimensional constrained maximization.

A convex corner of angle gamma can be attached next to a reflex opening
beta without lowering the Hardy constant as long as

    cot(gamma/2) >= max over theta in [0, pi/2] of
                    sin(theta) / (cos(theta) + alpha / g(beta, theta)),

so the critical angle gamma*(beta) is pi - 2 arctan of that maximum.
Replacing g by its quartic upper bound gives the slightly smaller
gamma**(beta), available without any backward integration.

The maximum is found by a dense scan of 400 angles, evaluated as one array
call of g (array 2F1 series, or one spline evaluation for subcritical
openings), then refined by golden section on the scalar path.  The array
path gives the scalar path's floats bit for bit, so the scan picks the
same cell either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hardycore import SEAM_SLACK, _each, beta_critical, g_func, is_subcritical, solve_c_beta
from .odeengine import g_upper_bound

__all__ = ["CriticalAngles", "gamma_star", "gamma_star_star"]

PI = math.pi

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 400


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10):
    """Golden-section maximization on [a, b]; derivative-free on purpose."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _maximize(f: Callable):
    """Dense scan of [0, pi/2] refined by golden section around the best cell.

    f takes a float or an array of angles: the scan is one array call, the
    refinement scalar calls.
    """
    grid = np.linspace(0.0, 0.5 * PI, _SCAN_POINTS)
    vals = f(grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, _SCAN_POINTS - 1)]
    x, fx = _golden_max(f, lo, hi)
    if vals[i] > fx:
        return grid[i], vals[i]
    return x, fx


def _alpha_for(beta: float) -> float:
    """Exponent alpha of the opening: 1/2 up to beta_cr, so no seam slack is needed."""
    return solve_c_beta(max(beta, beta_critical())).alpha


def _objective(alpha: float, g_of_theta: Callable) -> Callable:
    """theta -> sin(theta) / (cos(theta) + alpha / g(theta)), for a float or an array.

    0 where theta < 1e-12 (the limit: the numerator tends to 0, the
    denominator to 2) and where g <= 0.  The array path calls g once on the
    remaining angles and takes sin and cos from math, as the scalar path.
    """

    def obj(theta):
        if np.ndim(theta):
            vals = np.zeros(theta.shape)
            idx = np.flatnonzero(theta >= 1e-12)
            g = g_of_theta(theta[idx])
            pos = g > 0.0
            t = theta[idx[pos]]
            vals[idx[pos]] = _each(math.sin, t) / (_each(math.cos, t) + alpha / g[pos])
            return vals
        if theta < 1e-12:
            return 0.0
        g = g_of_theta(theta)
        if g <= 0.0:
            return 0.0
        return math.sin(theta) / (math.cos(theta) + alpha / g)

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
    alpha = _alpha_for(beta)
    obj = _objective(alpha, lambda t: g_func(t, beta))
    argmax, m = _maximize(obj)
    gs = PI - 2.0 * math.atan(m)
    gss = None if is_subcritical(beta) else gamma_star_star(beta)
    return CriticalAngles(beta=beta, gamma_star=gs, gamma_star_star=gss, argmax_theta=argmax)


def gamma_star_star(beta: float) -> float:
    """Polynomial-bound variant gamma**(beta) for supercritical openings.

    Uses the quartic upper bound in place of g, so no integration or
    hypergeometric evaluation is involved; gamma** <= gamma* pointwise.
    """
    if not beta_critical() - SEAM_SLACK <= beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside [beta_cr, 2pi]")
    alpha = _alpha_for(min(beta, 2.0 * PI))
    obj = _objective(alpha, lambda t: g_upper_bound(np.minimum(t, 0.5 * PI), alpha))
    _, m = _maximize(obj)
    return PI - 2.0 * math.atan(m)
