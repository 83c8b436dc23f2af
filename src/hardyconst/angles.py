"""Critical adjacent-angle bounds by one-dimensional constrained maximization.

A convex corner of angle gamma can be attached next to a reflex opening
beta without lowering the Hardy constant as long as

    cot(gamma/2) >= max over theta in [0, pi/2] of
                    sin(theta) / (cos(theta) + alpha / g(beta, theta)),

so the critical angle gamma*(beta) is pi - 2 arctan of that maximum.
Replacing g by its quartic upper bound gives the slightly smaller
gamma**(beta), which evaluates no 2F1.

gamma_star and gamma_star_star take one opening or a 1-D array of them
and solve the openings as one batch, _CHUNK at a time.  The maximum is
found by a dense scan of 400 angles, one array call of g for every
opening, then refined by one vectorized Chandrupatla solve
(scipy.optimize.elementwise.find_root) of the first-order condition in
the cell around each opening's best scan point, so the argmax is known
to a few ulp.  Every step works entry by entry: a batch gives each
opening the floats it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.optimize.elementwise import find_root

from .hardycore import SEAM_SLACK, beta_critical, g_func, is_subcritical, solve_c_beta
from .odeengine import g_upper_bound, g_upper_bound_derivative

__all__ = ["CriticalAngles", "gamma_star", "gamma_star_star"]

PI = math.pi

_SCAN_POINTS = 400
# Openings solved in one batch, which bounds a scan to _CHUNK * _SCAN_POINTS
# floats per array however long the sweep.
_CHUNK = 256


def _maximize(objective: Callable, slope: Callable, *params: np.ndarray):
    """Maximize objective over [0, pi/2] for every opening of a batch.

    params are 1-D arrays with one entry per opening, the openings first,
    passed on to objective(theta, *params) and slope(theta, *params), both
    entry by entry.  The scan is one call on the 400 angles against every
    opening.  slope has the sign of the objective's derivative; one
    find_root solves slope = 0 in the cell around each best scan point
    where it falls from positive to negative.  An opening keeps its scan
    point where slope does not fall so across its cell, or where the scan
    point is the larger of the two.  Returns the argmax and the maximum,
    one entry per opening.
    """
    grid = np.linspace(0.0, 0.5 * PI, _SCAN_POINTS)
    vals = objective(grid, *(p[:, None] for p in params))
    i = np.argmax(vals, axis=1)
    theta, best = grid[i], vals[np.arange(i.size), i]
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, _SCAN_POINTS - 1)]
    cell = (slope(lo, *params) > 0.0) & (slope(hi, *params) < 0.0)
    if cell.any():
        args = tuple(p[cell] for p in params)
        root = find_root(slope, (lo[cell], hi[cell]), args=args, tolerances={"xatol": 1e-15})
        if not root.success.all():
            raise RuntimeError(
                f"first-order condition not solved at beta={args[0][~root.success][0]}"
            )
        value = objective(root.x, *args)
        keep = value >= best[cell]
        better = np.flatnonzero(cell)[keep]
        theta[better], best[better] = root.x[keep], value[keep]
    return theta, best


def _objective(theta, alpha, g_of: Callable, g_arg):
    """sin(theta) / (cos(theta) + alpha / g_of(theta, g_arg)), entry by entry.

    theta, alpha and g_arg broadcast together.  0 where theta < 1e-12 (the
    limit: the numerator tends to 0, the denominator to 2) and where
    g <= 0.  g_of is called once, on theta and g_arg as given (pi/2
    stands in for the angles below 1e-12), so it sees the openings
    unexpanded.
    """
    away = theta >= 1e-12
    g = g_of(np.where(away, theta, 0.5 * PI), g_arg)
    g, theta, alpha = np.broadcast_arrays(g, theta, alpha)
    pos = (g > 0.0) & away
    vals = np.zeros(g.shape)
    t = theta[pos]
    vals[pos] = np.sin(t) / (np.cos(t) + alpha[pos] / g[pos])
    return vals


def _quartic(theta, alpha):
    return g_upper_bound(np.minimum(theta, 0.5 * PI), alpha)


def _exact_objective(theta, beta, alpha, c):
    return _objective(theta, alpha, g_func, beta)


def _exact_slope(theta, beta, alpha, c):
    # g' = -(g^2 - g cos(theta) + c)/sin(theta) turns the numerator of the
    # objective's derivative into this
    g = g_func(theta, beta)
    return (1.0 - alpha) + 2.0 * alpha * np.cos(theta) / g - alpha * c / (g * g)


def _quartic_objective(theta, beta, alpha):
    return _objective(theta, alpha, _quartic, alpha)


def _quartic_slope(theta, beta, alpha):
    g = g_upper_bound(theta, alpha)
    dg = g_upper_bound_derivative(theta, alpha)
    return 1.0 + alpha * np.cos(theta) / g + alpha * np.sin(theta) * dg / (g * g)


def _openings(beta, lo: float, lo_name: str) -> tuple[np.ndarray, np.ndarray]:
    """beta as an array, and its entries flattened with 2pi + 1e-12 clamped to 2pi.

    ValueError for more than one dimension, or naming an entry outside
    [lo, 2pi + 1e-12].
    """
    betas = np.array(beta, dtype=float)
    if betas.ndim > 1:
        raise ValueError(f"openings must be a scalar or a 1-D array, not shape {betas.shape}")
    flat = betas.reshape(-1)
    outside = ~((lo <= flat) & (flat <= 2.0 * PI + 1e-12))
    if outside.any():
        raise ValueError(f"opening angle {flat[outside][0]} outside [{lo_name}, 2pi]")
    return betas, np.minimum(flat, 2.0 * PI)


def _chunked(solve: Callable, flat: np.ndarray, rows: int) -> np.ndarray:
    """solve over flat, _CHUNK openings at a time; one output row per quantity."""
    out = np.empty((rows, flat.size))
    for k in range(0, flat.size, _CHUNK):
        out[:, k : k + _CHUNK] = solve(flat[k : k + _CHUNK])
    return out


def _gamma_star_star_chunk(betas: np.ndarray) -> np.ndarray:
    alpha = np.array([solve_c_beta(float(b)).alpha for b in betas])
    _, m = _maximize(_quartic_objective, _quartic_slope, betas, alpha)
    return PI - 2.0 * np.arctan(m)


def _gamma_star_chunk(betas: np.ndarray) -> np.ndarray:
    """gamma*, argmax and gamma** (NaN at subcritical openings) of one chunk."""
    sols = [solve_c_beta(float(b)) for b in betas]
    alpha = np.array([s.alpha for s in sols])
    c = np.array([s.c for s in sols])
    argmax, m = _maximize(_exact_objective, _exact_slope, betas, alpha, c)
    gss = np.full(betas.size, np.nan)
    sup = ~is_subcritical(betas)
    if sup.any():
        gss[sup] = gamma_star_star(betas[sup])
    return np.stack([PI - 2.0 * np.arctan(m), argmax, gss])


@dataclass(frozen=True)
class CriticalAngles:
    """Critical adjacent angles for one opening beta, or for a batch.

    gamma_star_star is present only for supercritical openings, where the
    quartic bound applies; argmax_theta records where the defining maximum
    is attained.  For a 1-D array of openings every field is an array in
    the order given, and gamma_star_star is NaN at subcritical openings;
    for one opening the fields are floats and gamma_star_star is None
    there.
    """

    beta: Union[float, np.ndarray]
    gamma_star: Union[float, np.ndarray]
    gamma_star_star: Union[Optional[float], np.ndarray]
    argmax_theta: Union[float, np.ndarray]


def gamma_star(beta: Union[float, np.ndarray]) -> CriticalAngles:
    """Critical adjacent angle gamma*(beta) for beta in [pi, 2pi].

    beta is one opening or a 1-D array of them; a scalar is the batch of
    one.  Numerically gamma* decreases from ~0.867 pi at beta = pi to
    ~0.673 pi at beta = 2 pi and always stays inside (pi/2, pi).
    """
    betas, flat = _openings(beta, PI - 1e-12, "pi")
    flat = np.maximum(flat, PI)
    gs, argmax, gss = _chunked(_gamma_star_chunk, flat, 3)
    if betas.ndim == 0:
        gss0 = None if math.isnan(gss[0]) else float(gss[0])
        return CriticalAngles(float(flat[0]), float(gs[0]), gss0, float(argmax[0]))
    return CriticalAngles(flat, gs, gss, argmax)


def gamma_star_star(beta: Union[float, np.ndarray]):
    """Polynomial-bound variant gamma**(beta) for supercritical openings.

    beta is one opening (the result is a float) or a 1-D array of them
    (an array), in [beta_cr, 2pi].  Uses the quartic upper bound in place
    of g, so no 2F1 is evaluated; gamma** <= gamma* pointwise.
    """
    betas, flat = _openings(beta, beta_critical() - SEAM_SLACK, "beta_cr")
    gss = _chunked(_gamma_star_star_chunk, flat, 1)[0]
    return float(gss[0]) if betas.ndim == 0 else gss
