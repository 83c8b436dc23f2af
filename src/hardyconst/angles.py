"""Critical adjacent-angle bounds by one-dimensional constrained maximization.

A convex corner of angle gamma can be attached next to a reflex opening
beta without lowering the Hardy constant as long as

    cot(gamma/2) >= max over theta in [0, pi/2] of
                    sin(theta) / (cos(theta) + alpha / g(beta, theta)),

so the critical angle gamma*(beta) is pi - 2 arctan of that maximum.
Replacing g by its quartic upper bound gives the slightly smaller
gamma**(beta), which evaluates no 2F1.

gamma_star and gamma_star_star take one opening or a 1-D array of them,
admitted by hardycore.admit_openings (gamma_star from pi, gamma_star_star
from beta_cr - SEAM_SLACK), and solve the openings as one batch, _CHUNK at
a time.  The maximum is found by a dense scan of 400 angles, array calls
of g on every opening, then refined by odeengine._newton on the
first-order condition in the cell around each opening's best scan point,
every iterate clamped onto that cell, so the argmax is known to a few ulp.
A chunk takes g from its own exponents: every call is hardycore._g_of on
the chunk's admitted openings, the alpha of its one sector_constants call
and angles that _maximize builds inside [0, pi/2], so nothing is admitted
or looked up again, and each float is the one g_func gives.  Likewise the
quartic bound is odeengine._quartic_value, the value g_upper_bound gives.
The condition's derivative comes from the same evaluation of g: the
Riccati identity g' = -(g^2 - g cos(theta) + c)/sin(theta) gives g', and
odeengine._quartic gives the quartic bound with its polynomial
derivatives.  gamma*'s scan evaluates g only where the quartic objective,
which bounds the exact one from above at supercritical openings, reaches
a value the exact objective attains: 23 to 29 of the 400 angles, with the
argmax and maximum of the whole scan.  Every step works entry by entry: a
batch gives each opening the floats it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .hardycore import _g_of, admit_openings, is_subcritical, sector_constants
from .odeengine import _newton, _quartic, _quartic_value
# unused, but perfbench's tracer expects them bound here
from .hardycore import beta_critical, g_func, solve_c_beta  # noqa: F401
from .odeengine import g_upper_bound  # noqa: F401

__all__ = ["CriticalAngles", "gamma_star", "gamma_star_star"]

PI = math.pi

_SCAN_POINTS = 400
# Openings solved in one batch, which bounds a scan to _CHUNK * _SCAN_POINTS
# floats per array however long the sweep: gamma_star of 4096 openings
# peaks at 86 MB in chunks and at 142 MB as one batch (x86-64, one BLAS
# thread, numpy 2.4, scipy 1.17).
_CHUNK = 256
# Relative margin below an attained value within which a bounded scan still
# evaluates an angle: the computed objective and its computed bound each
# carry a few ulp of rounding, and the quartic bound may round an ulp below g.
_BOUND_SLACK = 1e-12


def _maximize(objective: Callable, slope: Callable, *params: np.ndarray, bound: Optional[Callable] = None):
    """Maximize objective over [0, pi/2] for every opening of a batch.

    params are 1-D arrays with one entry per opening, the openings first,
    passed on to objective(theta, *params) and slope(theta, *params), both
    entry by entry.  The scan is one call on the 400 angles against every
    opening, or, given bound(theta, *params), an upper bound of the
    objective (inf where none is known), _bounded_scan's values with the
    same argmax and maximum.  slope returns a first-order condition with
    the sign of the objective's derivative, and its own theta-derivative;
    one call reads it at both edges of every opening's cell.  Where the
    condition falls from positive to negative across the cell around an
    opening's best scan point, odeengine._newton solves it from that scan
    point, the cell's midpoint, with every iterate clamped onto the cell,
    so g is never evaluated outside [0, pi/2].  RuntimeError names the
    first opening that has not settled within odeengine._NEWTON steps.
    An opening keeps its scan point where the condition does not fall so
    across its cell, or where the scan point is the larger of the two.
    Returns the argmax and the maximum, one entry per opening.
    """
    grid = np.linspace(0.0, 0.5 * PI, _SCAN_POINTS)
    if bound is None:
        vals = objective(grid, *(p[:, None] for p in params))
    else:
        vals = _bounded_scan(objective, bound(grid, *(p[:, None] for p in params)), grid, params)
    i = np.argmax(vals, axis=1)
    theta, best = grid[i], vals[np.arange(i.size), i]
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, _SCAN_POINTS - 1)]
    edges = slope(np.concatenate([lo, hi]), *(np.concatenate([p, p]) for p in params))[0]
    cell = (edges[: i.size] > 0.0) & (edges[i.size :] < 0.0)
    if cell.any():
        args = tuple(p[cell] for p in params)
        root, bad = _newton(slope, theta[cell], lo[cell], hi[cell], *args)
        if bad.any():
            raise RuntimeError(f"first-order condition not solved at beta={args[0][bad][0]}")
        value = objective(root, *args)
        keep = value >= best[cell]
        better = np.flatnonzero(cell)[keep]
        theta[better], best[better] = root[keep], value[keep]
    return theta, best


def _bounded_scan(objective: Callable, upper: np.ndarray, grid: np.ndarray, params: tuple) -> np.ndarray:
    """The scan's values wherever one can be its row's maximum, and -inf elsewhere.

    upper bounds the objective from above on the grid, one row per opening,
    and is inf throughout a row with no bound; such rows are evaluated
    whole, in one call.  In a row with a bound, the objective is evaluated
    at the bound's argmax, and then, in one call for all rows, at every
    angle where the bound reaches that value less _BOUND_SLACK of it.  At
    any other angle the objective lies below a value the row attains, so
    the row's argmax and maximum are those of the whole row, and so are
    their floats, each value being computed entry by entry.
    """
    vals = np.full(upper.shape, -np.inf)
    whole = np.isinf(upper).any(axis=1)
    if whole.any():
        vals[whole] = objective(grid, *(p[whole, None] for p in params))
    part = np.flatnonzero(~whole)
    if part.size:
        args = tuple(p[part] for p in params)
        upper = upper[part]
        floor = objective(grid[np.argmax(upper, axis=1)], *args)
        rows, cols = np.nonzero(upper >= floor[:, None] * (1.0 - _BOUND_SLACK))
        vals[part[rows], cols] = objective(grid[cols], *(a[rows] for a in args))
    return vals


def _objective(theta, alpha, g_of: Callable, *g_args):
    """sin(theta) / (cos(theta) + alpha / g_of(theta, *g_args)), entry by entry.

    theta, alpha and g_args are floats or arrays that broadcast together,
    and the result is an array of their shape.  0 where g <= 0, and at
    theta = 0, where sin(0) = 0 and g = alpha.  Every factor is computed on
    its arguments as given: g_of once, so it sees the openings unexpanded,
    and sin and cos once per angle, however many openings share it.
    """
    g = g_of(theta, *g_args)
    with np.errstate(divide="ignore", invalid="ignore"):  # at g <= 0, overwritten below
        vals = np.sin(theta) / (np.cos(theta) + np.divide(alpha, g))
    return np.where(g > 0.0, vals, 0.0)


def _exact_objective(theta, beta, alpha, c):
    return _objective(theta, alpha, _g_of, beta, alpha)


def _exact_slope(theta, beta, alpha, c):
    """First-order condition N of the exact objective and dN/dtheta.

    With g' = -(g^2 - g cos(theta) + c)/sin(theta), the numerator of the
    objective's derivative is N = (1 - alpha) + 2 alpha cos(theta)/g
    - alpha c/g^2, and dN/dtheta = 2 alpha (g' (c - g cos(theta))/g^3
    - sin(theta)/g).  Both are computed without a warning where they are
    not finite: at theta = 0, where g = alpha and c = alpha (1 - alpha),
    g' is 0/0 up to rounding, and at g = 0 (theta = pi/2 at beta = pi) so
    are both.  A NaN fails both of _maximize's sign tests, and its Newton
    step is reported.
    """
    g = _g_of(theta, beta, alpha)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        dg = -(g * g - g * cos_t + c) / sin_t
        n = (1.0 - alpha) + 2.0 * alpha * cos_t / g - alpha * c / (g * g)
        dn = 2.0 * alpha * (dg * (c - g * cos_t) / (g * g * g) - sin_t / g)
    return n, dn


def _quartic_objective(theta, beta, alpha):
    return _objective(theta, alpha, _quartic_value, alpha)


def _exact_bound(theta, beta, alpha, c):
    """An upper bound of the exact objective: the quartic one, inf at subcritical openings.

    The objective grows with g where g > 0, and the quartic bound dominates
    g at every opening from beta_cr - SEAM_SLACK, where it serves
    gamma_star_star too; at subcritical openings no bound is used.
    beta, alpha and c are columns, one row per opening, as _maximize's scan
    passes them.
    """
    upper = np.full(np.broadcast_shapes(np.shape(theta), np.shape(beta)), np.inf)
    sup = ~is_subcritical(beta).ravel()
    upper[sup] = _quartic_objective(theta, beta[sup], alpha[sup])
    return upper


def _quartic_slope(theta, beta, alpha):
    """First-order condition of the quartic objective and its theta-derivative.

    N = 1 + alpha cos(theta)/gbar + alpha sin(theta) gbar'/gbar^2, and
    dN/dtheta = alpha sin(theta) (gbar''/gbar^2 - 2 gbar'^2/gbar^3 - 1/gbar).
    """
    g, dg, ddg = _quartic(theta, alpha)
    sin_t = np.sin(theta)
    n = 1.0 + alpha * np.cos(theta) / g + alpha * sin_t * dg / (g * g)
    dn = alpha * sin_t * (ddg / (g * g) - 2.0 * dg * dg / (g * g * g) - 1.0 / g)
    return n, dn


def _chunked(solve: Callable, flat: np.ndarray, rows: int) -> np.ndarray:
    """solve over flat, _CHUNK openings at a time; one output row per quantity."""
    out = np.empty((rows, flat.size))
    for k in range(0, flat.size, _CHUNK):
        out[:, k : k + _CHUNK] = solve(flat[k : k + _CHUNK])
    return out


def _gamma_star_star_chunk(betas: np.ndarray) -> np.ndarray:
    _, alpha = sector_constants(betas)
    _, m = _maximize(_quartic_objective, _quartic_slope, betas, alpha)
    return PI - 2.0 * np.arctan(m)


def _gamma_star_chunk(betas: np.ndarray) -> np.ndarray:
    """gamma*, argmax and gamma** (NaN at subcritical openings) of one chunk."""
    c, alpha = sector_constants(betas)
    argmax, m = _maximize(_exact_objective, _exact_slope, betas, alpha, c, bound=_exact_bound)
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
    flat, scalar = admit_openings(beta)
    gs, argmax, gss = _chunked(_gamma_star_chunk, flat, 3)
    if scalar:
        gss0 = None if math.isnan(gss[0]) else float(gss[0])
        return CriticalAngles(float(flat[0]), float(gs[0]), gss0, float(argmax[0]))
    return CriticalAngles(flat, gs, gss, argmax)


def gamma_star_star(beta: Union[float, np.ndarray]):
    """Polynomial-bound variant gamma**(beta) for supercritical openings.

    beta is one opening (the result is a float) or a 1-D array of them
    (an array), in [beta_cr, 2pi].  Uses the quartic upper bound in place
    of g, so no 2F1 is evaluated; gamma** <= gamma* pointwise.
    """
    flat, scalar = admit_openings(beta, "[beta_cr")
    gss = _chunked(_gamma_star_star_chunk, flat, 1)[0]
    return float(gss[0]) if scalar else gss
