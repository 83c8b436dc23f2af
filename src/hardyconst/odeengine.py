"""Independent ODE layer: shooting oracle and comparison machinery.

Two problems are integrated with scipy's DOP853 stepper:

* the eigenvalue shooting solve that recovers the sector Hardy constant
  from the angular boundary value problem alone (the anti-bug gate against
  the closed-form route in hardycore).  shoot_c takes one opening or an
  array of them and shoots them as one batch: a single run scans 18 trial
  constants per opening to bracket each root, then a vectorized
  Chandrupatla solve (scipy.optimize.elementwise.find_root) meets the
  Neumann condition for every opening at once, one run per iterate.  The
  second piece [pi/2, beta/2] is rescaled to s in [0, 1], so trials of
  different openings end together.  ShootingResult.steps and .nfev count
  the accepted steps and right-hand-side evaluations of every run the
  whole batch made,
* the singular initial value problem behind the monotone comparison family
  h(alpha, .) on (0, pi/2].

Nothing here calls the closed form for c(beta): the shot sees only the
potential V and the series start at the vertex.

The critical-exponent case alpha = 1/2 has a one-parameter continuum of
solutions with an explicit hypergeometric representation; h_family_half
samples it through hardycore.critical_family, whose one integral has a
closed form in complete elliptic integrals (specfun.family_integral).
A quartic upper bound g_upper_bound dominates the Riccati variable g and
certifies the comparison inequalities without any ODE solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize.elementwise import find_root

from .hardycore import critical_family, potential_v, series_a2
from .specfun import family_integral, hyp2f1

__all__ = [
    "BracketError",
    "IntegrationError",
    "HProfile",
    "ShootingResult",
    "shoot_c",
    "solve_h",
    "h_family_half",
    "h_family_half_point",
    "g_upper_bound",
    "g_upper_bound_derivative",
]

PI = math.pi

_LAUNCH_BVP = 1e-6  # series start of the shooting integration
_LAUNCH_IVP = 1e-4  # series start of the singular IVP
# DOP853 tolerances of every integration
_RTOL = 1e-10
_ATOL = 1e-12
# Openings shot in one batch, which bounds a long sweep's state to about
# 2 * 18 * 256 floats per stage.  Over 1000 openings in (beta_cr, 2pi]
# (x86-64, numpy 2.4, scipy 1.17) chunks of 128, 256 and 1000 shot 430,
# 535 and 690 openings/s at peak RSS 89, 89 and 96 MB.
_CHUNK = 256


class BracketError(RuntimeError):
    """No sign change found while bracketing a root, or the bracketed solve failed."""


class IntegrationError(RuntimeError):
    """The integrator failed, or the right-hand side is not finite at the launch point."""


class _Run(NamedTuple):
    """End state of one DOP853 run and the work it took."""

    y: np.ndarray
    steps: int  # accepted steps
    nfev: int  # right-hand-side evaluations of the solver
    sol: Optional[OdeSolution]  # interpolant over the run, when asked for


def _solve(rhs, t0: float, t1: float, y0: np.ndarray, dense_output: bool = False) -> _Run:
    """One DOP853 run of y' = rhs(t, y) from t0 to t1; IntegrationError if it fails.

    Keeps only the end state unless dense_output asks for the interpolant
    (solve_ivp would store the state of every step).  A right-hand side
    that is not finite at the launch point raises at once: the solver would
    start from a NaN step size, reject every step and never return.
    """
    if not np.all(np.isfinite(rhs(t0, y0))):
        raise IntegrationError(f"right-hand side not finite at the launch point t={t0}")
    solver = DOP853(rhs, t0, y0, t1, rtol=_RTOL, atol=_ATOL)
    ts, interpolants = [t0], []
    steps = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"integration failed on [{t0}, {t1}]: {message}")
        steps += 1
        if dense_output:
            ts.append(solver.t)
            interpolants.append(solver.dense_output())
    sol = OdeSolution(ts, interpolants) if dense_output else None
    return _Run(solver.y, steps, solver.nfev, sol)


# ---------------------------------------------------------------------------
# Shooting solve for the sector constant.

@dataclass(frozen=True)
class ShootingResult:
    """Outcome of the eigenvalue shooting solve for one opening or a batch.

    For a 1-D array of openings, beta, c_estimate, terminal_derivative and
    no_sign_change are arrays in the order given; for a scalar opening
    they are floats and a bool.  no_sign_change marks the openings whose
    terminal derivative kept one sign over the scan of (0, 1/4]: the shot
    meets the Neumann condition at no c below 1/4, which is shooting's own
    verdict that c = 1/4 (the subcritical regime), so c_estimate is 1/4
    and terminal_derivative is the scan's value there.  steps and nfev are
    totals over the whole batch: the accepted DOP853 steps and the
    right-hand-side evaluations of every run the solve made (the scan and
    every root iterate, both pieces of each).
    """

    beta: Union[float, np.ndarray]
    c_estimate: Union[float, np.ndarray]
    terminal_derivative: Union[float, np.ndarray]
    no_sign_change: Union[bool, np.ndarray]
    steps: int
    nfev: int


def _shoot(betas: np.ndarray, cs: np.ndarray, dense_output: bool = False) -> list:
    """Integrate -psi'' = c V psi for a batch of trials, trial k at (betas[k], cs[k]).

    Launches at theta = 1e-6 from the three-term series
    psi = theta^alpha (1 + a2 theta^2).  The batch is one flat state
    [psi_1..psi_m, psi'_1..psi'_m] (psi' = dpsi/dtheta), so a single error
    norm covers every trial.  The run is split at theta = pi/2, where V
    changes from 1/sin^2(theta) to 1 and its second derivative jumps; one
    run across the junction loses about two digits of c.  Each piece runs
    in s in [0, 1] with theta = start + s * length; the second piece's
    length (beta - pi)/2 differs per trial, so trials of different
    openings end together at s = 1, theta = beta/2.  Returns the _Run of
    both pieces.
    """
    alpha = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * cs))
    a2 = series_a2(alpha)
    th0 = _LAUNCH_BVP
    y = np.concatenate(
        [
            th0**alpha * (1.0 + a2 * th0**2),
            th0 ** (alpha - 1.0) * (alpha + (alpha + 2.0) * a2 * th0**2),
        ]
    )
    m = len(cs)
    runs = []
    # V = 1/sin^2(theta) on the first piece whatever the opening, so one
    # scalar call there serves the whole batch
    pieces = ((th0, 0.5 * PI - th0, float(betas[0])), (0.5 * PI, 0.5 * (betas - PI), betas))
    for start, length, opening in pieces:
        scale = -length * cs

        def rhs(s, y, start=start, length=length, opening=opening, scale=scale):
            v = potential_v(start + s * length, opening)
            return np.concatenate([length * y[m:], scale * v * y[:m]])

        runs.append(_solve(rhs, 0.0, 1.0, y, dense_output=dense_output))
        y = runs[-1].y
    return runs


def _shoot_chunk(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """c, psi'(beta/2) at c, the no-sign-change mask, accepted steps and rhs
    evaluations for one chunk of openings."""
    steps = nfev = 0
    bracket_ends = {}  # terminal derivatives the scan already has, by trial constants

    def terminal(cs, bs):
        nonlocal steps, nfev
        if cs.tobytes() in bracket_ends:
            return bracket_ends[cs.tobytes()]
        runs = _shoot(bs, cs)
        steps += sum(r.steps for r in runs)
        nfev += sum(r.nfev for r in runs)
        return runs[-1].y[len(cs):]

    scan = np.linspace(1e-6, 0.25, 18)
    n = scan.size
    d_vals = terminal(np.tile(scan, betas.size), np.repeat(betas, n)).reshape(betas.size, n)
    change = d_vals[:, :-1] * d_vals[:, 1:] <= 0.0
    # no sign change in (0, 1/4]: the verdict c = 1/4, at the scan's last trial
    missing = ~change.any(axis=1)
    c_est, d_fin = np.full(betas.size, 0.25), d_vals[:, -1].copy()
    if missing.all():
        return c_est, d_fin, missing, steps, nfev
    shot = np.flatnonzero(~missing)
    i = n - 2 - np.argmax(change[shot, ::-1], axis=1)  # rightmost sign-change cell
    lo, hi = scan[i], scan[i + 1]
    # find_root first evaluates both bracket ends: it gets the scan's values,
    # the very ones whose signs chose each cell
    bracket_ends[lo.tobytes()] = d_vals[shot, i]
    bracket_ends[hi.tobytes()] = d_vals[shot, i + 1]
    root = find_root(terminal, (lo, hi), args=(betas[shot],), tolerances={"xatol": 1e-15})
    if not root.success.all():
        raise BracketError(
            f"root solve of psi'(beta/2) = 0 failed at beta={betas[shot][~root.success][0]}"
        )
    c_est[shot], d_fin[shot] = root.x, root.f_x
    return c_est, d_fin, missing, steps, nfev


def shoot_c(beta: Union[float, np.ndarray]) -> ShootingResult:
    """Largest c in (0, 1/4] for which the shot satisfies psi'(beta/2) = 0.

    beta is one opening or a 1-D array of them; a scalar is the batch of
    one.  Openings are shot together, _CHUNK at a time.  One scan
    integrates 18 trial constants of every opening in a single run and
    finds each opening's rightmost sign change of the terminal derivative;
    one vectorized Chandrupatla solve (scipy.optimize.elementwise.find_root)
    then solves psi'(beta/2) = 0 in every opening's cell, each iterate one
    run over the openings not yet converged.  terminal_derivative is the
    solver's own value at the root.  An opening whose terminal derivative
    never changes sign gets shooting's verdict c = 1/4, flagged in
    no_sign_change: the subcritical regime, where the series-started shot
    meets the Neumann condition at no smaller c.  At beta = pi the second
    piece has length 0.  Raises ValueError naming an opening outside
    [pi, 2pi], and BracketError naming an opening whose root solve failed.
    """
    betas = np.array(beta, dtype=float)
    if betas.ndim > 1:
        raise ValueError(f"openings must be a scalar or a 1-D array, not shape {betas.shape}")
    flat = betas.reshape(-1)
    outside = ~((PI <= flat) & (flat <= 2.0 * PI + 1e-12))
    if outside.any():
        raise ValueError(f"opening angle {flat[outside][0]} outside [pi, 2pi]")
    c_est, d_fin = np.empty_like(flat), np.empty_like(flat)
    no_change = np.empty(flat.shape, dtype=bool)
    steps = nfev = 0
    for k in range(0, flat.size, _CHUNK):
        part = slice(k, k + _CHUNK)
        c_est[part], d_fin[part], no_change[part], chunk_steps, chunk_nfev = _shoot_chunk(flat[part])
        steps += chunk_steps
        nfev += chunk_nfev
    if betas.ndim == 0:
        return ShootingResult(
            float(betas), float(c_est[0]), float(d_fin[0]), bool(no_change[0]), steps, nfev
        )
    return ShootingResult(flat, c_est, d_fin, no_change, steps, nfev)


def shot_profile(beta: float, c: float, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (psi, psi') of the shot at a fixed trial constant."""
    grid = np.asarray(grid, dtype=float)
    first, second = _shoot(np.array([beta]), np.array([c]), dense_output=True)
    s_first = (grid - _LAUNCH_BVP) / (0.5 * PI - _LAUNCH_BVP)
    s_second = (grid - 0.5 * PI) / (0.5 * (beta - PI))
    samples = np.where(grid <= 0.5 * PI, first.sol(s_first), second.sol(s_second))
    return samples[0], samples[1]


# ---------------------------------------------------------------------------
# Singular IVP h' = -(alpha h^2 - cos(theta) h + 1 - alpha)/sin(theta), h(0) = 1.

@dataclass(frozen=True)
class HProfile:
    """Solution samples of the comparison IVP on (0, pi/2].

    lam is set only for the critical exponent alpha = 1/2, where it selects
    one member of the solution continuum.
    """

    alpha: float
    grid: np.ndarray
    h: np.ndarray
    lam: Optional[float] = None


def _default_grid() -> np.ndarray:
    return np.linspace(_LAUNCH_IVP, 0.5 * PI, 200)


def solve_h(alpha: float, grid: Optional[np.ndarray] = None) -> HProfile:
    """Unique solution of the singular IVP for alpha in (1/2, 1).

    Launch at theta = 1e-4 from the local expansion
    h = 1 - theta^2 / (2 (2 alpha + 1)) + O(theta^4); the forward direction
    contracts perturbations like theta^(2 alpha - 1), so the launch error is
    damped.  The grid must lie in [1e-4, pi/2].
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (1/2, 1)")
    if grid is None:
        grid = _default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid[0] < _LAUNCH_IVP - 1e-15:
        raise ValueError(f"grid starts before the launch point {_LAUNCH_IVP}")
    h0 = 1.0 - _LAUNCH_IVP**2 / (2.0 * (2.0 * alpha + 1.0))

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return -(alpha * y * y - math.cos(t) * y + 1.0 - alpha) / math.sin(t)

    run = _solve(rhs, _LAUNCH_IVP, 0.5 * PI, np.array([h0]), dense_output=True)
    return HProfile(alpha=alpha, grid=grid, h=run.sol(grid)[0], lam=None)


# ---------------------------------------------------------------------------
# Critical exponent alpha = 1/2: explicit solution family.

def h_family_half(lam: float, grid: Optional[np.ndarray] = None) -> HProfile:
    """Explicit alpha = 1/2 solution family, parameterized by lam >= 0.

    Members are h0(theta) - 4 lam / (F^2 (1 + lam J(z))) with
    h0 = cos(theta) + sin^2(theta) F2/(4F), F = 2F1(1/2,1/2,1; z),
    F2 = 2F1(3/2,3/2,2; z), z = sin^2(theta/2), and
    J(z) = int_z^{1/2} dt / (t (1-t) F(t)^2) in closed form
    (hardycore.critical_family).  All members satisfy h(0+) = 1;
    they decrease pointwise as lam grows, lam = 0 being the maximal one.
    """
    if lam < 0.0:
        raise ValueError(f"family parameter lam={lam} must be >= 0")
    if grid is None:
        grid = _default_grid()
    grid = np.asarray(grid, dtype=float)
    return HProfile(alpha=0.5, grid=grid, h=critical_family(grid, lam), lam=lam)


def h_family_half_point(theta: float, lam: float) -> tuple[float, float]:
    """One family member and its theta-derivative, both analytic.

    The member takes J from specfun.family_integral, like h_family_half.
    The derivative uses F' = F2/4 and F2' = (9/8) 2F1(5/2,5/2,3; z) plus
    dJ/dtheta = -2/(sin(theta) F^2), so no finite differencing enters; the
    pair feeds the residual checks of the defining Riccati equation.
    """
    if lam < 0.0:
        raise ValueError(f"family parameter lam={lam} must be >= 0")
    z = math.sin(0.5 * theta) ** 2
    zdot = 0.5 * math.sin(theta)
    f1 = hyp2f1(0.5, 0.5, 1.0, z)
    f2 = hyp2f1(1.5, 1.5, 2.0, z)
    f3 = hyp2f1(2.5, 2.5, 3.0, z)
    df1 = 0.25 * f2
    df2 = 9.0 / 8.0 * f3
    q = f2 / f1
    dq = (df2 * f1 - f2 * df1) / (f1 * f1)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    h0 = cos_t + sin_t**2 * q / 4.0
    dh0 = -sin_t + 0.5 * sin_t * cos_t * q + 0.25 * sin_t**2 * dq * zdot
    if lam == 0.0:
        return h0, dh0
    j = family_integral(z)
    denom = f1 * f1 * (1.0 + lam * j)
    term = 4.0 * lam / denom
    # d/dtheta [F^2 (1 + lam J)] = 2 F F' zdot (1 + lam J) - 2 lam / sin(theta)
    ddenom = 2.0 * f1 * df1 * zdot * (1.0 + lam * j) - 2.0 * lam / sin_t
    dterm = -4.0 * lam * ddenom / denom**2
    return h0 - term, dh0 - dterm


# ---------------------------------------------------------------------------
# Quartic upper bound for the Riccati variable.

def g_upper_bound(theta, a):
    """Quartic dominating g(beta, .) on [0, pi/2), a the exponent of the opening.

    gbar = a - a theta^2 / (2(2a+1))
             + a (4a^2 + 2a + 3) theta^4 / (24 (2a+1) (4a^2 + 8a + 3)).
    An upper solution of the Riccati inequality for every a in [1/2, 1).
    theta and a are floats or arrays that broadcast together.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > 0.5 * PI):
        raise ValueError("theta outside [0, pi/2]")
    a_arr = np.asarray(a, dtype=float)
    outside = ~((0.5 <= a_arr) & (a_arr < 1.0))
    if outside.any():
        raise ValueError(f"exponent a={a_arr[outside].flat[0]} outside [1/2, 1)")
    t2 = theta * theta
    val = a - a * t2 / (2.0 * (2.0 * a + 1.0)) + a * (4.0 * a * a + 2.0 * a + 3.0) * t2 * t2 / (
        24.0 * (2.0 * a + 1.0) * (4.0 * a * a + 8.0 * a + 3.0)
    )
    return val if val.ndim else float(val)


def g_upper_bound_derivative(theta, a):
    """theta-derivative of g_upper_bound (a plain polynomial); broadcasts like it."""
    theta = np.asarray(theta, dtype=float)
    val = -a * theta / (2.0 * a + 1.0) + a * (4.0 * a * a + 2.0 * a + 3.0) * theta**3 / (
        6.0 * (2.0 * a + 1.0) * (4.0 * a * a + 8.0 * a + 3.0)
    )
    return val if val.ndim else float(val)
