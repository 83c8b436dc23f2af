"""Independent ODE layer: shooting oracle and comparison machinery.

Two problems are integrated with scipy's DOP853 (solve_ivp):

* the eigenvalue shooting solve that recovers the sector Hardy constant
  from the angular boundary value problem alone (the anti-bug gate against
  the closed-form route in hardycore); a batched scan brackets the root
  and brentq solves the Neumann condition,
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
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

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


class BracketError(RuntimeError):
    """No sign change found while bracketing a root."""


class IntegrationError(RuntimeError):
    """The integrator failed, or the right-hand side is not finite at the launch point."""


def _solve(rhs, t0: float, t1: float, y0: np.ndarray, **kwargs):
    """One DOP853 run of y' = rhs(t, y) from t0 to t1; IntegrationError if it fails.

    A right-hand side that is not finite at the launch point raises at once:
    solve_ivp would start from a NaN step size, reject every step and never
    return.
    """
    if not np.all(np.isfinite(rhs(t0, y0))):
        raise IntegrationError(f"right-hand side not finite at the launch point t={t0}")
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=_RTOL, atol=_ATOL, **kwargs)
    if sol.status < 0:
        raise IntegrationError(f"integration failed on [{t0}, {t1}]: {sol.message}")
    return sol


# ---------------------------------------------------------------------------
# Shooting solve for the sector constant.

@dataclass(frozen=True)
class ShootingResult:
    """Outcome of the eigenvalue shooting solve for one opening angle.

    steps counts the accepted steps of the terminal run at c_estimate; nfev
    the right-hand-side evaluations of every solve_ivp run the solve made
    (the scan, the brentq iterations and the terminal run).
    """

    beta: float
    c_estimate: float
    terminal_derivative: float
    steps: int
    nfev: int


def _shoot(beta: float, cs: np.ndarray, dense_output: bool = False):
    """Integrate -psi'' = c V psi for a batch of trial constants.

    Launches at theta = 1e-6 from the three-term series
    psi = theta^alpha (1 + a2 theta^2).  The batch is one flat state
    [psi_1..psi_m, psi'_1..psi'_m], so a single error norm covers every
    trial.  The run is split at theta = pi/2, where V changes from
    1/sin^2(theta) to 1 and its second derivative jumps; one run across the
    junction loses about two digits of c.  Returns the solve_ivp results of
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

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.concatenate([y[m:], -cs * potential_v(t, beta) * y[:m]])

    pieces = []
    for t0, t1 in ((th0, 0.5 * PI), (0.5 * PI, 0.5 * beta)):
        pieces.append(_solve(rhs, t0, t1, y, dense_output=dense_output))
        y = pieces[-1].y[:, -1]
    return pieces


def _shoot_terminal(beta: float, cs) -> tuple[np.ndarray, int, int]:
    """psi'(beta/2) per trial constant, the accepted steps and the rhs evaluations of the run."""
    cs = np.atleast_1d(np.asarray(cs, dtype=float))
    pieces = _shoot(beta, cs)
    return (
        pieces[-1].y[len(cs):, -1],
        sum(p.t.size - 1 for p in pieces),
        sum(p.nfev for p in pieces),
    )


def shoot_c(beta: float) -> ShootingResult:
    """Largest c in (0, 1/4] for which the shot satisfies psi'(beta/2) = 0.

    One batched scan of 18 trial constants (integrated together) finds the
    rightmost sign change of the terminal derivative; brentq then solves
    psi'(beta/2) = 0 inside that cell.  Raises BracketError when the
    terminal derivative never changes sign, which is the subcritical regime
    where the series-started shot cannot meet the Neumann condition.
    """
    if not PI < beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside (pi, 2pi]")
    nfev = 0

    def terminal(c):
        nonlocal nfev
        d_vals, steps, evals = _shoot_terminal(beta, c)
        nfev += evals
        return d_vals, steps

    cs = np.linspace(1e-6, 0.25, 18)
    d_vals, _ = terminal(cs)
    cells = np.flatnonzero(d_vals[:-1] * d_vals[1:] <= 0.0)
    if cells.size == 0:
        raise BracketError(f"terminal derivative has no sign change in (0, 1/4] at beta={beta}")
    i = cells[-1]
    c_root = brentq(lambda c: terminal(c)[0][0], cs[i], cs[i + 1], xtol=1e-15)
    d_fin, steps = terminal(c_root)
    return ShootingResult(
        beta=beta,
        c_estimate=float(c_root),
        terminal_derivative=float(d_fin[0]),
        steps=steps,
        nfev=nfev,
    )


def shot_profile(beta: float, c: float, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (psi, psi') of the shot at a fixed trial constant."""
    grid = np.asarray(grid, dtype=float)
    first, second = _shoot(beta, np.array([c]), dense_output=True)
    samples = np.where(grid <= 0.5 * PI, first.sol(grid), second.sol(grid))
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

    sol = _solve(rhs, _LAUNCH_IVP, 0.5 * PI, np.array([h0]), t_eval=grid)
    return HProfile(alpha=alpha, grid=grid, h=sol.y[0], lam=None)


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
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > 0.5 * PI):
        raise ValueError("theta outside [0, pi/2]")
    if not 0.5 <= a < 1.0:
        raise ValueError(f"exponent a={a} outside [1/2, 1)")
    t2 = theta * theta
    val = a - a * t2 / (2.0 * (2.0 * a + 1.0)) + a * (4.0 * a * a + 2.0 * a + 3.0) * t2 * t2 / (
        24.0 * (2.0 * a + 1.0) * (4.0 * a * a + 8.0 * a + 3.0)
    )
    return val if val.ndim else float(val)


def g_upper_bound_derivative(theta, a):
    """theta-derivative of g_upper_bound (a plain polynomial)."""
    theta = np.asarray(theta, dtype=float)
    val = -a * theta / (2.0 * a + 1.0) + a * (4.0 * a * a + 2.0 * a + 3.0) * theta**3 / (
        6.0 * (2.0 * a + 1.0) * (4.0 * a * a + 8.0 * a + 3.0)
    )
    return val if val.ndim else float(val)
