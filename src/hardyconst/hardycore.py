"""Closed-form layer for the Hardy constant of plane sectors.

For an infinite sector of opening beta in (pi, 2pi] the Hardy constant
c(beta) equals 1/4 up to a critical opening beta_cr ~ 1.5457 pi, and for
larger openings it is the root of

    sqrt(c) tan(sqrt(c) (beta - pi)/2) = 2 (Gamma((3+s)/4) / Gamma((1+s)/4))^2,
    s = sqrt(1 - 4c),

strictly decreasing down to ~0.2054 at beta = 2 pi.  This module solves
these equations and evaluates the associated angular eigenfunction psi on
half the sector, its logarithmic derivative f = psi'/psi, and the Riccati
variable g = f sin(theta) that drives the boundary-form certificates.

All angles are radians.  Operations are pure; solutions are cached by
opening angle, so repeated sweeps are cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .specfun import gamma, hyp2f1, hyp2f1_dz

__all__ = [
    "HardySolution",
    "EigenProfile",
    "SEAM_SLACK",
    "beta_critical",
    "is_subcritical",
    "solve_c_beta",
    "beta_for_constant",
    "equation_residual",
    "potential_v",
    "psi",
    "dpsi",
    "f_func",
    "g_func",
    "series_coefficients",
    "series_a2",
    "eigen_profile",
]

PI = math.pi

# f switches from the hypergeometric branch to the power-series start below
# this angle; keeps the relative error of psi'/psi under ~1e-9 at the seam.
_SERIES_SWITCH = 1e-3

# Backward Riccati table (subcritical openings): fixed log-spaced grid.
_G_TABLE_STEPS = 2000
_G_THETA_MIN = 1e-8

# Openings this close below beta_critical() count as critical.  Every branch
# choice at the regime seam compares with beta_cr - SEAM_SLACK: which branch
# f and g take, and whether psi and gamma** are available.  On the critical
# side the closed form is evaluated at max(beta, beta_cr).  The constant and
# the exponent need no slack: c = 1/4 and alpha = 1/2 hold exactly up to
# beta_cr, so solve_c_beta compares with beta_cr itself.
SEAM_SLACK = 1e-9


@dataclass(frozen=True)
class HardySolution:
    """Hardy constant of one sector: (beta, c, alpha) with provenance.

    alpha is the largest root of alpha (1 - alpha) = c; residual records the
    final mismatch of the defining equation (0.0 in the subcritical regime
    where c = 1/4 holds exactly).
    """

    beta: float
    c: float
    alpha: float
    method: str  # "closed-form" or "shooting"
    residual: float


@dataclass(frozen=True)
class EigenProfile:
    """Sampled eigenfunction data on (0, beta/2]."""

    beta: float
    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    series_a2: float


@lru_cache(maxsize=1)
def beta_critical() -> float:
    """Largest opening angle with Hardy constant exactly 1/4.

    Unique root of tan((beta - pi)/4) = 4 (Gamma(3/4)/Gamma(1/4))^2 in
    (pi, 2pi); approximately 1.5457 pi.
    """
    rhs = 4.0 * (gamma(0.75) / gamma(0.25)) ** 2
    return brentq(
        lambda b: math.tan(0.25 * (b - PI)) - rhs,
        PI + 1e-9,
        2.0 * PI,
        xtol=1e-12,
    )


def is_subcritical(beta: float) -> bool:
    """True for openings below the regime seam beta_cr - SEAM_SLACK.

    Those are served by the backward-Riccati table of g; every other
    opening by the closed form.
    """
    return beta < beta_critical() - SEAM_SLACK


def _gamma_ratio_rhs(s: float) -> float:
    """Right-hand side 2 (Gamma((3+s)/4) / Gamma((1+s)/4))^2 of the defining equation."""
    return 2.0 * (gamma(0.25 * (3.0 + s)) / gamma(0.25 * (1.0 + s))) ** 2


def _residual(beta: float, c: float, s: float) -> float:
    """The defining equation's mismatch, given both c and s = sqrt(1 - 4c)."""
    return math.sqrt(c) * math.tan(math.sqrt(c) * 0.5 * (beta - PI)) - _gamma_ratio_rhs(s)


def equation_residual(beta: float, c: float) -> float:
    """Signed mismatch of the supercritical defining equation at (beta, c)."""
    return _residual(beta, c, math.sqrt(max(1.0 - 4.0 * c, 0.0)))


@lru_cache(maxsize=4096)
def solve_c_beta(beta: float) -> HardySolution:
    """Hardy constant of the sector of opening beta, pi < beta <= 2pi.

    Openings up to beta_cr return c = 1/4 exactly, so this needs no seam
    slack: both sides of beta_cr - SEAM_SLACK get the same answer.  Beyond
    beta_cr the equation is solved for s = 2 alpha - 1 = sqrt(1 - 4c) in
    [0, 1) to full precision.  s grows linearly with beta - beta_cr, and c
    = (1 - s^2)/4 only quadratically, so just above beta_cr a root in c
    would round to 1/4 and lose alpha's digits.
    """
    if not PI < beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside (pi, 2pi]")
    if beta <= beta_critical():
        return HardySolution(beta=beta, c=0.25, alpha=0.5, method="closed-form", residual=0.0)
    s = brentq(
        lambda ss: _residual(beta, 0.25 * (1.0 - ss) * (1.0 + ss), ss),
        0.0,
        math.sqrt(1.0 - 4e-6),
        xtol=1e-16,
    )
    c = 0.25 * (1.0 - s) * (1.0 + s)
    return HardySolution(
        beta=beta,
        c=c,
        alpha=0.5 * (1.0 + s),
        method="closed-form",
        residual=abs(_residual(beta, c, s)),
    )


def beta_for_constant(c: float) -> float:
    """Opening angle whose Hardy constant equals c (inverse of solve_c_beta).

    Closed form: beta = pi + (2/sqrt(c)) arctan(R(c)/sqrt(c)) with R the
    Gamma-ratio right-hand side.  For c below the 2pi-sector constant the
    returned angle exceeds 2pi and no sector realizes it.
    """
    if not 0.0 < c <= 0.25:
        raise ValueError(f"constant {c} outside (0, 1/4]")
    if c == 0.25:
        return beta_critical()
    rhs = _gamma_ratio_rhs(math.sqrt(1.0 - 4.0 * c))
    return PI + 2.0 / math.sqrt(c) * math.atan(rhs / math.sqrt(c))


def potential_v(theta: float, beta: float) -> float:
    """Sector potential: 1/sin^2(theta), 1, 1/sin^2(beta - theta) by region.

    Both one-sided limits at the junctions theta = pi/2 and beta - pi/2
    equal 1, so the junction value is 1.  Diverges at the endpoints, which
    are rejected.
    """
    if not beta > PI:
        raise ValueError(f"opening angle {beta} must exceed pi")
    if not 0.0 < theta < beta:
        raise ValueError(f"theta={theta} outside (0, beta)")
    if theta < 0.5 * PI:
        return 1.0 / math.sin(theta) ** 2
    if theta > beta - 0.5 * PI:
        return 1.0 / math.sin(beta - theta) ** 2
    return 1.0


def series_a2(alpha: float) -> float:
    """Quadratic coefficient of psi(theta) = theta^alpha (1 + a2 theta^2 + ...)."""
    return -alpha * (1.0 - alpha) / (6.0 * (1.0 + 2.0 * alpha))


def series_coefficients(sol: HardySolution) -> tuple[float, float, float]:
    """Leading power-series coefficients (a0, a1, a2) of psi near theta = 0."""
    return (1.0, 0.0, series_a2(sol.alpha))


def _require_closed_form(sol: HardySolution) -> None:
    if is_subcritical(sol.beta):
        raise ValueError(
            "closed-form eigenfunction needs beta >= the critical opening; "
            "use g_func for subcritical openings"
        )


@lru_cache(maxsize=4096)
def _psi_prefactor(c: float, alpha: float, beta: float) -> float:
    # Forces continuity with the cosine branch at theta = pi/2.
    return (
        math.sqrt(2.0)
        * math.cos(math.sqrt(c) * 0.5 * (beta - PI))
        / hyp2f1(0.5, 0.5, alpha + 0.5, 0.5)
    )


def psi(theta: float, sol: HardySolution) -> float:
    """Angular eigenfunction on (0, beta/2], normalized to psi(beta/2) = 1.

    Hypergeometric branch on (0, pi/2), cosine branch on [pi/2, beta/2];
    the prefactor makes the two branches join continuously.  Extension to
    (beta/2, beta) is by the mirror symmetry psi(beta - theta) = psi(theta)
    and is not evaluated here.
    """
    _require_closed_form(sol)
    half = 0.5 * sol.beta
    if not 0.0 < theta <= half + 1e-12:
        raise ValueError(f"theta={theta} outside (0, beta/2]")
    if theta >= 0.5 * PI:
        return math.cos(math.sqrt(sol.c) * (half - min(theta, half)))
    s2 = math.sin(0.5 * theta)
    c2 = math.cos(0.5 * theta)
    f_val = hyp2f1(0.5, 0.5, sol.alpha + 0.5, s2 * s2)
    return _psi_prefactor(sol.c, sol.alpha, sol.beta) * s2**sol.alpha * c2 ** (1.0 - sol.alpha) * f_val


def dpsi(theta: float, sol: HardySolution) -> float:
    """Derivative of psi on (0, beta/2]."""
    _require_closed_form(sol)
    half = 0.5 * sol.beta
    if not 0.0 < theta <= half + 1e-12:
        raise ValueError(f"theta={theta} outside (0, beta/2]")
    if theta >= 0.5 * PI:
        return math.sqrt(sol.c) * math.sin(math.sqrt(sol.c) * (half - min(theta, half)))
    return psi(theta, sol) * float(_f_hyper(theta, sol.alpha))


def _f_hyper(theta, alpha: float):
    """psi'/psi on the hypergeometric branch, fully analytic; theta a float or an array.

    d/dtheta log psi = (alpha cot(theta/2) - (1-alpha) tan(theta/2))/2
                       + (sin theta / 2) F'(z)/F(z),  z = sin^2(theta/2).
    """
    s2 = np.sin(0.5 * theta)
    z = s2 * s2
    f_val = hyp2f1(0.5, 0.5, alpha + 0.5, z)
    df_val = hyp2f1_dz(0.5, 0.5, alpha + 0.5, z)
    t2 = np.tan(0.5 * theta)
    return 0.5 * (alpha / t2 - (1.0 - alpha) * t2) + 0.5 * np.sin(theta) * df_val / f_val


def f_func(theta: float, sol: HardySolution) -> float:
    """Logarithmic derivative psi'/psi on (0, beta).

    Middle region [pi/2, beta - pi/2]: sqrt(c) tan(sqrt(c)(beta/2 - theta)).
    Left region: hypergeometric branch for supercritical openings (power
    series start below theta = 1e-3), backward-Riccati values otherwise.
    Right region by the mirror antisymmetry f(beta - theta) = -f(theta).
    """
    beta = sol.beta
    if not 0.0 < theta < beta:
        raise ValueError(f"theta={theta} outside (0, beta)")
    if 0.5 * PI <= theta <= beta - 0.5 * PI:
        rc = math.sqrt(sol.c)
        return rc * math.tan(rc * (0.5 * beta - theta))
    if theta > beta - 0.5 * PI:
        return -f_func(beta - theta, sol)
    if is_subcritical(sol.beta):
        return g_func(theta, sol.beta) / math.sin(theta)
    if theta < _SERIES_SWITCH:
        return sol.alpha / theta + 2.0 * series_a2(sol.alpha) * theta
    return float(_f_hyper(theta, sol.alpha))


@lru_cache(maxsize=1)
def _g_table_steps() -> tuple[np.ndarray, tuple]:
    """The log-theta grid of the backward table and its RK4 stage data.

    One entry per step, from theta = pi/2 down: the step h in s = log(theta)
    and (t, cos t, sin t) at the step's start, midpoint and end.  None of it
    depends on beta, so every table shares it.
    """
    s_grid = np.linspace(math.log(_G_THETA_MIN), math.log(0.5 * PI), _G_TABLE_STEPS + 1)
    s_grid.flags.writeable = False
    steps = []
    for i in range(_G_TABLE_STEPS, 0, -1):
        h = s_grid[i - 1] - s_grid[i]
        stages = []
        for s in (s_grid[i], s_grid[i] + 0.5 * h, s_grid[i] + h):
            t = math.exp(s)
            stages.append((t, math.cos(t), math.sin(t)))
        steps.append((float(h), *stages))
    return s_grid, tuple(steps)


@lru_cache(maxsize=256)
def _g_subcritical_table(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Backward integration of the Riccati equation for subcritical openings.

    g' = -(g^2 - g cos(theta) + 1/4)/sin(theta), integrated from the
    terminal value g(pi/2) = tan((beta - pi)/4)/2 down to theta = 1e-8
    with fixed RK4 steps on s = log(theta), where the equation has bounded
    derivatives.  The forward problem from the singular endpoint is
    non-unique at this critical exponent; the backward problem selects the
    branch with g(0+) = 1/2.  beta enters only through the terminal value,
    so the stage points come precomputed from _g_table_steps.  Returned
    arrays are cached and shared, and must be treated as immutable.
    """
    s_grid, steps = _g_table_steps()
    gv = 0.5 * math.tan(0.25 * (beta - PI))
    g = [gv]
    for h, (t1, c1, s1), (t2, c2, s2), (t4, c4, s4) in steps:
        # dg/ds = -(g^2 - g cos t + 1/4) / sin t * t at the four RK4 stages
        k1 = -(gv * gv - gv * c1 + 0.25) / s1 * t1
        y = gv + 0.5 * h * k1
        k2 = -(y * y - y * c2 + 0.25) / s2 * t2
        y = gv + 0.5 * h * k2
        k3 = -(y * y - y * c2 + 0.25) / s2 * t2
        y = gv + h * k3
        k4 = -(y * y - y * c4 + 0.25) / s4 * t4
        gv = gv + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        g.append(gv)
    table = np.array(g[::-1])
    table.flags.writeable = False
    return s_grid, table


@lru_cache(maxsize=256)
def _g_subcritical_spline(beta: float) -> CubicSpline:
    s_grid, g = _g_subcritical_table(beta)
    return CubicSpline(s_grid, g)


def g_func(theta, beta: float):
    """Riccati variable g = (psi'/psi) sin(theta) on (0, pi/2], pi <= beta <= 2pi.

    Supercritical openings use the closed-form branch; subcritical ones the
    cached backward integration.  g(0+) equals alpha, reached quadratically
    for alpha > 1/2 and only logarithmically at the critical exponent 1/2.

    theta is a float or an array, and the result is of the same kind.  Each
    angle takes f_func's branch: the middle-region value at theta = pi/2,
    the power series below 1e-3 and the hypergeometric branch otherwise;
    for subcritical openings, the cached spline on log(theta).  An array
    costs one pass per branch, and each entry equals the call on that
    angle alone.
    """
    if not PI - 1e-12 <= beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside [pi, 2pi]")
    t = np.asarray(theta, dtype=float)
    inside = (t > 0.0) & (t <= 0.5 * PI + 1e-12)
    if not inside.all():
        raise ValueError(f"theta={t[~inside].flat[0]} outside (0, pi/2]")
    t = np.minimum(t, 0.5 * PI)
    if is_subcritical(beta):
        s_grid, table = _g_subcritical_table(beta)
        s = np.log(t)
        g = np.full(t.shape, table[0])
        on_table = s > s_grid[0]
        g[on_table] = _g_subcritical_spline(beta)(s[on_table])
    else:
        sol = solve_c_beta(min(max(beta, beta_critical()), 2.0 * PI))
        f = np.empty(t.shape)
        middle = t == 0.5 * PI
        series = t < _SERIES_SWITCH
        hyper = ~(middle | series)
        f[middle] = f_func(0.5 * PI, sol)
        f[series] = sol.alpha / t[series] + 2.0 * series_a2(sol.alpha) * t[series]
        f[hyper] = _f_hyper(t[hyper], sol.alpha)
        g = f * np.sin(t)
    return g if np.ndim(theta) else float(g)


def eigen_profile(sol: HardySolution, n: int = 400) -> EigenProfile:
    """Sample psi and psi' on a log-spaced grid of (0, beta/2]."""
    grid = np.geomspace(1e-6, 0.5 * sol.beta, n)
    psi_vals = np.array([psi(t, sol) for t in grid])
    dpsi_vals = np.array([dpsi(t, sol) for t in grid])
    return EigenProfile(
        beta=sol.beta,
        grid=grid,
        psi=psi_vals,
        dpsi=dpsi_vals,
        series_a2=series_a2(sol.alpha),
    )
