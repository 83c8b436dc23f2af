"""Independent ODE layer: shooting oracle and comparison machinery.

Both problems are solved from one vertex series, the Frobenius solution
psi = theta^alpha sum_m a_2m theta^2m of -psi'' = c psi / sin^2(theta) at
the vertex, which converges for theta < pi.  _vertex sums it, for any
trials at any angles in (0, pi/2], by one vectorized recurrence:

* the eigenvalue shooting solve that recovers the sector Hardy constant
  from the angular boundary value problem alone (the anti-bug gate against
  the closed-form route in hardycore).  shoot_c takes one opening or an
  array of them and shoots them as one batch.  Only the singular piece
  (0, pi/2] depends on the opening's constant alone; the middle
  [pi/2, beta/2], where V = 1, is crossed exactly.  The scan sums the
  series of 18 trial constants at pi/2, the Chebyshev-Lobatto nodes in the
  vertex exponent alpha over [1/2, alpha(1e-6)]; it brackets the root of
  every opening and fits (psi, psi') at pi/2 as Chebyshev series in alpha,
  in which the shot is analytic.  _newton, the package's one vectorized
  Newton iteration (angles maximizes with it too), meets the Neumann
  condition on it for every opening at once, in alpha, with the
  interpolant's slope by a complex step and every iterate clamped onto
  its opening's sign-change cell.  One confirming DOP853 run
  at the roots, over [1/2, pi/2] in t = log(theta) from the series at 1/2,
  then gives the shot's own terminal derivative and refuses a root the
  integration does not confirm.  ShootingResult.steps and .nfev count the
  accepted log-theta steps and right-hand-side evaluations of that run,
* the comparison family h(alpha, .) on (0, pi/2], the Riccati variable
  of the series.

Nothing here calls the closed form for c(beta): the shot sees only the
potential V and the vertex series of -psi'' = c psi / sin^2(theta);
hardycore.admit_openings checks its openings against pi and 2pi alone.

The critical-exponent case alpha = 1/2 has a one-parameter continuum of
solutions with an explicit hypergeometric representation; h_family_half
samples it through hardycore.critical_family, whose one integral has a
closed form in complete elliptic integrals (specfun.family_integral).
A quartic upper bound g_upper_bound dominates the Riccati variable g and
certifies the comparison inequalities without any ODE solve; _quartic
gives it and its two theta-derivatives in one evaluation, _quartic_value
the bound alone, both from the coefficients of _quartic_coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebval
from numpy.polynomial.polynomial import polyval
from scipy.integrate import DOP853

from .hardycore import (
    admit_angles,
    admit_opening,
    admit_openings,
    critical_family,
    potential_v,
)
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

# The vertex series converges for theta < pi, each term about 1/4 of the one
# before at pi/2.  _vertex refuses a sum whose last kept term of phi_t, the
# larger of its two last terms, passes _SERIES_TAIL of phi.  27 terms pass at
# pi/2 for every c in (0, 1/4] (26 leave 2.3e-16) and match a 40-digit sum of
# (psi, psi') there to 3.0e-16; 24 would pass a check on phi's term alone and
# leave psi' 3.4e-15 off.
_SERIES_TERMS = 27
_SERIES_TAIL = 1e-16
_SERIES_END = 0.5  # launch of the confirming run
# DOP853 tolerances of the confirming run
_RTOL = 1e-11
_ATOL = 1e-12
# Largest last step of _newton, one tolerance for the vertex exponent alpha
# in shooting and for the angle theta in angles' maximization.  In alpha it
# also bounds the error in c = alpha (1 - alpha): over 20,001 openings in
# [pi, 2pi] the worst gap to the closed form is 1.9e-16 at this tolerance,
# as the table is the series to rounding.  In theta it meets the
# first-order condition to rounding.
_ROOT_XATOL = 1e-15
# Most steps _newton gives an entry to reach _ROOT_XATOL: measured at most 5
# in alpha from each cell's midpoint and 4 in theta from the best scan point.
_NEWTON = 8
# Trial constants of the scan, the nodes of its Chebyshev table.  The
# table's trailing coefficients are 2.6e-16 of the largest at 18 nodes,
# 4.6e-14 at 15 and 4.6e-13 at 14.
_TABLE = 18
# Largest trailing coefficient the table may keep, relative to its largest.
_TAIL = 1e-13
# Largest correction to c that the confirming run may imply at the table's
# root, |psi'_shot / d_c psi'_table|, which is DOP853's own error: measured
# worst 7.2e-14 over 23,401 openings in batches of 1 to 20001.
_CONFIRM = 5e-13
# Complex step in alpha for the table's slope, exact to rounding.
_STEP = 1e-20


class BracketError(RuntimeError):
    """The root solve in a bracketing cell failed, or the confirming shot does
    not confirm the root."""


class IntegrationError(RuntimeError):
    """The integrator failed, the right-hand side is not finite at the launch
    point, or the vertex series or the scan's Chebyshev table does not
    resolve the shot."""


class _Run(NamedTuple):
    """End state of one DOP853 run and the work it took."""

    y: np.ndarray
    steps: int  # accepted steps
    nfev: int  # right-hand-side evaluations of the solver


def _solve(rhs, t0: float, t1: float, y0: np.ndarray) -> _Run:
    """One DOP853 run of y' = rhs(t, y) from t0 to t1; IntegrationError if it fails.

    Keeps only the end state (solve_ivp would store the state of every
    step).  A right-hand side that is not finite at the launch point raises
    at once: the solver would start from a NaN step size, reject every step
    and never return.
    """
    if not np.all(np.isfinite(rhs(t0, y0))):
        raise IntegrationError(f"right-hand side not finite at the launch point t={t0}")
    solver = DOP853(rhs, t0, y0, t1, rtol=_RTOL, atol=_ATOL)
    steps = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"integration failed on [{t0}, {t1}]: {message}")
        steps += 1
    return _Run(solver.y, steps, solver.nfev)


def _newton(fdf, x, lo, hi, *args):
    """Newton's iteration on fdf(x, *args) = 0, entry by entry, each in its cell [lo, hi].

    x holds the starts; x, lo, hi and every arg are 1-D arrays with one
    entry per root.  fdf returns the function and its derivative at the
    unsettled entries, with their args.  Every iterate is clamped onto its
    cell, so fdf never sees a point outside it, and an entry stops once its
    step is at most _ROOT_XATOL, so it takes the steps it would take alone.
    Returns the iterates and a mask of the entries that have not settled
    within _NEWTON steps; a NaN step never settles.
    """
    x = x.copy()
    active = np.ones(x.size, dtype=bool)
    for _ in range(_NEWTON):
        f, df = fdf(x[active], *(a[active] for a in args))
        step = f / df
        x[active] = np.clip(x[active] - step, lo[active], hi[active])
        active[active] = ~(np.abs(step) <= _ROOT_XATOL)
        if not active.any():
            break
    return x, active


# ---------------------------------------------------------------------------
# The vertex series.

def _exponent(cs):
    """Vertex exponent alpha of the shot at trial constant c: alpha (1 - alpha) = c."""
    return 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * cs))


def _to_angle(theta, alpha, phi, phi_t):
    """(psi, psi') from the log-angle state: psi = theta^alpha phi and
    theta psi' = theta^alpha (alpha phi + phi_t).  The arguments broadcast."""
    scale = theta**alpha
    return scale * phi, scale * (alpha * phi + phi_t) / theta


def _theta_csc2(terms: int) -> tuple:
    """Taylor coefficients b_j of theta^2 / sin^2(theta) in theta^2j, j < terms: the
    inverse of the series sin^2(theta) / theta^2 = sum_j (-1)^j 2^(2j+1) theta^2j / (2j+2)!."""
    d = [(-1) ** j * 2.0 ** (2 * j + 1) / math.factorial(2 * j + 2) for j in range(terms)]
    b = [1.0]
    for m in range(1, terms):
        b.append(-sum(d[j] * b[m - j] for j in range(1, m + 1)))
    return tuple(b)


_THETA_CSC2 = _theta_csc2(_SERIES_TERMS)


def _vertex_series(cs: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Coefficients a_2m of phi = psi / theta^alpha = sum_m a_2m theta^2m, m < _SERIES_TERMS,
    one column per trial constant in cs.

    theta^2 psi'' + c b(theta) psi = 0 with b = theta^2 / sin^2(theta) gives
    a_0 = 1 and a_2m = -c sum_{j=1..m} b_j a_2m-2j / (2m (2m + 2 alpha - 1)).
    """
    b = np.array(_THETA_CSC2)
    a = np.empty((_SERIES_TERMS, cs.size))
    a[0] = 1.0
    for m in range(1, _SERIES_TERMS):
        a[m] = -cs * (b[1 : m + 1] @ a[m - 1 :: -1]) / (2 * m * (2 * m + 2 * alpha - 1))
    return a


def _vertex(cs: np.ndarray, alpha: np.ndarray, theta) -> tuple:
    """The shot of every trial constant in cs, with exponents alpha, summed from its
    vertex series at theta.

    theta lies in (0, pi/2] and broadcasts against cs.  Returns the
    log-angle state (phi, phi_t), phi = psi / theta^alpha and phi_t =
    theta dphi/dtheta, from which _to_angle gives (psi, psi').
    IntegrationError when the last kept term of phi_t passes _SERIES_TAIL
    of phi.
    """
    a = _vertex_series(cs, alpha)
    x = np.square(theta)
    k = 2.0 * np.arange(len(a))[:, None]
    phi, phi_t = polyval(x, a, tensor=False), polyval(x, k * a, tensor=False)
    tail = np.max(k[-1] * np.abs(a[-1]) * x ** (len(a) - 1) / np.abs(phi))
    if tail > _SERIES_TAIL:
        raise IntegrationError(
            f"{len(a)} terms of the vertex series do not resolve the shot at "
            f"theta={np.max(theta)}: last term {tail:.1e} of phi"
        )
    return phi, phi_t


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
    and terminal_derivative is the scan's series value there.  Otherwise
    terminal_derivative is the confirming run's psi'(beta/2) at c_estimate.
    steps and nfev are totals over the whole batch: the accepted DOP853
    steps and the right-hand-side evaluations of its one confirming run,
    over [1/2, pi/2] alone, stepped in t = log(theta); both are 0 when
    every opening is subcritical, as no run is made.
    """

    beta: Union[float, np.ndarray]
    c_estimate: Union[float, np.ndarray]
    terminal_derivative: Union[float, np.ndarray]
    no_sign_change: Union[bool, np.ndarray]
    steps: int
    nfev: int


def _shoot_left(cs: np.ndarray) -> _Run:
    """Integrate -psi'' = c psi / sin^2(theta) over (0, pi/2], trial k at cs[k].

    The shot is psi = theta^alpha phi, and below _SERIES_END = 1/2 phi is
    its vertex series (_vertex), summed at 1/2 for every trial at once.
    From 1/2 DOP853 runs in t = log(theta), where the equation reads
    psi_tt = psi_t - c theta^2 V(theta) psi, with state (phi, phi_t), which
    solves phi_tt = (1 - 2 alpha) phi_t + c (1 - theta^2 V) phi.  phi stays
    near 1 up to pi/2, so DOP853 takes a few large steps and its relative
    error control holds psi's amplitude too.  The batch is one flat state
    [phi_1..phi_m, phi_t_1..phi_t_m], so a single error norm covers every
    trial.  On this piece V is the half-plane's 1/sin^2(theta) for every
    opening in [pi, 2pi]; each right-hand-side evaluation calls
    potential_v once, with floats, at opening pi.  The run stops at pi/2,
    where V turns to 1 and its second derivative jumps.  y is returned as
    (psi, psi') at pi/2.
    """
    alpha = _exponent(cs)
    phi, phi_t = _vertex(cs, alpha, _SERIES_END)
    damping = 1.0 - 2.0 * alpha
    m = len(cs)

    def rhs(t, y):
        # a stage time can pass the end of the run by rounding; V is
        # sampled on (0, pi/2] alone
        theta = min(math.exp(t), 0.5 * PI)
        forcing = cs * (1.0 - theta * theta * potential_v(theta, PI))
        return np.concatenate([y[m:], damping * y[m:] + forcing * y[:m]])

    y0 = np.concatenate([phi, phi_t])
    run = _solve(rhs, math.log(_SERIES_END), math.log(0.5 * PI), y0)
    return run._replace(y=np.concatenate(_to_angle(0.5 * PI, alpha, run.y[:m], run.y[m:])))


def _across_middle(psi, dpsi, c, length):
    """(psi, psi') at pi/2 + length from their values at pi/2, exactly: V = 1 on the
    middle [pi/2, beta - pi/2], where -psi'' = c psi.  The arguments broadcast."""
    k = np.sqrt(c)
    cos, sin = np.cos(k * length), np.sin(k * length)
    return psi * cos + dpsi * sin / k, dpsi * cos - k * psi * sin


class _Table(NamedTuple):
    """The scan: the vertex series of _TABLE trial constants at pi/2 and the
    Chebyshev series in the vertex exponent alpha that it fits to (psi, psi')."""

    alpha: np.ndarray  # Chebyshev-Lobatto nodes, decreasing from alpha(1e-6) to 1/2
    cs: np.ndarray  # trial constants alpha (1 - alpha), increasing to exactly 1/4
    ends: np.ndarray  # (psi, psi') at pi/2 of every trial, shape (2, _TABLE)
    coef: np.ndarray  # Chebyshev coefficients of (psi, psi') at pi/2, shape (_TABLE, 2)

    def terminal(self, alpha, length):
        """psi'(pi/2 + length) of the interpolant at exponent alpha; the arguments broadcast."""
        x = (2.0 * alpha - 1.0) / (self.alpha[0] - 0.5) - 1.0
        psi, dpsi = chebval(x, self.coef)
        return _across_middle(psi, dpsi, alpha * (1.0 - alpha), length)[1]


def _scan() -> _Table:
    """Sum the vertex series of the _TABLE Chebyshev-Lobatto nodes in alpha over
    [1/2, alpha(1e-6)] at pi/2 and interpolate (psi, psi') there in alpha;
    IntegrationError when the series' two trailing coefficients pass _TAIL of
    its largest."""
    x = np.cos(np.arange(_TABLE) * PI / (_TABLE - 1))  # 1 down to -1
    alpha = 0.5 + 0.5 * (_exponent(1e-6) - 0.5) * (1.0 + x)
    cs = alpha * (1.0 - alpha)
    ends = np.array(_to_angle(0.5 * PI, alpha, *_vertex(cs, alpha, 0.5 * PI)))
    coef = chebfit(x, ends.T, _TABLE - 1)
    tail = (np.abs(coef[-2:]).max(axis=0) / np.abs(coef).max(axis=0)).max()
    if tail > _TAIL:
        raise IntegrationError(
            f"{_TABLE} Chebyshev nodes in alpha do not resolve the shot at pi/2: "
            f"trailing coefficients {tail:.1e} of the largest"
        )
    return _Table(alpha, cs, ends, coef)


def shoot_c(beta: Union[float, np.ndarray]) -> ShootingResult:
    """Largest c in (0, 1/4] for which the shot satisfies psi'(beta/2) = 0.

    beta is one opening or a 1-D array of them; a scalar is the batch of
    one.  The scan sums the vertex series of 18 trial constants at pi/2, at
    the Chebyshev-Lobatto nodes in alpha from alpha(1e-6) down to 1/2, so
    from c near 1e-6 up to exactly 1/4.  It fits (psi, psi') at pi/2 as
    Chebyshev series in alpha (IntegrationError when their two trailing
    coefficients pass _TAIL of the largest), carries the trials across each
    opening's middle and finds the rightmost sign change of the terminal
    derivative.  _newton then meets psi'(beta/2) = 0 on the interpolant
    in every opening's cell at once: each opening starts at its cell's
    midpoint, takes the interpolant's slope by a complex step, is clamped
    onto its cell and stops once its step is at most _ROOT_XATOL, so a
    batch gives each opening the bits it gets alone.  One confirming
    DOP853 run shoots all the roots from 1/2, and the confirm check takes
    the table's slope there from the same complex step.
    terminal_derivative is that run's value at the root.  An opening whose
    terminal derivative never changes sign over the scan gets shooting's
    verdict c = 1/4, flagged in no_sign_change: the subcritical regime,
    where the shot meets the Neumann condition at no smaller c.  A call
    whose openings are all subcritical makes no run.  At beta = pi the
    middle has length 0.  beta reports the openings as
    hardycore.admit_openings clamps them.  Raises ValueError naming an
    opening outside [pi, 2pi], and BracketError naming an opening whose
    root does not settle within _NEWTON steps, or whose confirming run
    implies a correction to c above _CONFIRM.
    """
    betas, scalar = admit_openings(beta)
    table = _scan()
    steps = nfev = 0
    middle = 0.5 * (betas - PI)  # length of [pi/2, beta/2]
    d_vals = _across_middle(table.ends[0], table.ends[1], table.cs, middle[:, None])[1]
    change = d_vals[:, :-1] * d_vals[:, 1:] <= 0.0
    # no sign change in (0, 1/4]: the verdict c = 1/4, at the scan's last trial
    missing = ~change.any(axis=1)
    c_est, d_fin = np.full(betas.size, 0.25), d_vals[:, -1].copy()
    if not missing.all():
        shot = np.flatnonzero(~missing)
        i = _TABLE - 2 - np.argmax(change[shot, ::-1], axis=1)  # rightmost sign-change cell
        length = middle[shot]

        def fdf(alpha, length):
            # the complex step gives the table's value and its slope in alpha at once
            d = table.terminal(alpha + 1j * _STEP, length)
            return d.real, d.imag / _STEP

        lo, hi = table.alpha[i + 1], table.alpha[i]
        alpha, bad = _newton(fdf, 0.5 * (lo + hi), lo, hi, length)
        if bad.any():
            raise BracketError(
                f"Newton's solve of psi'(beta/2) = 0 did not settle within "
                f"{_NEWTON} steps at beta={betas[shot][bad][0]}"
            )
        cs = alpha * (1.0 - alpha)
        run = _shoot_left(cs)  # the confirming shot
        d_shot = _across_middle(run.y[: cs.size], run.y[cs.size :], cs, length)[1]
        slope = fdf(alpha, length)[1]  # dc = (1 - 2 alpha) dalpha
        correction = np.abs(d_shot * (1.0 - 2.0 * alpha) / slope)
        off = correction > _CONFIRM
        if off.any():
            raise BracketError(
                f"the shot at the table's root implies a correction of {correction[off][0]:.1e} "
                f"in c at beta={betas[shot][off][0]}"
            )
        c_est[shot], d_fin[shot] = cs, d_shot
        steps, nfev = run.steps, run.nfev
    if scalar:
        return ShootingResult(
            float(betas[0]), float(c_est[0]), float(d_fin[0]), bool(missing[0]), steps, nfev
        )
    return ShootingResult(betas, c_est, d_fin, missing, steps, nfev)


def shot_profile(beta: float, c: float, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (psi, psi') of the shot at a fixed trial constant c in (0, 1/4].

    beta passes admit_opening and the grid admit_angles on (0, beta/2].
    On (0, pi/2] the samples are the vertex series; beyond, the series at
    pi/2 carried across the middle exactly.
    """
    beta = admit_opening(beta)
    if not 0.0 < c <= 0.25:
        raise ValueError(f"trial constant c={c} outside (0, 1/4]")
    grid = np.asarray(admit_angles(grid, 0.0, 0.5 * beta, "(0, beta/2]"))
    left = np.minimum(grid, 0.5 * PI)
    cs = np.array([c])
    alpha = _exponent(cs)
    psi, dpsi = _to_angle(left, alpha, *_vertex(cs, alpha, left))
    return _across_middle(psi, dpsi, c, grid - left)


# ---------------------------------------------------------------------------
# Comparison family: h' = -(alpha h^2 - cos(theta) h + 1 - alpha)/sin(theta), h(0) = 1.

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
    return np.linspace(1e-4, 0.5 * PI, 200)


def solve_h(alpha: float, grid: Optional[np.ndarray] = None) -> HProfile:
    """Unique solution of the singular IVP for alpha in (1/2, 1).

    h = sin(theta) psi' / (alpha psi) is the Riccati variable of the vertex
    series at c = alpha (1 - alpha), summed at each grid angle: with
    g = alpha h = sin(theta) psi' / psi the equation is the shot's Riccati
    equation, and h -> 1 at the vertex, where psi ~ theta^alpha.  The grid
    must lie in (0, pi/2], by admit_angles; the profile keeps it as given.
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (1/2, 1)")
    grid = _default_grid() if grid is None else np.asarray(grid, dtype=float)
    at = admit_angles(grid, 0.0, 0.5 * PI, "(0, pi/2]")
    phi, phi_t = _vertex(np.array([alpha * (1.0 - alpha)]), alpha, at)
    # theta psi' / psi = alpha + phi_t / phi
    h = np.sin(at) / at * (1.0 + phi_t / (alpha * phi))
    return HProfile(alpha=alpha, grid=grid, h=h.reshape(np.shape(at)))


# ---------------------------------------------------------------------------
# Critical exponent alpha = 1/2: explicit solution family.

def h_family_half(lam: float, grid: Optional[np.ndarray] = None) -> HProfile:
    """Explicit alpha = 1/2 solution family, parameterized by lam >= 0.

    Members are h0(theta) - 4 lam / (F^2 (1 + lam J(z))) with
    h0 = cos(theta) + sin^2(theta) F2/(4F), F = 2F1(1/2,1/2,1; z),
    F2 = 2F1(3/2,3/2,2; z), z = sin^2(theta/2), and
    J(z) = int_z^{1/2} dt / (t (1-t) F(t)^2) in closed form
    (hardycore.critical_family, which admits the grid on [0, pi/2]; the
    profile keeps it as given).  All members satisfy h(0+) = 1; they
    decrease pointwise as lam grows, lam = 0 being the maximal one.
    """
    if not lam >= 0.0:
        raise ValueError(f"family parameter lam={lam} must be >= 0")
    grid = _default_grid() if grid is None else np.asarray(grid, dtype=float)
    return HProfile(alpha=0.5, grid=grid, h=critical_family(grid, lam), lam=lam)


def h_family_half_point(theta: float, lam: float) -> tuple[float, float]:
    """One family member and its theta-derivative, both analytic.

    The member takes J from specfun.family_integral, like h_family_half.
    The derivative uses F' = F2/4 and F2' = (9/8) 2F1(5/2,5/2,3; z) plus
    dJ/dtheta = -2/(sin(theta) F^2), so no finite differencing enters; the
    pair feeds the residual checks of the defining Riccati equation.  theta
    lies in (0, pi/2]: at 0 the derivative of every member but h0 diverges.
    """
    if not lam >= 0.0:
        raise ValueError(f"family parameter lam={lam} must be >= 0")
    theta = admit_angles(theta, 0.0, 0.5 * PI, "(0, pi/2]")
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

def _bound_angles(theta, a) -> np.ndarray:
    """theta, admitted on [0, pi/2], as an array; a must lie in [1/2, 1) (ValueError)."""
    theta = np.asarray(admit_angles(theta, 0.0, 0.5 * PI, "[0, pi/2]"))
    a_arr = np.asarray(a, dtype=float)
    outside = ~((0.5 <= a_arr) & (a_arr < 1.0))
    if outside.any():
        raise ValueError(f"exponent a={a_arr[outside].flat[0]} outside [1/2, 1)")
    return theta


def _quartic_coefficients(a) -> tuple:
    """2a + 1, a (4a^2 + 2a + 3) and 4a^2 + 8a + 3, the coefficients of the quartic bound."""
    return 2.0 * a + 1.0, a * (4.0 * a * a + 2.0 * a + 3.0), 4.0 * a * a + 8.0 * a + 3.0


def _quartic_value(theta, a):
    """gbar of the quartic bound at angles theta, unadmitted:

    gbar = a - a theta^2 / (2(2a+1))
             + a (4a^2 + 2a + 3) theta^4 / (24 (2a+1) (4a^2 + 8a + 3)),

    a plain polynomial in theta; theta and a broadcast together.
    """
    s, ap, q = _quartic_coefficients(a)
    t2 = theta * theta
    return a - a * t2 / (2.0 * s) + ap * t2 * t2 / (24.0 * s * q)


def _quartic(theta, a) -> tuple:
    """gbar (_quartic_value), gbar' and gbar'' of the quartic bound at angles theta, unadmitted."""
    s, ap, q = _quartic_coefficients(a)
    der = -a * theta / s + ap * theta**3 / (6.0 * s * q)
    second = -a / s + ap * theta * theta / (2.0 * s * q)
    return _quartic_value(theta, a), der, second


def g_upper_bound(theta, a):
    """Quartic gbar dominating g(beta, .) on [0, pi/2), a the exponent of the opening.

    An upper solution of the Riccati inequality for every a in [1/2, 1)
    (_quartic).  theta and a are floats or arrays that broadcast together.
    Only the value is evaluated, not its derivatives.
    """
    val = _quartic_value(_bound_angles(theta, a), a)
    return val if val.ndim else float(val)


def g_upper_bound_derivative(theta, a):
    """theta-derivative of g_upper_bound; admits and broadcasts like it."""
    val = _quartic(_bound_angles(theta, a), a)[1]
    return val if val.ndim else float(val)
