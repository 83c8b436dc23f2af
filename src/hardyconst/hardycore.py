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
Every value is closed-form: hypergeometric for supercritical openings, and
for subcritical ones half a member of the explicit alpha = 1/2 family
critical_family, picked by its value at pi/2.

All angles are radians.  Operations are pure; solutions are cached by
opening angle, so repeated sweeps are cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .specfun import family_integral, gamma, hyp2f1, hyp2f1_dz

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
    "critical_family",
    "series_coefficients",
    "series_a2",
    "eigen_profile",
]

PI = math.pi

# f switches from the hypergeometric branch to the power-series start below
# this angle; keeps the relative error of psi'/psi under ~1e-9 at the seam.
_SERIES_SWITCH = 1e-3

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


def is_subcritical(beta):
    """True for openings below the regime seam beta_cr - SEAM_SLACK.

    Those take g, and f on (0, pi/2), from the alpha = 1/2 family
    critical_family; every other opening from the hypergeometric branch.
    beta is a float, giving a bool, or an array, giving a bool array.
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
    """Hardy constant of the sector of opening beta, pi <= beta <= 2pi.

    Openings up to beta_cr return c = 1/4 exactly, the half-plane beta = pi
    included, so this needs no seam slack: both sides of beta_cr -
    SEAM_SLACK get the same answer.  Beyond beta_cr the equation is solved
    for s = 2 alpha - 1 = sqrt(1 - 4c) in [0, 1) to full precision.  s grows linearly with beta - beta_cr, and c
    = (1 - s^2)/4 only quadratically, so just above beta_cr a root in c
    would round to 1/4 and lose alpha's digits.
    """
    if not PI - 1e-12 <= beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside [pi, 2pi]")
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


def potential_v(theta, beta):
    """Sector potential: 1/sin^2(theta), 1, 1/sin^2(beta - theta) by region.

    Broadcasts over arrays of angles and openings; floats in give a float
    out, on a math-only path, since the shooting right-hand side calls it
    once per evaluation.  Both one-sided limits at the junctions
    theta = pi/2 and beta - pi/2 equal 1, so the junction value is 1.
    Diverges at the endpoints, which are rejected, as is an opening below
    pi.  At beta = pi, the half-plane, the middle region is the single
    angle pi/2.  Written with side = min(theta, beta - theta), the angle to
    the nearer edge: V = 1/sin^2(min(side, pi/2)), since side < pi/2
    exactly off the middle region [pi/2, beta - pi/2].
    """
    if isinstance(theta, float) and isinstance(beta, float):
        if not beta >= PI:
            raise ValueError(f"opening angle {beta} below pi")
        side = min(theta, beta - theta)
        if not side > 0.0:
            raise ValueError(f"theta={theta} outside (0, {beta})")
        return 1.0 / math.sin(min(side, 0.5 * PI)) ** 2
    theta, beta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(beta, dtype=float))
    low = ~(beta >= PI)
    if low.any():
        raise ValueError(f"opening angle {beta[low].flat[0]} below pi")
    side = np.minimum(theta, beta - theta)
    outside = ~(side > 0.0)
    if outside.any():
        raise ValueError(f"theta={theta[outside].flat[0]} outside (0, {beta[outside].flat[0]})")
    v = 1.0 / np.sin(np.minimum(side, 0.5 * PI)) ** 2
    return v if v.ndim else float(v)


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


def _f_hyper(theta, alpha):
    """psi'/psi on the hypergeometric branch, fully analytic.

    theta and the exponent alpha are floats or arrays that broadcast
    together, entry by entry.

    d/dtheta log psi = (alpha cot(theta/2) - (1-alpha) tan(theta/2))/2
                       + (sin theta / 2) F'(z)/F(z),  z = sin^2(theta/2).
    """
    s2 = np.sin(0.5 * theta)
    z = s2 * s2
    f_val = hyp2f1(0.5, 0.5, alpha + 0.5, z)
    df_val = hyp2f1_dz(0.5, 0.5, alpha + 0.5, z)
    t2 = np.tan(0.5 * theta)
    return 0.5 * (alpha / t2 - (1.0 - alpha) * t2) + 0.5 * np.sin(theta) * df_val / f_val


def f_func(theta, sol: HardySolution):
    """Logarithmic derivative psi'/psi on (0, beta).

    Middle region [pi/2, beta - pi/2]: sqrt(c) tan(sqrt(c)(beta/2 - theta)).
    Left region: hypergeometric branch for supercritical openings (power
    series start below theta = 1e-3), g_func / sin(theta) otherwise.
    Right region by the mirror antisymmetry f(beta - theta) = -f(theta).

    theta is a float or an array, and the result is of the same kind; each
    entry equals the call on that angle alone.
    """
    beta = sol.beta
    t = np.asarray(theta, dtype=float)
    inside = (t > 0.0) & (t < beta)
    if not inside.all():
        raise ValueError(f"theta={t[~inside].flat[0]} outside (0, beta)")
    mirrored = t > beta - 0.5 * PI
    t = np.where(mirrored, beta - t, t)
    middle = (t >= 0.5 * PI) & (t <= beta - 0.5 * PI)
    left = ~middle
    f = np.empty(t.shape)
    rc = math.sqrt(sol.c)
    f[middle] = rc * np.tan(rc * (0.5 * beta - t[middle]))
    if left.any() and is_subcritical(beta):
        f[left] = g_func(t[left], beta) / np.sin(t[left])
    elif left.any():
        f[left] = _f_left(t[left], sol.alpha)
    f = np.where(mirrored, -f, f)
    return f if np.ndim(theta) else float(f)


def _f_left(t: np.ndarray, alpha) -> np.ndarray:
    """f_func of supercritical openings on (0, pi/2): the power series
    below _SERIES_SWITCH, the hypergeometric branch above.  alpha is the
    exponent, a float or an array of t's shape."""
    alpha = np.broadcast_to(alpha, t.shape)
    f = np.empty(t.shape)
    series = t < _SERIES_SWITCH
    a = alpha[series]
    f[series] = a / t[series] + 2.0 * series_a2(a) * t[series]
    f[~series] = _f_hyper(t[~series], alpha[~series])
    return f


def _family_base(theta):
    """z = sin^2(theta/2), F = 2F1(1/2, 1/2, 1; z) and the maximal family member h0.

    h0 = cos(theta) + sin^2(theta) 2F1(3/2, 3/2, 2; z) / (4F).
    """
    z = np.sin(0.5 * theta) ** 2
    f = hyp2f1(0.5, 0.5, 1.0, z)
    return z, f, np.cos(theta) + np.sin(theta) ** 2 * hyp2f1(1.5, 1.5, 2.0, z) / (4.0 * f)


@lru_cache(maxsize=1)
def _family_end() -> tuple[float, float]:
    """F and h0 of _family_base at pi/2, which place every family member."""
    _, f_end, h_end = _family_base(0.5 * PI)
    return f_end, h_end


def critical_family(theta, lam):
    """Member h0(theta) - 4 lam / (F^2 (1 + lam J(z))) of the alpha = 1/2 family, lam >= 0.

    F, h0 and z as in _family_base, and J = specfun.family_integral.  Every
    member solves the critical Riccati equation
    h' + (h^2 - 2 cos(theta) h + 1) / (2 sin(theta)) = 0 on (0, pi/2] with
    h(0+) = 1; they decrease pointwise as lam grows, lam = 0 being the
    maximal one, h0.  As J(pi/2) = 0, the member with h(pi/2) = v has
    lam = F(1/2)^2 (h0(pi/2) - v) / 4.  theta in [0, pi/2] and lam are
    floats or arrays that broadcast together; the result is a float when
    both are floats, and each entry is that entry's member at that angle
    (lam = 0 entries are h0 itself, even at theta = 0 where J = inf).
    """
    z, f, h0, lam = np.broadcast_arrays(*_family_base(theta), np.asarray(lam, dtype=float))
    h = h0.copy()
    m = lam != 0.0
    if m.any():
        lm = lam[m]
        h[m] -= 4.0 * lm / (f[m] * f[m] * (1.0 + lm * family_integral(z[m])))
    return h if h.ndim else float(h)


def g_func(theta, beta):
    """Riccati variable g = (psi'/psi) sin(theta) on (0, pi/2], pi <= beta <= 2pi.

    Supercritical openings use the hypergeometric branch.  For subcritical
    ones g is half the critical_family member with 2 g(pi/2) =
    tan((beta - pi)/4): that terminal value fixes lam, and the member is
    the one solution of g' = -(g^2 - g cos(theta) + 1/4)/sin(theta) through
    it (the forward problem from theta = 0 is non-unique at this critical
    exponent).  g(0+) equals alpha, reached quadratically for alpha > 1/2
    and only logarithmically at the critical exponent 1/2.  Below
    theta ~ 1e-154, z = sin^2(theta/2) underflows; once it is 0,
    subcritical g returns its limit 1/2.

    theta and beta are floats or arrays that broadcast together, so one
    call covers many angles of many openings; the result is a float when
    both are floats.  Each entry equals the call on that angle and opening
    alone.  Pass the openings unexpanded (say, a column against a row of
    angles): the closed form is solved once per entry of beta.
    Supercritical g is f_func times sin(theta), taken from f_func's own
    branches (_f_left below pi/2, the middle region at pi/2) without its
    range check and mirror.
    """
    beta = np.asarray(beta, dtype=float)
    t, b = np.broadcast_arrays(np.asarray(theta, dtype=float), beta)
    outside = ~((PI - 1e-12 <= b) & (b <= 2.0 * PI + 1e-12))
    if outside.any():
        raise ValueError(f"opening angle {b[outside].flat[0]} outside [pi, 2pi]")
    inside = (t > 0.0) & (t <= 0.5 * PI + 1e-12)
    if not inside.all():
        raise ValueError(f"theta={t[~inside].flat[0]} outside (0, pi/2]")
    t = np.minimum(t, 0.5 * PI)
    g = np.empty(t.shape)
    sub = is_subcritical(b)
    if sub.any():
        # each opening's member, broadcast to its angles
        f_end, h_end = _family_end()
        lam = 0.25 * f_end * f_end * (h_end - np.tan(0.25 * (beta - PI)))
        g[sub] = 0.5 * critical_family(t[sub], np.broadcast_to(lam, t.shape)[sub])
    sup = ~sub
    if sup.any():
        # every closed-form opening is clamped into [beta_cr, 2pi]
        opening = np.clip(beta, beta_critical(), 2.0 * PI)
        sols = [solve_c_beta(v) for v in opening.ravel().tolist()]
        c = np.reshape([s.c for s in sols], opening.shape)
        alpha = np.reshape([s.alpha for s in sols], opening.shape)
        ts, c, alpha, opening = (v[sup] for v in np.broadcast_arrays(t, c, alpha, opening))
        left = ts < 0.5 * PI
        f = np.empty(ts.shape)
        f[left] = _f_left(ts[left], alpha[left])
        # pi/2 lies in f_func's middle region
        rc = np.sqrt(c[~left])
        f[~left] = rc * np.tan(rc * (0.5 * opening[~left] - 0.5 * PI))
        g[sup] = f * np.sin(ts)
    return g if g.ndim else float(g)


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
