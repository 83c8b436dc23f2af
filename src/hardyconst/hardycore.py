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
Every value is closed-form: one hypergeometric formula for g on all of
[0, pi/2] for supercritical openings, and for subcritical ones half a
member of the explicit alpha = 1/2 family critical_family, picked by its
value at pi/2.

All angles are radians.  Operations are pure; solutions are cached by
opening angle, so repeated sweeps are cheap.

Two doors admit every angle argument of every layer, and both apply one
rule, _in_range: admit_openings (and admit_opening) for openings and
admit_angles for polar angles.  A closed end of a range admits 1e-12 of
slack and is clamped onto the end for evaluation, except the end 0, an
edge of every angle range it bounds, which is exact; an open end is
strict; NaN lies outside every range.  potential_v alone keeps its own
float comparisons, since shooting calls it on every right-hand-side
evaluation.  The private evaluators _g_of and _family_member take angles
and openings that a door has already admitted, so that a caller holding
them (angles' maximization) does not admit them again.
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
]

PI = math.pi

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
    residual: float


@lru_cache(maxsize=1)
def beta_critical() -> float:
    """Largest opening angle with Hardy constant exactly 1/4.

    The root of tan((beta - pi)/4) = 4 (Gamma(3/4)/Gamma(1/4))^2 in
    (pi, 2pi), in closed form; approximately 1.5457 pi.
    """
    return PI + 4.0 * math.atan(4.0 * (gamma(0.75) / gamma(0.25)) ** 2)


# Slack of every closed end of a range of angles, other than 0.
_SLACK = 1e-12


def _in_range(x, lo: float, hi: float, interval: str):
    """The one range rule: whether each x lies in interval, and x clamped onto [lo, hi].

    interval names the range, whose ends are lo and hi.  A bracket marks a
    closed end, which admits _SLACK beyond it, and a parenthesis an open
    end, which is strict.  The closed end 0 is an edge, so it admits no
    slack and a negative angle lies outside.  NaN lies outside every range.
    x is a float or an array; both get the same comparisons and the same
    clamp.
    """
    above = lo < x if interval[0] == "(" else (lo - _SLACK if lo else lo) <= x
    below = x <= hi + _SLACK if interval[-1] == "]" else x < hi
    if isinstance(x, float):
        return above and below, min(max(x, lo), hi)
    return above & below, np.asarray(np.clip(x, lo, hi))


def _opening_interval(lower: str) -> tuple[float, str]:
    """The lower end of the range of openings that lower names, and the range's name."""
    lo = beta_critical() - SEAM_SLACK if lower == "[beta_cr" else PI
    return lo, lower + ", 2pi]"


def admit_openings(beta, lower: str = "[pi") -> tuple[np.ndarray, bool]:
    """The openings of beta, one or a 1-D array, admitted and clamped into range.

    lower names the range's lower end: "[pi" admits [pi, 2pi], "(pi" the
    reflex openings (pi, 2pi] and "[beta_cr" [beta_cr - SEAM_SLACK, 2pi],
    by the rule of _in_range.  Returns the openings flattened, and whether
    beta was a scalar.  ValueError for more dimensions, or naming the first
    opening outside.
    """
    betas = np.array(beta, dtype=float)
    if betas.ndim > 1:
        raise ValueError(f"openings must be a scalar or a 1-D array, not shape {betas.shape}")
    flat = betas.reshape(-1)
    lo, interval = _opening_interval(lower)
    inside, clamped = _in_range(flat, lo, 2.0 * PI, interval)
    if not inside.all():
        raise ValueError(f"opening angle {flat[~inside][0]} outside {interval}")
    return clamped, betas.ndim == 0


def admit_opening(beta, lower: str = "[pi") -> float:
    """admit_openings of a caller that takes one opening; ValueError for an array.

    A float takes the same range and clamp without building an array.
    """
    if isinstance(beta, float):
        lo, interval = _opening_interval(lower)
        inside, clamped = _in_range(beta, lo, 2.0 * PI, interval)
        if not inside:
            raise ValueError(f"opening angle {beta} outside {interval}")
        return float(clamped)
    flat, scalar = admit_openings(beta, lower)
    if not scalar:
        raise ValueError(f"expected one opening angle, not shape {np.shape(beta)}")
    return float(flat[0])


def admit_angles(theta, lo: float, hi: float, interval: str):
    """The polar angles of theta, a float or an array of any shape, admitted into interval.

    interval names the range, say "[0, pi/2]" or "(0, beta/2]", and lo and
    hi are its ends; the rule is _in_range's.  Returns the angles clamped
    onto [lo, hi] for evaluation: a float for a float, otherwise a float
    array of theta's shape.  A function that returns its angles returns
    them as given.  ValueError naming the first angle outside.
    """
    scalar = isinstance(theta, float)
    t = theta if scalar else np.asarray(theta, dtype=float)
    inside, clamped = _in_range(t, lo, hi, interval)
    if not (inside if scalar else inside.all()):
        raise ValueError(f"theta={t if scalar else t[~inside].flat[0]} outside {interval}")
    return clamped


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
    """Signed mismatch of the supercritical defining equation at (beta, c), pi <= beta <= 2pi."""
    return _residual(admit_opening(beta), c, math.sqrt(max(1.0 - 4.0 * c, 0.0)))


@lru_cache(maxsize=4096)
def solve_c_beta(beta: float) -> HardySolution:
    """Hardy constant of the sector of opening beta, pi <= beta <= 2pi.

    The solution reports the opening as admit_openings clamps it.
    Openings up to beta_cr return c = 1/4 exactly, the half-plane beta = pi
    included, so this needs no seam slack: both sides of beta_cr -
    SEAM_SLACK get the same answer.  Beyond beta_cr the equation is solved
    for s = 2 alpha - 1 = sqrt(1 - 4c) in [0, 1) to full precision.  s
    grows linearly with beta - beta_cr, and c = (1 - s^2)/4 only
    quadratically, so just above beta_cr a root in c would round to 1/4
    and lose alpha's digits.
    """
    beta = admit_opening(beta)
    if beta <= beta_critical():
        return HardySolution(beta=beta, c=0.25, alpha=0.5, residual=0.0)
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
        residual=abs(_residual(beta, c, s)),
    )


def sector_constants(openings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c and alpha of solve_c_beta at every entry of an array of openings, in its shape."""
    sols = [solve_c_beta(b) for b in openings.ravel().tolist()]
    return (
        np.reshape([s.c for s in sols], openings.shape),
        np.reshape([s.alpha for s in sols], openings.shape),
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

    Takes and returns floats, on a math-only path, since the shooting
    right-hand side calls it once per evaluation; an array of one or more
    dimensions raises the TypeError of float().  Both one-sided limits at
    the junctions theta = pi/2 and beta - pi/2 equal 1, so the junction
    value is 1.  Diverges at the endpoints, which are rejected, as is an
    opening below pi or above 2pi (with admit_openings' 1e-12 of slack
    there, unclamped).  At beta = pi, the half-plane, the middle region is
    the single angle pi/2.  Written with side = min(theta, beta - theta),
    the angle to the nearer edge: V = 1/sin^2(min(side, pi/2)), since
    side < pi/2 exactly off the middle region [pi/2, beta - pi/2].
    """
    theta, beta = float(theta), float(beta)
    if not beta >= PI:
        raise ValueError(f"opening angle {beta} below pi")
    if beta > 2.0 * PI + _SLACK:
        raise ValueError(f"opening angle {beta} above 2pi")
    side = min(theta, beta - theta)
    if not side > 0.0:
        raise ValueError(f"theta={theta} outside (0, {beta})")
    return 1.0 / math.sin(min(side, 0.5 * PI)) ** 2


def _require_closed_form(sol: HardySolution) -> None:
    if is_subcritical(sol.beta):
        raise ValueError(
            "closed-form eigenfunction needs beta >= the critical opening; "
            "use g_func for subcritical openings"
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
    theta = admit_angles(theta, 0.0, half, "(0, beta/2]")
    if theta >= 0.5 * PI:
        return math.cos(math.sqrt(sol.c) * (half - theta))
    s2 = math.sin(0.5 * theta)
    c2 = math.cos(0.5 * theta)
    f_val = hyp2f1(0.5, 0.5, sol.alpha + 0.5, s2 * s2)
    # continuity with the cosine branch at theta = pi/2
    prefactor = (
        math.sqrt(2.0)
        * math.cos(math.sqrt(sol.c) * 0.5 * (sol.beta - PI))
        / hyp2f1(0.5, 0.5, sol.alpha + 0.5, 0.5)
    )
    return prefactor * s2**sol.alpha * c2 ** (1.0 - sol.alpha) * f_val


def dpsi(theta: float, sol: HardySolution) -> float:
    """Derivative of psi on (0, beta/2]: psi times f_func, which is psi'/psi."""
    theta = admit_angles(theta, 0.0, 0.5 * sol.beta, "(0, beta/2]")
    return psi(theta, sol) * f_func(theta, sol)


def _g_hyper(theta, alpha):
    """g = (psi'/psi) sin(theta) on the hypergeometric branch, theta in [0, pi/2].

    With z = sin^2(theta/2) and F = 2F1(1/2, 1/2, alpha + 1/2; z),

        g = alpha (1 - z) - (1 - alpha) z + (sin^2(theta) / 2) F'(z)/F(z),

    which is alpha exactly at theta = 0 and finite at every angle.  theta
    and the exponent alpha are floats or arrays that broadcast together,
    entry by entry.
    """
    z = np.sin(0.5 * theta) ** 2
    ratio = hyp2f1_dz(0.5, 0.5, alpha + 0.5, z) / hyp2f1(0.5, 0.5, alpha + 0.5, z)
    return alpha * (1.0 - z) - (1.0 - alpha) * z + 0.5 * np.sin(theta) ** 2 * ratio


def f_func(theta, sol: HardySolution):
    """Logarithmic derivative psi'/psi on (0, beta).

    Middle region [pi/2, beta - pi/2]: sqrt(c) tan(sqrt(c)(beta/2 - theta)).
    Left region: g_func / sin(theta), for every opening.  Right region by
    the mirror antisymmetry f(beta - theta) = -f(theta).

    theta is a float or an array, and the result is of the same kind; each
    entry equals the call on that angle alone.
    """
    beta = sol.beta
    t = np.asarray(admit_angles(theta, 0.0, beta, "(0, beta)"))
    mirrored = t > beta - 0.5 * PI
    t = np.where(mirrored, beta - t, t)
    middle = (t >= 0.5 * PI) & (t <= beta - 0.5 * PI)
    left = ~middle
    f = np.empty(t.shape)
    rc = math.sqrt(sol.c)
    f[middle] = rc * np.tan(rc * (0.5 * beta - t[middle]))
    f[left] = g_func(t[left], beta) / np.sin(t[left])
    f = np.where(mirrored, -f, f)
    return f if np.ndim(theta) else float(f)


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
    both are floats, and each entry is that entry's member at that angle.
    z, F, h0 and J are evaluated on theta alone, and lam = 0 entries are h0
    itself, even at theta = 0 where J = inf.
    """
    h = _family_member(admit_angles(theta, 0.0, 0.5 * PI, "[0, pi/2]"), lam)
    return h if h.ndim else float(h)


def _family_member(theta, lam):
    """critical_family at angles already admitted, as an array."""
    z, f, h0 = _family_base(theta)
    lam = np.asarray(lam, dtype=float)
    j = family_integral(z)
    # lam J only where lam is nonzero: 0 J(0) = 0 inf would be NaN
    lam_j = np.multiply(lam, j, out=np.zeros(np.broadcast(lam, j).shape), where=lam != 0.0)
    return h0 - 4.0 * lam / (f * f * (1.0 + lam_j))


def _g_family(theta, beta):
    """g of subcritical openings: half the critical_family member with 2 g(pi/2) = tan((beta - pi)/4)."""
    f_end, h_end = _family_end()
    lam = 0.25 * f_end * f_end * (h_end - np.tan(0.25 * (beta - PI)))
    return 0.5 * _family_member(theta, lam)


def g_func(theta, beta):
    """Riccati variable g = (psi'/psi) sin(theta) on [0, pi/2], pi <= beta <= 2pi.

    Supercritical openings use the hypergeometric formula of _g_hyper.  For
    subcritical ones g is half the critical_family member with 2 g(pi/2) =
    tan((beta - pi)/4): that terminal value fixes lam, and the member is
    the one solution of g' = -(g^2 - g cos(theta) + 1/4)/sin(theta) through
    it (the forward problem from theta = 0 is non-unique at this critical
    exponent).  g(0) equals alpha exactly for every opening, and g tends to
    it quadratically for alpha > 1/2 and only logarithmically at the
    critical exponent 1/2.  Below theta ~ 1e-154, z = sin^2(theta/2)
    underflows; once it is 0, g returns alpha.

    theta and beta are floats or arrays that broadcast together, so one
    call covers many angles of many openings; the result is a float when
    both are floats.  Each entry equals the call on that angle and opening
    alone.  Pass the openings unexpanded (say, a column against a row of
    angles): they are admitted, and the closed form solved at the
    supercritical ones, once per entry of beta, which may have any shape;
    _g_of then evaluates the formulas.
    """
    beta = admit_openings(np.ravel(beta))[0].reshape(np.shape(beta))
    t = admit_angles(theta, 0.0, 0.5 * PI, "[0, pi/2]")
    alpha = np.full(beta.shape, 0.5)
    sup = ~is_subcritical(beta)
    alpha[sup] = sector_constants(beta[sup])[1]
    return _g_of(t, beta, alpha)


def _g_of(theta, beta, alpha):
    """g_func at angles and openings already admitted, given each opening's exponent.

    theta lies in [0, pi/2] and beta in [pi, 2pi], as their doors leave
    them, and alpha, of beta's shape, holds solve_c_beta's exponent at
    every supercritical opening (it is not read at subcritical ones).
    Floats or arrays; the result is a float when theta and beta are floats.
    is_subcritical picks the formula of each opening, _g_family for
    subcritical ones and _g_hyper at the given exponent for the rest, and
    each formula runs only on the openings it is picked for.  A batch that
    mixes the two is split along the one axis on which its openings vary,
    taking whole rows of openings (and of theta, where theta varies along
    that axis too) and writing whole rows of the result, so a column of
    openings against a row of angles is never broadcast before it is
    split.  Openings that vary along several axes are broadcast against
    theta and split as one flat batch of pairs.
    """
    beta, alpha = np.asarray(beta), np.asarray(alpha)
    sub = is_subcritical(beta)
    if sub.all() or not sub.any():
        g = _g_family(theta, beta) if sub.any() else _g_hyper(theta, alpha)
        return g if np.ndim(g) else float(g)
    shape = np.broadcast_shapes(beta.shape, np.shape(theta))
    lead = (1,) * (len(shape) - beta.ndim)
    beta, alpha = beta.reshape(lead + beta.shape), alpha.reshape(lead + alpha.shape)
    if np.ndim(theta):
        theta = theta.reshape((1,) * (len(shape) - theta.ndim) + theta.shape)
    varying = [k for k, n in enumerate(beta.shape) if n > 1]
    axis = varying[0]
    if len(varying) > 1:
        beta, alpha, theta = (np.broadcast_to(a, shape).ravel() for a in (beta, alpha, theta))
        sub, axis = is_subcritical(beta), 0
    sub = sub.ravel()
    g = np.empty(np.broadcast_shapes(beta.shape, np.shape(theta)))
    for family, rows in ((True, sub), (False, ~sub)):
        at = (slice(None),) * axis + (np.flatnonzero(rows),)
        t = theta[at] if np.ndim(theta) and theta.shape[axis] > 1 else theta
        g[at] = _g_family(t, beta[at]) if family else _g_hyper(t, alpha[at])
    return g.reshape(shape)
