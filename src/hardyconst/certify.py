"""Certification layer: domain descriptions, hypothesis checks, boundary certificates.

Each check evaluates the sufficient conditions of one certification result
and reports a verdict with explicit margins:

* one-reflex polygons: adjacent angles against min(gamma*, (3pi - beta)/2),
* convex caps of a sector (bounded with the same angle bound, or unbounded
  and non-intersecting, which needs no condition),
* two-halfline domains E(beta, gamma): constant c(beta) for a single
  non-convex angle, c(beta + gamma - pi) for two, under an explicit
  arccos bound on |beta - gamma|,
* mixed Dirichlet-Neumann sectors bounded by a monotone polar graph.

boundary_form_samples exposes the integrands whose pointwise non-negativity
carries the proofs; positive distance prefactors are dropped since only the
sign matters.  Checks never guess beyond their hypotheses: a failed
sufficient condition yields "condition_failed" or "inconclusive", never a
different constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .angles import gamma_star
from .hardycore import f_func, g_func, solve_c_beta

__all__ = [
    "ShapeError",
    "Sector",
    "SectorCapConvex",
    "OneReflexPolygon",
    "Ebg",
    "Dbeta",
    "DomainSpec",
    "CheckItem",
    "CertificateReport",
    "check_one_reflex_polygon",
    "check_sector_cap",
    "check_ebg",
    "check_dbeta",
    "dbeta_samples",
    "certify_domain",
    "boundary_form_samples",
    "theta1_two_sided",
    "theta1_gamma3",
    "interior_angles",
    "ensure_ccw",
]

PI = math.pi

CERTIFIED = "certified"
CONDITION_FAILED = "condition_failed"
INCONCLUSIVE = "inconclusive"

_ANGLE_TOL = 1e-9  # reflex/convex classification slack for float vertex input
_FLAT_TOL = 1e-9  # allowed wrong-sign slope on flat stretches of a polar graph


class ShapeError(ValueError):
    """Domain description violates the shape the check requires."""


# ---------------------------------------------------------------------------
# Domain descriptions.

@dataclass(frozen=True)
class Sector:
    """Infinite sector of opening beta at the origin."""

    beta: float


@dataclass(frozen=True)
class SectorCapConvex:
    """Sector of opening beta capped by a convex set with contact angles gamma_+/-.

    bounded=False asserts the cap is unbounded and its boundary never meets
    the sector's; the certificate then needs no angle condition.
    """

    beta: float
    gamma_plus: float
    gamma_minus: float
    bounded: bool = True


@dataclass(frozen=True)
class OneReflexPolygon:
    """Simple polygon with exactly one reflex vertex; vertices in order."""

    vertices: tuple

    def __init__(self, vertices: Sequence[Sequence[float]]):
        object.__setattr__(
            self, "vertices", tuple((float(x), float(y)) for x, y in vertices)
        )


@dataclass(frozen=True)
class Ebg:
    """Domain bounded by a unit segment and two halflines with interior angles beta, gamma."""

    beta: float
    gamma: float


@dataclass(frozen=True)
class Dbeta:
    """Mixed problem: Dirichlet on two segments meeting at angle beta at the
    origin, Neumann on the polar graph r(theta) sampled over [0, beta]."""

    beta: float
    r_samples: tuple

    def __init__(self, beta: float, r_samples: Sequence[Sequence[float]]):
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(
            self, "r_samples", tuple((float(t), float(r)) for t, r in r_samples)
        )

    @classmethod
    def from_function(cls, beta: float, r_of_theta: Callable[[float], float], n: int = 721) -> "Dbeta":
        thetas = np.linspace(0.0, beta, n)
        return cls(beta, [(t, r_of_theta(t)) for t in thetas])


DomainSpec = Union[Sector, SectorCapConvex, OneReflexPolygon, Ebg, Dbeta]


class CheckItem(NamedTuple):
    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class CertificateReport:
    """Verdict plus the margins of every condition that was evaluated."""

    verdict: str
    constant: Optional[float]
    constant_source: str
    checks: tuple = field(default_factory=tuple)
    failed_condition: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "constant": self.constant,
            "constant_source": self.constant_source,
            "failed_condition": self.failed_condition,
            "checks": [
                {"name": c.name, "satisfied": bool(c.satisfied), "margin": float(c.margin)}
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Polygon geometry.

def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ensure_ccw(vertices: Sequence[Sequence[float]]) -> np.ndarray:
    """Vertex array in counterclockwise order (input order is normalized)."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise ShapeError("polygon needs at least 3 two-dimensional vertices")
    area = _signed_area(v)
    if area == 0.0:
        raise ShapeError("degenerate polygon (zero area)")
    return v if area > 0.0 else v[::-1].copy()


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _require_simple(v: np.ndarray) -> None:
    n = len(v)
    if np.any(np.all(np.isclose(v, np.roll(v, -1, axis=0)), axis=1)):
        raise ShapeError("repeated consecutive vertices")
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint
            if _segments_cross(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                raise ShapeError("polygon edges intersect (not simple)")


def interior_angles(vertices: Sequence[Sequence[float]]) -> np.ndarray:
    """Interior angle at every vertex of a counterclockwise simple polygon."""
    v = ensure_ccw(vertices)
    prev = np.roll(v, 1, axis=0)
    nxt = np.roll(v, -1, axis=0)
    u = v - prev
    w = nxt - v
    turn = np.arctan2(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0], np.sum(u * w, axis=1))
    return PI - turn


# ---------------------------------------------------------------------------
# Hypothesis checks.

def _angle_bound_checks(beta: float, gp: float, gm: float) -> tuple:
    # the 1e-9 classification slack is folded into the margin so that
    # "certified" is equivalent to every margin being non-negative
    bound = min(gamma_star(beta).gamma_star, 0.5 * (3.0 * PI - beta)) + _ANGLE_TOL
    return (
        CheckItem(
            "gamma_plus <= min(gamma*(beta), (3pi - beta)/2)",
            gp <= bound,
            bound - gp,
        ),
        CheckItem(
            "gamma_minus <= min(gamma*(beta), (3pi - beta)/2)",
            gm <= bound,
            bound - gm,
        ),
    )


def _verdict_from_checks(checks, constant, source) -> CertificateReport:
    bad = [c for c in checks if not c.satisfied]
    if not bad:
        return CertificateReport(CERTIFIED, constant, source, tuple(checks))
    return CertificateReport(
        CONDITION_FAILED, None, source, tuple(checks), failed_condition=bad[0].name
    )


def check_one_reflex_polygon(p: OneReflexPolygon) -> CertificateReport:
    """Certify the Hardy constant of a polygon with one reflex vertex.

    Extracts the reflex angle beta and the two adjacent angles from the
    vertex list; the constant c(beta) is certified when both adjacent
    angles stay below min(gamma*(beta), (3pi - beta)/2).
    """
    v = ensure_ccw(p.vertices)
    _require_simple(v)
    ang = interior_angles(v)
    reflex = np.where(ang > PI + _ANGLE_TOL)[0]
    if len(reflex) != 1:
        raise ShapeError(f"expected exactly one reflex vertex, found {len(reflex)}")
    i = int(reflex[0])
    n = len(v)
    beta = float(ang[i])
    gp = float(ang[(i + 1) % n])
    gm = float(ang[(i - 1) % n])
    checks = _angle_bound_checks(beta, gp, gm)
    return _verdict_from_checks(checks, solve_c_beta(beta).c, "one-reflex polygon bound")


def check_sector_cap(s: SectorCapConvex) -> CertificateReport:
    """Certify a sector capped by a convex set.

    Bounded caps need both contact angles below the same bound as polygons;
    an unbounded cap whose boundary avoids the sector's is unconditional.
    """
    if not PI < s.beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {s.beta} outside (pi, 2pi]")
    c = solve_c_beta(s.beta).c
    if not s.bounded:
        checks = (
            CheckItem("cap and sector boundaries do not intersect (input assertion)", True, 0.0),
        )
        return CertificateReport(CERTIFIED, c, "unbounded convex cap of a sector", checks)
    checks = _angle_bound_checks(s.beta, s.gamma_plus, s.gamma_minus)
    return _verdict_from_checks(checks, c, "bounded convex cap of a sector")


def check_ebg(e: Ebg) -> CertificateReport:
    """Certify a two-halfline domain E(beta, gamma).

    One non-convex angle (gamma <= pi): constant c(beta), unconditional.
    Two non-convex angles: constant c(beta + gamma - pi) provided
    |beta - gamma| <= (2/c) arccos(2 sqrt(c)); outside that condition the
    result is one-directional and the verdict is inconclusive.
    """
    beta, gam = max(e.beta, e.gamma), min(e.beta, e.gamma)
    if not gam > 0.0:
        raise ValueError(f"angle gamma={gam} must be positive")
    if not PI < beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"angle beta={beta} outside (pi, 2pi]")
    if beta + gam > 3.0 * PI + 1e-12:
        raise ValueError(f"beta + gamma = {beta + gam} exceeds 3pi (halflines intersect)")
    if gam <= PI + 1e-12:
        sol = solve_c_beta(beta)
        checks = (CheckItem("gamma <= pi (one non-convex angle)", True, PI - gam),)
        return CertificateReport(
            CERTIFIED, sol.c, "two-halfline domain, one non-convex angle", checks
        )
    sol = solve_c_beta(beta + gam - PI)
    rhs = 2.0 / sol.c * math.acos(min(2.0 * math.sqrt(sol.c), 1.0))
    margin = rhs - abs(beta - gam)
    checks = (
        CheckItem(
            "|beta - gamma| <= (2/c) arccos(2 sqrt(c)) at c = c(beta + gamma - pi)",
            margin >= 0.0,
            margin,
        ),
    )
    if margin >= 0.0:
        return CertificateReport(
            CERTIFIED, sol.c, "two-halfline domain, two non-convex angles", checks
        )
    return CertificateReport(
        INCONCLUSIVE, None, "two-halfline domain, two non-convex angles", checks
    )


def dbeta_samples(d: Dbeta) -> np.ndarray:
    """The (theta, r) samples of a polar-graph domain, sorted by angle.

    ValueError unless the opening is in (pi, 2pi], there are at least 2
    samples, no angle repeats, r stays positive and the samples cover
    [0, beta].  At a repeated angle the slope between its samples is
    undefined, and the sort would order a radial jump there by r alone.
    """
    if not PI < d.beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {d.beta} outside (pi, 2pi]")
    if len(d.r_samples) < 2:
        raise ValueError("a polar graph needs at least 2 samples")
    samples = np.asarray(sorted(d.r_samples), dtype=float)
    thetas, r = samples[:, 0], samples[:, 1]
    if np.any(np.diff(thetas) == 0.0):
        raise ValueError("polar graph angles must not repeat")
    if np.any(r <= 0.0):
        raise ValueError("polar graph r(theta) must stay positive")
    if thetas[0] > 1e-9 or thetas[-1] < d.beta - 1e-9:
        raise ValueError("samples must cover [0, beta]")
    return samples


def check_dbeta(d: Dbeta) -> CertificateReport:
    """Certify the mixed Dirichlet-Neumann inequality for a polar-graph domain.

    Requires r non-increasing on [0, beta/2] and non-decreasing on
    [beta/2, beta] (difference quotients, 1e-9 slack for flat stretches).
    An oscillating profile is inconclusive, not a different constant.
    """
    samples = dbeta_samples(d)
    thetas, r = samples[:, 0], samples[:, 1]
    mids = 0.5 * (thetas[:-1] + thetas[1:])
    lower = mids <= 0.5 * d.beta
    if np.count_nonzero(lower) < 2 or np.count_nonzero(~lower) < 2:
        raise ValueError("need at least 3 samples per half of [0, beta]")
    dq = np.diff(r) / np.diff(thetas)
    viol = 0.0
    if np.any(lower):
        viol = max(viol, float(np.max(dq[lower])))
    if np.any(~lower):
        viol = max(viol, float(np.max(-dq[~lower])))
    margin = _FLAT_TOL - viol
    checks = (
        CheckItem("r' <= 0 on [0, beta/2] and r' >= 0 on [beta/2, beta]", margin >= 0.0, margin),
    )
    if margin >= 0.0:
        return CertificateReport(
            CERTIFIED,
            solve_c_beta(d.beta).c,
            "mixed Dirichlet-Neumann monotone polar graph",
            checks,
        )
    return CertificateReport(
        INCONCLUSIVE, None, "mixed Dirichlet-Neumann monotone polar graph", checks
    )


def certify_domain(domain: DomainSpec) -> CertificateReport:
    """Dispatch a domain description to its hypothesis check."""
    if isinstance(domain, Sector):
        if not PI <= domain.beta <= 2.0 * PI + 1e-12:
            raise ValueError(f"opening angle {domain.beta} outside [pi, 2pi]")
        checks = (CheckItem("opening angle in [pi, 2pi]", True, 2.0 * PI - domain.beta),)
        return CertificateReport(CERTIFIED, solve_c_beta(domain.beta).c, "sector constant", checks)
    if isinstance(domain, SectorCapConvex):
        return check_sector_cap(domain)
    if isinstance(domain, OneReflexPolygon):
        return check_one_reflex_polygon(domain)
    if isinstance(domain, Ebg):
        return check_ebg(domain)
    if isinstance(domain, Dbeta):
        return check_dbeta(domain)
    raise TypeError(f"unknown domain description {type(domain).__name__}")


# ---------------------------------------------------------------------------
# Boundary-form certificates.

def theta1_two_sided(theta: float, gamma: float) -> float:
    """Companion polar angle on the bisector segment: cot(t1) = -cos(gamma) cot(theta) + sin(gamma)."""
    if theta < 1e-300:
        return 0.0
    x = -math.cos(gamma) / math.tan(theta) + math.sin(gamma)
    return 0.5 * PI - math.atan(x)


def theta1_gamma3(theta: float, beta: float, gamma: float) -> float:
    """Companion polar angle on the far halfline: tan(t1) = -sin(beta - theta)/cos(theta + gamma)."""
    return math.atan2(math.sin(beta - theta), -math.cos(theta + gamma))


_FORM_KINDS = ("line_segment", "parabola", "two_sided", "gamma3")


def _check_range(kind: str, theta: np.ndarray, lo: float, hi: float) -> None:
    if np.any(theta < lo - 1e-12) or np.any(theta > hi + 1e-12):
        raise ValueError(
            f"{kind} form evaluated outside its theta interval [{lo:.6f}, {hi:.6f}]"
        )


def boundary_form_samples(
    kind: str,
    beta: float,
    gamma: float,
    theta_grid: Sequence[float],
) -> list:
    """Evaluate one boundary-form integrand on a theta grid.

    Positive 1/d and 1/r prefactors are dropped; the certificates only use
    the sign.  Kinds and their theta intervals:

    * "line_segment": g cos(theta + gamma/2) + alpha cos(gamma/2) on [0, pi/2],
    * "parabola": f cos(theta + gamma) + alpha (1 + sin(theta + gamma)) on
      [pi/2, min(beta - pi/2, 3pi/2 - gamma)],
    * "two_sided": g(theta) cos(theta + gamma/2) + g(theta1) cos(theta1 - gamma/2)
      on [0, pi/2] with the bisector companion angle, for gamma in [pi/2, pi],
    * "gamma3": f(theta) sin((beta-gamma)/2 - theta) + f(theta1) sin((beta+gamma)/2 - theta1)
      on [beta - pi/2, (beta + pi - gamma)/2) with the halfline companion
      angle, for gamma in [pi/2, pi] and beta + gamma < 2pi.

    Returns a list of (theta, value) pairs.
    """
    if kind not in _FORM_KINDS:
        raise ValueError(f"unknown boundary form kind {kind!r}; expected one of {_FORM_KINDS}")
    theta = np.asarray(theta_grid, dtype=float)
    if not PI - 1e-12 <= beta <= 2.0 * PI + 1e-12:
        raise ValueError(f"opening angle {beta} outside [pi, 2pi]")
    alpha = solve_c_beta(beta).alpha

    def g_or_limit(t: np.ndarray) -> np.ndarray:
        g = np.full(t.shape, alpha)
        far = t >= 1e-9
        g[far] = g_func(t[far], beta)
        return g

    if kind == "line_segment":
        if not -0.5 * PI < gamma <= PI + 1e-12:
            raise ValueError(f"gamma={gamma} outside (-pi/2, pi] for the segment form")
        _check_range(kind, theta, 0.0, 0.5 * PI)
        vals = g_or_limit(theta) * np.cos(theta + 0.5 * gamma) + alpha * math.cos(0.5 * gamma)
    elif kind == "parabola":
        if beta <= PI:
            raise ValueError("parabola form needs a reflex opening beta > pi")
        hi = min(beta - 0.5 * PI, 1.5 * PI - gamma)
        _check_range(kind, theta, 0.5 * PI, hi)
        sol = solve_c_beta(beta)
        vals = (
            f_func(np.minimum(theta, beta - 0.5 * PI), sol) * np.cos(theta + gamma)
            + alpha * (1.0 + np.sin(theta + gamma))
        )
    elif kind == "two_sided":
        if not 0.5 * PI - 1e-12 <= gamma <= PI + 1e-12:
            raise ValueError(f"gamma={gamma} outside [pi/2, pi] for the two-sided form")
        _check_range(kind, theta, 0.0, 0.5 * PI)
        t1 = np.array([theta1_two_sided(t, gamma) for t in theta])
        vals = (
            g_or_limit(theta) * np.cos(theta + 0.5 * gamma)
            + g_or_limit(t1) * np.cos(t1 - 0.5 * gamma)
        )
    else:  # gamma3
        if beta <= PI:
            raise ValueError("halfline form needs a reflex opening beta > pi")
        if not 0.5 * PI - 1e-12 <= gamma <= PI + 1e-12:
            raise ValueError(f"gamma={gamma} outside [pi/2, pi] for the halfline form")
        if beta + gamma >= 2.0 * PI:
            raise ValueError("halfline segment exists only when beta + gamma < 2pi")
        hi = 0.5 * (beta + PI - gamma) - 1e-9
        _check_range(kind, theta, beta - 0.5 * PI, hi)
        sol = solve_c_beta(beta)
        t1 = np.array([theta1_gamma3(t, beta, gamma) for t in theta])
        vals = (
            f_func(theta, sol) * np.sin(0.5 * (beta - gamma) - theta)
            + f_func(t1, sol) * np.sin(0.5 * (beta + gamma) - t1)
        )
    return list(zip(theta.tolist(), vals.tolist()))
