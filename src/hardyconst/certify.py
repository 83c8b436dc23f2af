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
from .hardycore import admit_angles, admit_opening, f_func, g_func, solve_c_beta

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
    "ebg_angles",
    "check_dbeta",
    "dbeta_samples",
    "certify_domain",
    "boundary_form_samples",
    "theta1_two_sided",
    "theta1_gamma3",
    "interior_angles",
    "ensure_ccw",
    "polygon_vertices",
]

PI = math.pi

CERTIFIED = "certified"
CONDITION_FAILED = "condition_failed"
INCONCLUSIVE = "inconclusive"

_ANGLE_TOL = 1e-9  # reflex/convex classification slack for float vertex input
_FLAT_TOL = 1e-9  # allowed wrong-sign slope on flat stretches of a polar graph
# Most vertices polygon_vertices takes: its crossing check compares every
# pair of edges.  At the cap a notched disk certifies in 1.2 s of CPU at a
# 91 MB peak and validates at n = 512 in 7.3 s at 303 MB (x86-64, Python
# 3.11, numpy 2.4, scipy 1.17, one BLAS thread); twice the cap certifies
# in 3.2 s.
_MAX_VERTICES = 10_000
# Most samples dbeta_samples takes, as many as a sweep's rows.  At the cap
# a polar graph certifies in 1.1 s at a 154 MB peak and validates at
# n = 512 in 4.6 s at 271 MB; ten times the cap certifies at an 824 MB peak.
_MAX_SAMPLES = 100_000


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

def _relative(v: np.ndarray) -> np.ndarray:
    """v - v[0], scaled by the power of two that brings its largest coordinate into [1, 2).

    Polygon admission works in these coordinates.  In absolute ones the
    shoelace sum cancels when a polygon is small against its offset (an
    L-shape of size 1e-4 at 1e6 summed to zero area, and one of size 1e-6
    at 1e4 to the wrong sign), and the cross products of the crossing test
    and of interior_angles underflow at size 1e-300 and overflow at 1e300.
    The scale is exact, leaves every angle and sign as it is, and keeps the
    products finite and normal at any size.
    """
    d = v - v[0]
    return np.ldexp(d, 1 - math.frexp(float(np.max(np.abs(d))))[1])


def _signed_area(v: np.ndarray) -> float:
    """Signed area of the polygon _relative(v); its sign is v's orientation."""
    d = _relative(v)
    x, y = d[:, 0], d[:, 1]
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


def _finite_points(points, what: str) -> np.ndarray:
    """points, a sequence of coordinate pairs, as a float array; ShapeError naming
    the first point with a coordinate that is not finite."""
    a = np.asarray(points, dtype=float)
    bad = np.flatnonzero(~np.isfinite(a.reshape(len(a), -1)).all(axis=1))
    if bad.size:
        raise ShapeError(f"{what} {bad[0]} {a[bad[0]].tolist()} is not finite")
    return a


def polygon_vertices(p: OneReflexPolygon) -> np.ndarray:
    """Counterclockwise vertex array of a simple polygon.

    ShapeError for more than _MAX_VERTICES or fewer than 3 vertices, a
    coordinate that is not finite (named before any area is taken), zero
    area, an exactly repeated consecutive vertex (a zero-length edge, where
    interior_angles reads pi; only exact repeats, since the constant does
    not change when the polygon is moved or scaled) or two edges that
    cross.  Each edge is tested in one array pass against the later edges
    it shares no endpoint with, in the coordinates of _relative.
    """
    if len(p.vertices) > _MAX_VERTICES:
        raise ShapeError(f"polygon has {len(p.vertices)} vertices, more than {_MAX_VERTICES}")
    v = ensure_ccw(_finite_points(p.vertices, "polygon vertex"))
    if np.any(np.all(v == np.roll(v, -1, axis=0), axis=1)):
        raise ShapeError("repeated consecutive vertices")
    d = _relative(v)
    w = np.roll(d, -1, axis=0)
    n = len(v)
    for i in range(n - 2):
        (p1x, p1y), (p2x, p2y) = d[i], w[i]
        # edge n - 1 ends where edge 0 starts
        q1, q2 = d[i + 2 : n - (i == 0)], w[i + 2 : n - (i == 0)]
        q1x, q1y, q2x, q2y = q1[:, 0], q1[:, 1], q2[:, 0], q2[:, 1]
        d1 = (q2x - q1x) * (p1y - q1y) - (q2y - q1y) * (p1x - q1x)
        d2 = (q2x - q1x) * (p2y - q1y) - (q2y - q1y) * (p2x - q1x)
        d3 = (p2x - p1x) * (q1y - p1y) - (p2y - p1y) * (q1x - p1x)
        d4 = (p2x - p1x) * (q2y - p1y) - (p2y - p1y) * (q2x - p1x)
        if np.any(((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))):
            raise ShapeError("polygon edges intersect (not simple)")
    return v


def interior_angles(vertices: Sequence[Sequence[float]]) -> np.ndarray:
    """Interior angle at every vertex of a simple polygon, taken counterclockwise,
    in the coordinates of _relative."""
    v = _relative(ensure_ccw(vertices))
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
    return tuple(
        CheckItem(f"{name} <= min(gamma*(beta), (3pi - beta)/2)", g <= bound, bound - g)
        for name, g in (("gamma_plus", gp), ("gamma_minus", gm))
    )


def _report(checks, constant, source, failure=CONDITION_FAILED) -> CertificateReport:
    """The one verdict rule: certified with the constant when every check is
    satisfied, else `failure` naming the first check that failed."""
    bad = [c.name for c in checks if not c.satisfied]
    if not bad:
        return CertificateReport(CERTIFIED, constant, source, tuple(checks))
    return CertificateReport(failure, None, source, tuple(checks), failed_condition=bad[0])


def check_one_reflex_polygon(p: OneReflexPolygon) -> CertificateReport:
    """Certify the Hardy constant of a polygon with one reflex vertex.

    Extracts the reflex angle beta and the two adjacent angles from the
    vertex list; the constant c(beta) is certified when both adjacent
    angles stay below min(gamma*(beta), (3pi - beta)/2).
    """
    v = polygon_vertices(p)
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
    return _report(checks, solve_c_beta(beta).c, "one-reflex polygon bound")


def check_sector_cap(s: SectorCapConvex) -> CertificateReport:
    """Certify a sector capped by a convex set.

    Bounded caps need both contact angles below the same bound as polygons,
    and positive (ValueError otherwise); an unbounded cap whose boundary
    avoids the sector's is unconditional, whatever its angles.
    """
    beta = admit_opening(s.beta, "(pi")
    c = solve_c_beta(beta).c
    if not s.bounded:
        checks = (
            CheckItem("cap and sector boundaries do not intersect (input assertion)", True, 0.0),
        )
        return _report(checks, c, "unbounded convex cap of a sector")
    if not (s.gamma_plus > 0.0 and s.gamma_minus > 0.0):
        raise ValueError(
            f"contact angles gamma_plus={s.gamma_plus}, gamma_minus={s.gamma_minus} must be positive"
        )
    checks = _angle_bound_checks(beta, s.gamma_plus, s.gamma_minus)
    return _report(checks, c, "bounded convex cap of a sector")


def ebg_angles(e: Ebg) -> tuple[float, float]:
    """The larger and the smaller interior angle of a two-halfline domain.

    ValueError unless the larger is a reflex opening in (pi, 2pi], the
    smaller is positive and their sum is at most 3pi: otherwise the
    halflines meet and bound no two-halfline domain.
    """
    beta = admit_opening(np.maximum(e.beta, e.gamma), "(pi")
    gam = min(e.beta, e.gamma)
    if not gam > 0.0:
        raise ValueError(f"angle gamma={gam} must be positive")
    if beta + gam > 3.0 * PI + 1e-12:
        raise ValueError(f"beta + gamma = {beta + gam} exceeds 3pi (halflines intersect)")
    return beta, gam


def check_ebg(e: Ebg) -> CertificateReport:
    """Certify a two-halfline domain E(beta, gamma).

    One non-convex angle (gamma <= pi): constant c(beta), unconditional.
    Two non-convex angles: constant c(beta + gamma - pi) provided
    |beta - gamma| <= (2/c) arccos(2 sqrt(c)); outside that condition the
    result is one-directional and the verdict is inconclusive.
    """
    beta, gam = ebg_angles(e)
    if gam <= PI + 1e-12:
        checks = (CheckItem("gamma <= pi (one non-convex angle)", True, PI - gam),)
        return _report(
            checks, solve_c_beta(beta).c, "two-halfline domain, one non-convex angle", INCONCLUSIVE
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
    return _report(checks, sol.c, "two-halfline domain, two non-convex angles", INCONCLUSIVE)


def dbeta_samples(d: Dbeta) -> np.ndarray:
    """The (theta, r) samples of a polar-graph domain, sorted by angle.

    ValueError unless the opening is in (pi, 2pi], there are at least 2
    and at most _MAX_SAMPLES samples, every coordinate is finite (the first
    that is not is named before the sort), no angle repeats, r stays positive
    and the samples cover [0, beta] and no more (1e-9 of slack at either
    end).  At a repeated angle the slope between its samples is undefined,
    and the sort would order a radial jump there by r alone.
    """
    admit_opening(d.beta, "(pi")
    if len(d.r_samples) < 2:
        raise ValueError("a polar graph needs at least 2 samples")
    if len(d.r_samples) > _MAX_SAMPLES:
        raise ValueError(f"polar graph has {len(d.r_samples)} samples, more than {_MAX_SAMPLES}")
    samples = _finite_points(d.r_samples, "polar graph sample")
    samples = samples[np.lexsort(samples.T[::-1])]
    thetas, r = samples[:, 0], samples[:, 1]
    if np.any(np.diff(thetas) == 0.0):
        raise ValueError("polar graph angles must not repeat")
    if np.any(r <= 0.0):
        raise ValueError("polar graph r(theta) must stay positive")
    if thetas[0] > 1e-9 or thetas[-1] < d.beta - 1e-9:
        raise ValueError("samples must cover [0, beta]")
    if thetas[0] < -1e-9 or thetas[-1] > d.beta + 1e-9:
        raise ValueError("sample angles must lie in [0, beta]")
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
    viol = max(0.0, float(np.max(dq[lower])), float(np.max(-dq[~lower])))
    margin = _FLAT_TOL - viol
    checks = (
        CheckItem("r' <= 0 on [0, beta/2] and r' >= 0 on [beta/2, beta]", margin >= 0.0, margin),
    )
    return _report(
        checks, solve_c_beta(d.beta).c, "mixed Dirichlet-Neumann monotone polar graph", INCONCLUSIVE
    )


def certify_domain(domain: DomainSpec) -> CertificateReport:
    """Dispatch a domain description to its hypothesis check."""
    if isinstance(domain, Sector):
        beta = admit_opening(domain.beta)
        checks = (CheckItem("opening angle in [pi, 2pi]", True, 2.0 * PI - beta),)
        return _report(checks, solve_c_beta(beta).c, "sector constant")
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
    """Companion polar angle on the bisector segment: cot(t1) = -cos(gamma) cot(theta) + sin(gamma).

    theta passes hardycore.admit_angles on [0, pi/2].
    """
    theta = admit_angles(float(theta), 0.0, 0.5 * PI, "[0, pi/2]")
    if theta < 1e-300:
        return 0.0
    x = -math.cos(gamma) / math.tan(theta) + math.sin(gamma)
    return 0.5 * PI - math.atan(x)


def theta1_gamma3(theta: float, beta: float, gamma: float) -> float:
    """Companion polar angle on the far halfline: tan(t1) = -sin(beta - theta)/cos(theta + gamma)."""
    return math.atan2(math.sin(beta - theta), -math.cos(theta + gamma))


_FORM_KINDS = ("line_segment", "parabola", "two_sided", "gamma3")


def boundary_form_samples(
    kind: str,
    beta: float,
    gamma: float,
    theta_grid: Sequence[float],
) -> list:
    """Evaluate one boundary-form integrand on a theta grid.

    Positive 1/d and 1/r prefactors are dropped; the certificates only use
    the sign.  Each kind admits its angles on its own range, by
    hardycore.admit_angles:

    * "line_segment": g cos(theta + gamma/2) + alpha cos(gamma/2) on [0, pi/2],
    * "parabola": f cos(theta + gamma) + alpha (1 + sin(theta + gamma)) on
      [pi/2, min(beta - pi/2, 3pi/2 - gamma)],
    * "two_sided": g(theta) cos(theta + gamma/2) + g(theta1) cos(theta1 - gamma/2)
      on [0, pi/2] with the bisector companion angle, for gamma in [pi/2, pi],
    * "gamma3": f(theta) sin((beta-gamma)/2 - theta) + f(theta1) sin((beta+gamma)/2 - theta1)
      on [beta - pi/2, (beta + pi - gamma)/2 - 1e-9] with the halfline
      companion angle, for gamma in [pi/2, pi] and beta + gamma < 2pi.

    g and f are hardycore's g_func and f_func, called on the admitted
    angles and their companion angles; g(0) = alpha.  Returns a list of
    (theta, value) pairs, each theta as given.
    """
    if kind not in _FORM_KINDS:
        raise ValueError(f"unknown boundary form kind {kind!r}; expected one of {_FORM_KINDS}")
    theta = np.asarray(theta_grid, dtype=float)
    beta = admit_opening(beta)
    alpha = solve_c_beta(beta).alpha

    if kind == "line_segment":
        if not -0.5 * PI < gamma <= PI + 1e-12:
            raise ValueError(f"gamma={gamma} outside (-pi/2, pi] for the segment form")
        t = admit_angles(theta, 0.0, 0.5 * PI, "[0, pi/2]")
        vals = g_func(t, beta) * np.cos(t + 0.5 * gamma) + alpha * math.cos(0.5 * gamma)
    elif kind == "parabola":
        if beta <= PI:
            raise ValueError("parabola form needs a reflex opening beta > pi")
        hi = min(beta - 0.5 * PI, 1.5 * PI - gamma)
        t = admit_angles(theta, 0.5 * PI, hi, "[pi/2, min(beta - pi/2, 3pi/2 - gamma)]")
        sol = solve_c_beta(beta)
        vals = f_func(t, sol) * np.cos(t + gamma) + alpha * (1.0 + np.sin(t + gamma))
    elif kind == "two_sided":
        if not 0.5 * PI - 1e-12 <= gamma <= PI + 1e-12:
            raise ValueError(f"gamma={gamma} outside [pi/2, pi] for the two-sided form")
        t = admit_angles(theta, 0.0, 0.5 * PI, "[0, pi/2]")
        t1 = np.array([theta1_two_sided(x, gamma) for x in t])
        vals = (
            g_func(t, beta) * np.cos(t + 0.5 * gamma)
            + g_func(t1, beta) * np.cos(t1 - 0.5 * gamma)
        )
    else:  # gamma3
        if beta <= PI:
            raise ValueError("halfline form needs a reflex opening beta > pi")
        if not 0.5 * PI - 1e-12 <= gamma <= PI + 1e-12:
            raise ValueError(f"gamma={gamma} outside [pi/2, pi] for the halfline form")
        if beta + gamma >= 2.0 * PI:
            raise ValueError("halfline segment exists only when beta + gamma < 2pi")
        hi = 0.5 * (beta + PI - gamma) - 1e-9
        t = admit_angles(theta, beta - 0.5 * PI, hi, "[beta - pi/2, (beta + pi - gamma)/2 - 1e-9]")
        sol = solve_c_beta(beta)
        t1 = np.array([theta1_gamma3(x, beta, gamma) for x in t])
        vals = (
            f_func(t, sol) * np.sin(0.5 * (beta - gamma) - t)
            + f_func(t1, sol) * np.sin(0.5 * (beta + gamma) - t1)
        )
    return list(zip(theta.tolist(), vals.tolist()))
