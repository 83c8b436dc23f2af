"""Grid-based variational estimators for Hardy constants.

The estimate is the smallest eigenvalue of a pencil (A, M): A the
Dirichlet energy and M the Hardy weight's mass over the unknowns of a
grid, found by shift-invert Lanczos (scipy's eigsh) with a sparse LU of
A, so every solve is exact up to rounding.  Two kinds of grid provide the
pencil, and a polygon stacks one of each.

Sector pencils, for sectors and the strip proxy.  Conforming bilinear (Q1)
elements on a tensor grid with one uniform and one geometrically graded
axis: log-polar for a sector (t = log r uniform, the angle graded toward
both edges; the energy is conformally invariant and the weight becomes
r^2/d^2), Cartesian for the strip (x uniform, y graded toward the bottom
side).  A is assembled exactly; M is the consistent Q1 mass against the
weight, integrated by a Gauss rule.  A Q1 function that vanishes on the
boundary is admissible in the Hardy quotient, so by Rayleigh-Ritz the
discrete minimum is an upper estimate of the constant.  The weight
depends on the graded axis alone (the infinite sector's r^2/d^2 on the
angle, the strip's on y), so the lowest sine mode of the uniform axis
separates exactly, and the grid is that mode's 1-D pencil along the
graded axis.  The 2-D tensor grid itself, solved by a sine transform along
the uniform axis and one tridiagonal system per mode, stays as the
pencils' reference in the tests.

Minimizing sequences of Hardy quotients spread over exponentially many
length scales, and the excess of a grid's minimum is set by how many
decades it resolves.  A graded axis resolves a number of decades that grows
linearly with n, so these estimates approach the constant algebraically
in n.

Cartesian lattices, for polygons, two-halfline domains and mixed
Dirichlet-Neumann sectors: the 5-point finite-difference energy on a
square lattice against nodal weights 1/dist^2, assembled from one inside
test per node and restricted to its largest connected component.  Each
domain describes the Dirichlet part of its boundary once, as wall
segments given by their endpoints: a polygon its edges, a polar graph its
two rays from the origin.  The walls give the nodal distance dist, a
polygon's inside test reads them as its edges, and every link is decided
by one exact rule: its first crossing with a wall, found for the links of
all four directions in one call.  Each link is decided open or closed
once, at its lower end, and written by the Q1 grids' symmetric stencil
writer.  The LU is SuperLU's, with minimum degree ordering on A^T + A,
whose pattern is symmetric.  The lattice's mesh width is uniform, so it
resolves only about log10(n) decades and converges like 1/log^2(1/h); on
a few hundred nodes per side the estimate sits a few tenths above the
constant.

A polygon whose widest interior angle beta exceeds pi gets the sector
pencil of opening beta stacked after its lattice: one block-diagonal
pencil with one LU, whose smallest eigenvalue is the smaller of the two
parts'.  That pencil bounds the polygon's constant from above (see
build_grid) and resolves the corner's decades, which the lattice does
not: on the n = 256 L-shape it reads 0.25464 where the lattice alone
reads 0.33135, against the constant 1/4, in every position and
orientation of the L-shape.  For two-halfline and mixed domains, and for
polygons whose lattice attains the minimum, the validator is a
consistency check (estimates stay above certified constants and shrink
toward them), not a precision instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dst
from scipy.sparse.csgraph import connected_components

from .certify import Dbeta, DomainSpec, Ebg, OneReflexPolygon, Sector, SectorCapConvex
from .certify import dbeta_samples, ebg_angles, interior_angles, polygon_vertices
from .hardycore import admit_opening

__all__ = [
    "GridProblem",
    "RayleighEstimate",
    "NumericalError",
    "build_grid",
    "strip_proxy",
    "estimate_constant",
]

PI = math.pi

_MIN_INTERIOR_NODES = 100
_ARC_SAMPLES = 256
# Largest truncation radius of a two-halfline domain.  The lattice squares
# coordinate differences of up to twice the radius (the arc's r^2, the
# segment distance's projections), which overflow past about 6.7e153; this
# keeps three decades clear of that.
_MAX_RADIUS = 1e150

# Lanczos vectors of the eigen-solve, most of its added peak memory.
# Lattices and 1-D pencils converge in 14-26 solves with 8, and 16 vectors
# would force at least 18.
_NCV = 8


class NumericalError(RuntimeError):
    """A factorization or solve of the grid's energy failed, the eigen-solve did not
    converge, or its estimate lies below what the domain's constant can be."""


@dataclass(frozen=True)
class Patch:
    """The sector pencil of a polygon's widest corner, stacked after its lattice.

    vertex is that corner, in the polygon's own coordinates, and beta its
    interior angle, the pencil's opening; the pencil's size unknowns are
    the grid's last.
    """

    vertex: tuple
    beta: float
    size: int


@dataclass
class GridProblem:
    """Assembled discrete Hardy quotient on a grid of nodes.

    kind names the discretization: "log-polar" (sector pencil), "graded"
    (Cartesian tensor grid with a graded y axis, or the strip's pencil) or
    "lattice" (uniform square lattice).  xs and ys are the node positions
    along the two grid axes, boundary nodes included: x and y, or t = log r
    and the angle.  On a 2-D grid mask marks the unknowns on the xs-by-ys
    lattice, numbered in the order of np.nonzero(mask).  A pencil keeps only
    the lowest sine mode along the uniform axis xs: its unknowns are that
    mode's values at the interior nodes of ys, and mask is one-dimensional
    over ys.  dist holds each unknown's distance to the weighted boundary
    part (all of the boundary, or the Dirichlet part only for mixed
    problems; at r = 1 on a sector).  matrix is the Dirichlet energy and
    mass the weighted mass over the unknowns, so the estimate is the
    smallest eigenvalue of the pencil (matrix, mass); solve(rhs) applies the
    inverse of matrix and start is the eigen-solve's start vector.  h is
    the smallest mesh width in the domain's own length units (at r = 1 on a
    sector).  radius is the truncation radius of a two-halfline domain,
    None otherwise.  dropped counts the unknowns a lattice left out because
    no open link joins them to its largest component (0 on other grids).
    A polygon's patch, when it has one, is a sector pencil stacked after
    the lattice: its unknowns follow the lattice's in dist, matrix, mass
    and start, while xs, ys, mask, h and dropped describe the lattice
    alone.
    """

    xs: np.ndarray
    ys: np.ndarray
    kind: str
    h: float
    mask: np.ndarray
    dist: np.ndarray
    matrix: sp.csr_matrix
    mass: sp.csr_matrix
    solve: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    radius: Optional[float] = None
    dropped: int = 0
    patch: Optional[Patch] = None

    @property
    def interior_count(self) -> int:
        return len(self.dist)

    def part(self, x: np.ndarray) -> str:
        """The part that holds most of the vector x in the mass norm: "patch", or the grid's kind."""
        if self.patch is None:
            return self.kind
        share = x * (self.mass @ x)  # the parts' blocks do not couple
        k = len(x) - self.patch.size
        return "patch" if share[k:].sum() > share[:k].sum() else self.kind


@dataclass(frozen=True)
class RayleighEstimate:
    """Smallest generalized eigenvalue of (A, M), how well it is known and the work it took.

    lam is the Rayleigh quotient of the returned vector.  residual_bound is
    the relative Krylov-Weinstein bound eta: some eigenvalue of the pencil
    lies in [lam/(1 + eta), lam/(1 - eta)].  iterations counts the linear
    solves, the one that measures eta included; h is the grid's smallest
    mesh width.
    """

    lam: float
    residual_bound: float
    iterations: int
    h: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "residual_bound": self.residual_bound,
            "iterations": self.iterations,
            "h": self.h,
        }


# ---------------------------------------------------------------------------
# Geometry helpers.

def _segment_distance(px, py, ax, ay, vx, vy, ll):
    """Distance from points p to segments a to a + v, entry by entry over broadcast arrays.

    ll is the squared length vx * vx + vy * vy, with 1 where that is 0, so
    a zero-length segment gets t = 0 and the distance |p - a| exactly.
    (Where ll underflows to 0 from a nonzero v, |v| < 1e-161 bounds t v.)
    """
    dx, dy = px - ax, py - ay
    t = np.clip((dx * vx + dy * vy) / ll, 0.0, 1.0)
    return np.hypot(dx - t * vx, dy - t * vy)


# Pairs per chunk of _points_in_polygon, _wall_distance and _wall_cut: a few
# work arrays of this many values each.
_PAIR_CHUNK = 1 << 13
# Points per tile of _wall_distance.  64 measured fastest of 24 to 128 on
# the Ebg(1.5pi, 1.5pi) lattice and the 2,000-vertex notched disk at n = 128
# (x86-64, one BLAS thread).
_TILE_POINTS = 64
# Most walls _wall_distance measures every point against directly, without
# tiles: binning the points costs more than a tile's bound saves against a
# few walls (a dbeta domain has two).  Direct was faster up to 8 walls at
# 4,000 to 60,000 points, and tiles from 12 walls (x86-64, one BLAS thread).
_DIRECT_WALLS = 8


def _ragged_pairs(counts: np.ndarray):
    """Offsets 0 .. counts[g] - 1 of every group g in turn, as (group, offset) arrays per chunk."""
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, _PAIR_CHUNK):
        e = min(s + _PAIR_CHUNK, total)
        g0, g1 = np.searchsorted(ends, [s, e - 1], "right")
        span = np.minimum(ends[g0 : g1 + 1], e) - np.maximum(begins[g0 : g1 + 1], s)
        g = np.repeat(np.arange(g0, g1 + 1), span)
        yield g, np.arange(s, e) - begins[g]


def _tiles(x, y):
    """Bin finite points into square tiles of about _TILE_POINTS points each.

    Returns (order, first, lo, hi): tile k holds the points
    order[first[k]:first[k + 1]], and lo[k], hi[k] are their least and
    greatest (x, y).
    """
    x0, y0 = x.min(), y.min()
    width = max(x.max() - x0, y.max() - y0) * math.sqrt(_TILE_POINTS / len(x)) or 1.0
    rows = int((y.max() - y0) / width) + 1
    cell = ((x - x0) / width).astype(np.intp) * rows + ((y - y0) / width).astype(np.intp)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    points = np.column_stack([x[order], y[order]])
    return order, first, np.minimum.reduceat(points, first), np.maximum.reduceat(points, first)


def _wall_distance(px, py, walls):
    """Distance from finite points to the nearest of the walls (ax, ay, bx, by).

    With at most _DIRECT_WALLS walls every point is measured against each
    wall.  With more, each point meets only the walls that can be nearest
    to it.  The points are binned into square tiles of about _TILE_POINTS
    each.  A point p of a tile lies within the tile's half diagonal r of
    its centre c, so by the triangle inequality a wall w is at least
    d(c, w) - |p - c| from p, and p's distance is at most the nearest
    centre distance plus r.  A tile's candidates are the walls within that
    nearest centre distance plus 2r of c, sorted by d(c, w), and closed by
    an infinite one.  Each point meets its tile's candidates in that order,
    all open points one rank at a time, and stops at the first candidate
    whose d(c, w) - |p - c| exceeds its best distance so far: that wall and
    every later one lie farther than the best.  Both tests carry a
    relative and an absolute slack far above rounding.  So each point's
    value is the minimum of _segment_distance over a set of walls that
    holds its nearest one, which is the minimum over all walls, bit for
    bit.  Each wall's terms (a, v = b - a and the guarded squared length)
    are computed once per call and gathered per pair: the same
    expressions, so the same bits.  Besides the candidate lists, every
    work array holds one value per point or a chunk of _PAIR_CHUNK values.
    """
    ax, ay, bx, by = walls
    px, py = np.broadcast_arrays(px, py)
    x, y = px.ravel(), py.ravel()
    dist = np.full(len(x), np.inf)
    if len(ax) == 0 or len(x) == 0:
        return dist.reshape(px.shape)
    vx, vy = bx - ax, by - ay
    ll = vx * vx + vy * vy
    terms = (ax, ay, vx, vy, np.where(ll == 0.0, 1.0, ll))
    if len(ax) <= _DIRECT_WALLS:
        for wall in zip(*terms):
            np.minimum(dist, _segment_distance(x, y, *wall), out=dist)
        return dist.reshape(px.shape)
    order, first, box_lo, box_hi = _tiles(x, y)
    centre = 0.5 * (box_lo + box_hi)
    reach = 0.5 * np.hypot(*(box_hi - box_lo).T)
    slack = 1e-9 * max(np.abs(walls).max(), np.abs(box_lo).max(), np.abs(box_hi).max())
    # each tile's candidates in order of distance from its centre, closed
    # by an infinite one, a few tiles at a time (wall numbers as int32, to
    # save memory)
    segs, near, count = [], [], []
    step = max(1, _PAIR_CHUNK // len(ax))
    for t0 in range(0, len(first), step):
        c = centre[t0 : t0 + step, :, None]
        d = _segment_distance(c[:, 0], c[:, 1], *terms)
        cap = (d.min(axis=1) + 2.0 * reach[t0 : t0 + step]) * (1.0 + 1e-9) + slack
        t, s = np.nonzero(d <= cap[:, None])
        end = np.arange(len(cap))
        t, s, d = np.r_[t, end], np.r_[s, np.zeros_like(end)], np.r_[d[t, s], np.full(len(cap), np.inf)]
        rank = np.lexsort((d, t))
        segs.append(s[rank].astype(np.int32))
        near.append(d[rank])
        count.append(np.bincount(t, minlength=len(cap)))
    segs, near, count = (np.concatenate(v) for v in (segs, near, count))
    # the points in tile order: their numbers, coordinates, places in their
    # tile's list, distances from its centre with the slack, and best
    # distances so far.  Each rank moves the open ones to the front in place:
    # fresh arrays every rank left a 200,000-node validate's peak RSS 6 MB
    # higher
    size = np.diff(np.r_[first, len(x)])
    pos = np.repeat(np.cumsum(count) - count, size)
    k, xo, yo = order, x[order], y[order]
    lim = np.hypot(*(np.column_stack([xo, yo]) - np.repeat(centre, size, axis=0)).T)
    lim = lim * (1.0 + 1e-9) + slack
    best = np.full(len(x), np.inf)
    n = len(x)
    while n:
        s = segs[pos[:n]].astype(np.intp)
        for a in range(0, n, _PAIR_CHUNK):
            b = slice(a, min(a + _PAIR_CHUNK, n))
            d = _segment_distance(xo[b], yo[b], *(term[s[b]] for term in terms))
            np.minimum(best[b], d, out=best[b])
        dist[k[:n]] = best[:n]
        pos[:n] += 1
        j = np.flatnonzero(near[pos[:n]] <= best[:n] * (1.0 + 1e-9) + lim[:n])
        n = len(j)
        for v in (k, xo, yo, pos, lim, best):
            v[:n] = v[j]
    return dist.reshape(px.shape)


def _points_in_polygon(px, py, walls):
    """Even-odd rule over a closed polygon's edge walls (ax, ay, bx, by).

    A non-horizontal edge a-b can cross the rightward ray of a point only if
    min(ya, yb) <= y < max(ya, yb); horizontal edges cross nothing.  With
    the points sorted by y, each edge's band is one index range found by two
    binary searches, the crossing test runs on the (edge, point) pairs of
    the bands alone, and a point is inside when its crossings are odd.
    """
    slanted = walls[1] != walls[3]
    xa, ya, xb, yb = (w[slanted] for w in walls)
    px, py = np.broadcast_arrays(px, py)
    x, y = px.ravel(), py.ravel()
    order = np.argsort(y)
    start, stop = np.searchsorted(y[order], [np.minimum(ya, yb), np.maximum(ya, yb)], "left")
    run, rise = xb - xa, yb - ya
    inside = np.zeros(len(y), dtype=bool)
    for e, off in _ragged_pairs(stop - start):
        j = order[start[e] + off]
        xint = xa[e] + (y[j] - ya[e]) * run[e] / rise[e]
        np.logical_xor.at(inside, j[x[j] < xint], True)
    return inside.reshape(px.shape)


def _edge_walls(verts: np.ndarray):
    """The edges of a closed polygon as walls: start x and y, end x and y."""
    b = np.roll(verts, -1, axis=0)
    return verts[:, 0], verts[:, 1], b[:, 0], b[:, 1]


def _wall_cut(ax, ay, bx, by, walls):
    """Fraction along each link a -> b where it first meets a wall; inf where it meets none.

    Wall k runs from (wx, wy) to (ex, ey) in walls = (wx, wy, ex, ey): the
    closed segment w + t u, 0 <= t <= length, for its unit direction u.  A
    link meets a wall where a lies strictly on one side of the wall's line
    and b on the other side or on the line, at a point with t in
    [0, length].  The cross products c_a and c_b of u with a - w and b - w
    place the ends, and the fraction is c_a / (c_a - c_b): exactly 1 where b
    lies on the line, from either side.  A link that starts on a wall's line
    (run along it, or leave it at a) does not meet that wall; the lattice's
    links start at unknowns, which lie off every wall.  Each wall meets only
    the links whose start's x lies within twice the links' widest x extent
    of its own x range: the links are sorted by that x, each wall's band is
    one index range, and the pairs of the bands run _PAIR_CHUNK at a time.
    The test is pointwise, so each link gets the fraction a loop over every
    wall would give.
    """
    wx, wy, ex, ey = walls
    vx, vy = ex - wx, ey - wy
    length = np.hypot(vx, vy)
    ux, uy = vx / length, vy / length
    s = np.full(len(ax), np.inf)
    if len(ax) == 0:
        return s
    reach = 2.0 * np.max(np.abs(bx - ax))
    order = np.argsort(ax)
    start, stop = np.searchsorted(
        ax[order], [np.minimum(wx, ex) - reach, np.maximum(wx, ex) + reach]
    )
    for w, off in _ragged_pairs(stop - start):
        j = order[start[w] + off]
        c_a = ux[w] * (ay[j] - wy[w]) - uy[w] * (ax[j] - wx[w])
        c_b = ux[w] * (by[j] - wy[w]) - uy[w] * (bx[j] - wx[w])
        hit = (c_a > 0.0) & (c_b <= 0.0) | (c_a < 0.0) & (c_b >= 0.0)
        w, j, c_a = w[hit], j[hit], c_a[hit]
        frac = c_a / (c_a - c_b[hit])
        x = ax[j] + frac * (bx[j] - ax[j])
        y = ay[j] + frac * (by[j] - ay[j])
        t = (x - wx[w]) * ux[w] + (y - wy[w]) * uy[w]
        on = (t >= 0.0) & (t <= length[w])
        np.minimum.at(s, j[on], frac[on])
    return s


# ---------------------------------------------------------------------------
# Core assembly.

def _factor(matrix: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Solve with a sparse LU of the energy matrix; NumericalError if it fails.

    The energy is CSR and exactly symmetric, so its transpose, a CSC view
    of the same arrays, is the matrix itself in the format SuperLU takes,
    without the copy tocsc() makes.
    """
    try:
        # relax=1 and panel_size=1 keep SuperLU from reallocating its
        # supernode workspace: with the defaults the factorization peaks
        # 4.6 MB higher on the Ebg(1.5pi, 1.5pi) lattice at n = 128
        lu = spla.splu(matrix.T, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc
    return lu.solve


def _check_resolution(count: int) -> None:
    if count < _MIN_INTERIOR_NODES:
        raise ValueError(
            f"only {count} interior nodes; raise the resolution (need >= {_MIN_INTERIOR_NODES})"
        )


def _assemble(
    inside: Callable,
    walls: tuple,
    cx: float,
    cy: float,
    half: float,
    n: int,
    neumann: bool = False,
) -> GridProblem:
    """Build mask, weights and the 5-point energy on an n-by-n lattice.

    The lattice spans the square of centre (cx, cy) and half-side half.
    inside takes vectorized coordinates and classifies each node once.
    walls are the segments (ax, ay, bx, by) of the weighted boundary part,
    the Dirichlet part: _wall_distance measures the inside nodes' distance
    to them, the nodal distance of the weight, and the unknowns are the
    inside nodes at least h/2 from them.  When neumann is set, the rest of
    the boundary is a Neumann part.

    Every link is decided by one rule: its first crossing with a wall,
    found by _wall_cut from the link's start to its neighbour's own node
    coordinates.  Only a link whose start lies within h of a wall can meet
    one, and the nodal distance is that distance, so only those links are
    tested, all four directions in one call.  A link is open when both ends
    are unknowns and it meets no wall, as its lower end decides: the forward
    passes (1, 0) and (0, 1) store the decision in a band that the backward
    passes read, and _stencil_csr writes each link once from those bands,
    so the energy is symmetric.  A closed link is a Dirichlet half-link
    with the wall at fraction s of it, s = 1 where it meets no wall, except
    on a Neumann domain: there a closed link to an outside node that meets
    no wall leaves through the Neumann part and is dropped entirely.  The
    diagonal adds the directions' terms in loop order, which sets its
    summation order.

    Dirichlet half-links carry the cut-link correction: the diagonal
    contribution is 1/s instead of 1.  Without it a wall passing mid-link
    is penalized as if it were a full mesh width away while the nodal
    weight uses the true distance, and the quotient can dip below the
    Hardy constant; with it the discrete energy matches the linear
    interpolant cut at the wall and the estimate stays an upper one.

    Splinters, unknowns that no chain of open links joins to the rest, are
    dropped by restricting the assembly to its largest connected component.
    Of components that tie for largest, the lowest label wins; labels
    follow each component's first unknown in np.nonzero order.  A dropped
    unknown shares no open link with a kept one, so every kept row is the
    one an assembly without the splinters would build.  The grid records
    how many unknowns were dropped.  Its solve is left to _factored.
    """
    xs = np.linspace(cx - half, cx + half, n)
    ys = np.linspace(cy - half, cy + half, n)
    h = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    node_in = np.zeros((n + 2, n + 2), dtype=bool)
    node_in[1:-1, 1:-1] = inside(gx, gy)
    mask = node_in[1:-1, 1:-1].copy()
    dist = _wall_distance(gx[mask], gy[mask], walls)
    # keep the nodal weight bounded: unknowns sit at least h/2 from the
    # weighted boundary part
    far = dist >= 0.5 * h * (1.0 - 1e-9)
    mask[mask] = far
    dist = dist[far]
    count = len(dist)
    _check_resolution(count)
    unknown = np.pad(mask, 1)
    # padded bands: the diagonal, and -1 (0) where a forward link is open (closed)
    bands = {offset: np.zeros((n + 2, n + 2)) for offset in ((0, 0), (1, 0), (0, 1))}
    i, j = np.nonzero(mask)
    # node coordinates, one step past the lattice on each side
    xp, yp = (np.r_[v[0] - h, v, v[-1] + h] for v in (xs, ys))
    units = ((1, 0), (-1, 0), (0, 1), (0, -1))
    # s, each link's wall fraction (a row per direction), inf where it meets none
    s = np.full((4, count), np.inf)
    near = np.flatnonzero(dist <= h * (1.0 + 1e-9))
    s[:, near] = _wall_cut(
        np.tile(xs[i[near]], 4),
        np.tile(ys[j[near]], 4),
        np.concatenate([xp[1 + dx + i[near]] for dx, dy in units]),
        np.concatenate([yp[1 + dy + j[near]] for dx, dy in units]),
        walls,
    ).reshape(4, -1)
    blocked = np.isfinite(s)
    closed, neumann_link = np.zeros((2, 4, count), dtype=bool)
    for k, (dx, dy) in enumerate(units):
        at = (slice(1 + dx, n + 1 + dx), slice(1 + dy, n + 1 + dy))
        if (dx, dy) in bands:  # the lower end decides the link
            closed[k] = ~unknown[at][mask] | blocked[k]
            bands[dx, dy][1:-1, 1:-1][mask] = np.where(closed[k], 0.0, -1.0)
        else:  # and the upper end reads its decision
            closed[k] = bands[-dx, -dy][at][mask] == 0.0
        if neumann:
            neumann_link[k] = closed[k] & ~blocked[k] & ~node_in[at][mask]
    # each link's term, in place of s: 1/s on a Dirichlet link (at most 2,
    # since unknowns sit at least h/2 from every wall), 0 on a Neumann link
    # and 1 on an open one
    s[~blocked] = 1.0
    np.divide(1.0, s, out=s)
    np.copyto(s, ~neumann_link, where=~closed | neumann_link)
    diag = bands[0, 0][1:-1, 1:-1]
    for term in s:  # in loop order, which sets the diagonal's summation order
        diag[mask] += term
    matrix = _stencil_csr({o: band[1:-1, 1:-1] for o, band in bands.items()}, mask)
    matrix *= 1.0 / (h * h)
    matrix.eliminate_zeros()  # closed links between unknowns; csgraph counts stored zeros
    ncomp, labels = connected_components(matrix, directed=False)
    dropped = 0
    if ncomp > 1:  # drop the splinters
        largest = labels == np.argmax(np.bincount(labels))
        dropped = count - int(largest.sum())
        _check_resolution(count - dropped)
        matrix = matrix[largest][:, largest]
        mask[mask] = largest
        dist = dist[largest]
    return GridProblem(
        xs=xs,
        ys=ys,
        kind="lattice",
        h=h,
        mask=mask,
        dist=dist,
        matrix=matrix,
        mass=sp.diags(1.0 / dist**2, format="csr"),
        solve=None,
        start=dist,
        dropped=dropped,
    )


def _factored(grid: GridProblem) -> GridProblem:
    """grid with its energy factored by _factor.  build_grid factors last,
    once the assembly's work arrays (node grids, flags and link bands) are
    freed."""
    grid.solve = _factor(grid.matrix)
    return grid


# ---------------------------------------------------------------------------
# Boundary-fitted tensor grids.

def _gauss(points: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return 0.5 * (nodes + 1.0), 0.5 * weights


# Gauss points per element: few along the uniform axis, more along the
# graded one, whose elements span a factor of up to a few in the distance
# to the boundary.
_GAUSS_UNIFORM = 3
_GAUSS_GRADED = 6

# Elements per decade resolved: a graded half of e elements reaches
# e / _GRADED_ELEMENTS_PER_DECADE decades below its length (fewer where
# floating point runs out), and a sector's radial axis of n elements spans
# n / _RADIAL_ELEMENTS_PER_DECADE decades of radius.  Both are fixed, so
# refinement in n adds decades and resolution together.
_GRADED_ELEMENTS_PER_DECADE = 16.0 / 3.0
_RADIAL_ELEMENTS_PER_DECADE = 16.0


def _graded_offsets(length: float, scale: float, elements: int) -> np.ndarray:
    """Offsets from its line of the nodes of a half graded toward that line.

    The offsets grow geometrically to length over `elements` elements; the
    first element is elements/_GRADED_ELEMENTS_PER_DECADE decades shorter
    than length, or as many as floating point resolves at coordinates of
    magnitude `scale` with a thousand units in the last place to spare.
    """
    if elements < 2:
        raise ValueError("too few elements to grade; raise the resolution")
    spare = 1e3 * np.spacing(scale)
    decades = min(
        elements / _GRADED_ELEMENTS_PER_DECADE, math.log10(length) - math.log10(spare)
    )
    k = np.arange(1, elements + 1)
    return length * 10.0 ** (-decades * (elements - k) / (elements - 1))


def _graded_axis(lines: np.ndarray, elements: int) -> np.ndarray:
    """Nodes through the sorted lines, graded geometrically toward each one.

    Every gap between neighbouring lines is split at its midpoint into two
    mirror-image halves of `elements` elements each, each graded toward its
    own line.
    """
    nodes = [lines[:1]]
    for a, b in zip(lines[:-1], lines[1:]):
        offsets = _graded_offsets(0.5 * (b - a), max(abs(a), abs(b)), elements)
        nodes += [a + offsets, (b - offsets)[-2::-1], [b]]
    return np.concatenate(nodes)


def _q1_line(spacing: np.ndarray):
    """1-D linear-element stiffness and mass over the interior nodes.

    Returns (stiffness diagonal, stiffness off-diagonal, mass diagonal,
    mass off-diagonal) for nodes whose consecutive spacings are given.
    """
    inv = 1.0 / spacing
    return (
        inv[:-1] + inv[1:],
        -inv[1:-1],
        (spacing[:-1] + spacing[1:]) / 3.0,
        spacing[1:-1] / 6.0,
    )


def _stencil_csr(bands: dict, keep: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR matrix over the kept nodes of a P-by-Q lattice.

    bands maps the diagonal offset (0, 0) and each forward offset (di, dj)
    (di > 0, or di = 0 and dj > 0) to a P-by-Q array: the entry coupling
    node (i, j) with (i + di, j + dj).  The stencil is these offsets and
    their mirrors; sorted, they run in increasing column order.  An offset
    links the kept nodes whose neighbour along it is kept too.  A shift
    keeps the row-major order of nodes, so the forward band read at the
    lower ends of its links, in that order, is also the backward entries
    at the upper ends in theirs: each link's number is read once for both
    of its entries, and the matrix is exactly symmetric.  Entries, zeros
    between kept nodes included, are written straight into the final
    arrays one offset at a time, which keeps the work memory to a few
    vectors of one value per kept node.
    """
    p, q = keep.shape
    count = int(keep.sum())
    index = np.full((p + 2, q + 2), -1, dtype=np.int32)
    index[1:-1, 1:-1][keep] = np.arange(count, dtype=np.int32)
    kept = np.pad(keep, 1)
    stencil = sorted(set(bands) | {(-di, -dj) for di, dj in bands})

    def shifted(grid, di, dj):  # grid's value at each node's neighbour (i + di, j + dj)
        return grid[1 + di : p + 1 + di, 1 + dj : q + 1 + dj]

    indptr = np.zeros(count + 1, dtype=np.int32)
    for di, dj in stencil:
        indptr[1:] += shifted(kept, di, dj)[keep]
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    slot = indptr[:-1].copy()  # next free position in each row
    for di, dj in stencil:  # increasing columns, so rows come out sorted
        linked = shifted(kept, di, dj)
        rows = linked[keep]
        at = slot[rows]
        forward = (di, dj) if (di, dj) in bands else (-di, -dj)
        data[at] = bands[forward][keep & shifted(kept, *forward)]
        indices[at] = shifted(index, di, dj)[keep & linked]
        slot += rows
    return sp.csr_matrix((data, indices, indptr), shape=(count, count))


def _mass_bands(xs: np.ndarray, ys: np.ndarray, weight: Callable, elem_in: np.ndarray) -> dict:
    """Forward bands of the consistent Q1 mass against weight(u, v).

    Integrates by a tensor Gauss rule per element.  One quadrature point at
    a time, the weighted element measure is added into the node bands with
    the products of the four bilinear shape functions there.  The measure
    goes into one buffer, zero on the elements outside the domain, which
    contribute nothing, and each band's terms are summed into two work
    arrays in the order of the written sum, so the work memory stays three
    arrays of one value per element or node, allocated once.
    """
    hx = xs[1] - xs[0]
    dy = np.diff(ys)
    shape = (len(xs) - 2, len(ys) - 2)
    bands = {offset: np.zeros(shape) for offset in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))}
    w = np.zeros(elem_in.shape)  # weighted element measure; outside the domain it stays 0
    acc, term = np.empty(shape), np.empty(shape)
    # node (i, j) is corner 0 of element (i, j), 1 of (i-1, j), 2 of (i, j-1)
    # and 3 of (i-1, j-1)
    e00, e10, e01, e11 = w[1:, 1:], w[:-1, 1:], w[1:, :-1], w[:-1, :-1]
    for xi, wx in zip(*_gauss(_GAUSS_UNIFORM)):
        u = (xs[:-1] + xi * hx)[:, None]
        for eta, wy in zip(*_gauss(_GAUSS_GRADED)):
            v = (ys[:-1] + eta * dy)[None, :]
            np.multiply(weight(u, v), wx * wy * hx * dy, out=w, where=elem_in)
            # shape functions of the element corners (0,0), (1,0), (0,1), (1,1)
            f0, f1, f2, f3 = (1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta
            for offset, terms in (
                ((0, 0), ((f0 * f0, e00), (f1 * f1, e10), (f2 * f2, e01), (f3 * f3, e11))),
                ((0, 1), ((f0 * f2, e00), (f1 * f3, e10))),
                ((1, -1), ((f2 * f1, e01),)),
                ((1, 0), ((f0 * f1, e00), (f2 * f3, e01))),
                ((1, 1), ((f0 * f3, e00),)),
            ):
                (c, e), *rest = terms
                np.multiply(c, e, out=acc)
                for c, e in rest:  # left to right, as the sum reads
                    np.multiply(c, e, out=term)
                    acc += term
                bands[offset] += acc
    return bands


class _TensorSolver:
    """Exact solver for the Q1 energy on the box of all interior nodes of a
    tensor grid with a uniform first axis.

    The energy is Kx (x) My + Mx (x) Ky.  The orthonormal DST-I
    diagonalizes the uniform axis's Kx and Mx at once, which leaves one SPD
    tridiagonal system per sine mode along the graded axis.  The systems
    are stacked into one tridiagonal matrix, uncoupled between modes, and
    factored once by LAPACK (pttrf).
    """

    def __init__(self, hx: float, line_y, shape: tuple):
        p, q = shape
        ky_d, ky_o, my_d, my_o = line_y
        c = np.cos(PI * np.arange(1, p + 1) / (p + 1))
        stiff, mass = 2.0 * (1.0 - c) / hx, hx * (2.0 + c) / 3.0
        diag = np.outer(stiff, my_d) + np.outer(mass, ky_d)
        off = np.zeros((p, q))  # the last column separates consecutive modes
        off[:, :-1] = np.outer(stiff, my_o) + np.outer(mass, ky_o)
        self.diag, self.off, info = lapack.dpttrf(diag.ravel(), off.ravel()[:-1])
        if info != 0:
            raise NumericalError(f"tridiagonal factorization failed (info={info})")
        self.shape = (p, q)
        self.work = np.empty((p * q, 1))  # each solve's box vector, in and out of mode space

    def _dst(self, v: np.ndarray) -> np.ndarray:
        """Sine transform along the uniform axis of the P*Q values v, into v's storage."""
        p, q = self.shape
        return dst(v.reshape(p, q), type=1, axis=0, norm="ortho", overwrite_x=True).reshape(p * q, 1)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        # every step works in the solver's one buffer; only a copy of the result leaves it
        b = self.work
        b[:, 0] = rhs
        z, info = lapack.dpttrs(self.diag, self.off, self._dst(b), overwrite_b=True)
        if info != 0:
            raise NumericalError(f"tridiagonal solve failed (info={info})")
        return self._dst(z)[:, 0].copy()


def _tensor_grid(xs: np.ndarray, ys: np.ndarray, weight: Callable, dist: Callable) -> GridProblem:
    """Q1 pencil on all of the Cartesian tensor grid xs by ys (xs uniform).

    weight(x, y) is the Hardy weight and dist(x, y) the distance to the
    boundary, both elementwise: they are called with a column of x against
    a row of y.  Every interior node is an unknown.  The 1-D pencils are
    the lowest sine mode of such a grid, and the tests compare them with it.
    """
    shape = (len(xs) - 2, len(ys) - 2)
    keep = np.ones(shape, dtype=bool)
    _check_resolution(keep.size)
    hx = xs[1] - xs[0]
    dy = np.diff(ys)
    line_y = _q1_line(dy)
    elem_in = np.ones((len(xs) - 1, len(ys) - 1), dtype=bool)
    mass = _stencil_csr(_mass_bands(xs, ys, weight, elem_in), keep)
    ky_d, ky_o, my_d, my_o = line_y
    ky_o, my_o = np.append(ky_o, 0.0), np.append(my_o, 0.0)  # past the last node: unused

    def band(kx, mx, my, ky):
        return np.broadcast_to(kx * my + mx * ky, shape)

    stiff_0, stiff_1 = 2.0 / hx, -1.0 / hx
    mass_0, mass_1 = 2.0 * hx / 3.0, hx / 6.0
    matrix = _stencil_csr(
        {
            (0, 0): band(stiff_0, mass_0, my_d, ky_d),
            (0, 1): band(stiff_0, mass_0, my_o, ky_o),
            # row j couples to j - 1 here: the link below, shifted up one
            (1, -1): band(stiff_1, mass_1, np.roll(my_o, 1), np.roll(ky_o, 1)),
            (1, 0): band(stiff_1, mass_1, my_d, ky_d),
            (1, 1): band(stiff_1, mass_1, my_o, ky_o),
        },
        keep,
    )
    mask = np.zeros((len(xs), len(ys)), dtype=bool)
    mask[1:-1, 1:-1] = True
    xb, yb = xs[1:-1, None], ys[None, 1:-1]
    mode = np.sin(PI * (xb - xs[0]) / (xs[-1] - xs[0]))
    return GridProblem(
        xs=xs,
        ys=ys,
        kind="graded",
        h=min(hx, float(dy.min())),
        mask=mask,
        dist=np.broadcast_to(dist(xb, yb), shape).ravel(),
        matrix=matrix,
        mass=mass,
        solve=_TensorSolver(hx, line_y, shape),
        # the distance profile (weight^-1/2) times the lowest sine mode of
        # the uniform axis, so the many near-degenerate modes along that
        # axis (wiggles where they cost little) start out nearly absent
        start=(weight(xb, yb) ** -0.5 * mode).ravel(),
    )


def _pencil(xs: np.ndarray, ys: np.ndarray, dist: Callable, h: float, kind: str) -> GridProblem:
    """1-D pencil of the Q1 tensor grid xs by ys, whose weight dist(y)^-2 depends on y alone.

    xs is uniform with m elements of width hx and Dirichlet ends.  On the
    tensor grid the energy is Kx (x) My + Mx (x) Ky and the mass Mx (x) Wy,
    and the sine modes of the uniform axis solve Kx v = mu_k Mx v with
    mu_k = 6(1 - cos(k pi/m)) / (hx^2 (2 + cos(k pi/m))), increasing in k.
    So the smallest eigenvalue of the 2-D pencil is that of the lowest
    mode's (Ky + mu_1 My, Wy) over the interior nodes of ys.  Wy is
    integrated by the same Gauss rule as the 2-D mass (_mass_bands).  The
    resolution check counts the unknowns of the 2-D grid.
    """
    m = len(xs) - 1
    _check_resolution((m - 1) * (len(ys) - 2))
    hx = xs[1] - xs[0]
    c = math.cos(PI / m)
    mu = 6.0 * (1.0 - c) / (hx * hx * (2.0 + c))
    dy = np.diff(ys)
    ky_d, ky_o, my_d, my_o = _q1_line(dy)
    w_d, w_o = np.zeros(len(ys)), np.zeros(len(dy))
    for eta, wy in zip(*_gauss(_GAUSS_GRADED)):
        w = dist(ys[:-1] + eta * dy) ** -2.0 * (wy * dy)
        w_d[:-1] += (1 - eta) * (1 - eta) * w
        w_d[1:] += eta * eta * w
        w_o += (1 - eta) * eta * w
    off = ky_o + mu * my_o
    matrix = sp.diags([off, ky_d + mu * my_d, off], [-1, 0, 1], format="csr")
    mass = sp.diags([w_o[1:-1], w_d[1:-1], w_o[1:-1]], [-1, 0, 1], format="csr")
    mask = np.zeros(len(ys), dtype=bool)
    mask[1:-1] = True
    d = dist(ys[1:-1])
    return GridProblem(
        xs=xs,
        ys=ys,
        kind=kind,
        h=h,
        mask=mask,
        dist=d,
        matrix=matrix,
        mass=mass,
        solve=None,
        start=d,
    )


def _edge_distance(theta, beta: float):
    """Distance at r = 1 to the edge rays of a sector of opening beta in [pi, 2pi].

    sin of the angle to the nearer edge, capped at pi/2, where the nearest
    boundary point is the vertex; this is potential_v ** -0.5 on arrays of
    angles theta in [0, beta].
    """
    return np.sin(np.minimum(np.minimum(theta, beta - theta), 0.5 * PI))


def _sector_pencil(beta: float, n: int) -> GridProblem:
    """The log-polar pencil of the infinite sector of admitted opening beta (see build_grid)."""
    ts = np.linspace(-n / _RADIAL_ELEMENTS_PER_DECADE * math.log(10.0), 0.0, n + 1)
    thetas = _graded_axis(np.array([0.0, beta]), n // 2)
    # innermost ring at r = 1: radial step or smallest arc step
    h = math.exp(ts[0]) * min(math.expm1(ts[1] - ts[0]), float(np.diff(thetas).min()))
    return _pencil(ts, thetas, lambda theta: _edge_distance(theta, beta), h, "log-polar")


# ---------------------------------------------------------------------------
# Domain-specific builders.

def _polygon_lattice(verts: np.ndarray, n: int) -> GridProblem:
    """Cartesian lattice of a polygon over its square bounding box (uniform spacing)."""
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    walls = _edge_walls(verts)
    return _assemble(
        lambda px, py: _points_in_polygon(px, py, walls),
        walls,
        0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * max(x1 - x0, y1 - y0), n,
    )


def _block_diagonal(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """The block-diagonal CSR matrix of a and b, written straight from their arrays.

    scipy's block_diag goes through COO copies, which left the n = 256
    L-shape's validate peak 0.5 MB higher.
    """
    return sp.csr_matrix(
        (
            np.concatenate([a.data, b.data]),
            np.concatenate([a.indices, b.indices + a.shape[1]]),
            np.concatenate([a.indptr, b.indptr[1:] + a.nnz]),
        ),
        shape=(a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
    )


def _polygon_grid(verts: np.ndarray, n: int) -> GridProblem:
    """A polygon's lattice, and the sector pencil of its widest corner when that is reflex.

    The two are stacked as one block-diagonal pencil, the lattice's
    unknowns first, so the pencil's smallest eigenvalue is the smaller of
    the two parts' (see build_grid).
    """
    grid = _polygon_lattice(verts, n)
    angles = interior_angles(verts)
    k = int(np.argmax(angles))
    beta = float(angles[k])
    if not beta > PI:
        return grid
    patch = _sector_pencil(beta, n)
    return replace(
        grid,
        dist=np.concatenate([grid.dist, patch.dist]),
        matrix=_block_diagonal(grid.matrix, patch.matrix),
        mass=_block_diagonal(grid.mass, patch.mass),
        start=np.concatenate([grid.start, patch.start]),
        patch=Patch(vertex=(float(verts[k, 0]), float(verts[k, 1])), beta=beta, size=patch.interior_count),
    )


def _ebg_polygon(beta: float, gamma: float, radius: float) -> np.ndarray:
    """Truncated two-halfline domain as a polygon, arc sampled densely.

    Built symmetrically about x = 1/2 when beta == gamma so symmetric
    inputs produce exactly mirror-symmetric lattices.
    """
    if beta >= 2.0 * PI - 1e-9 or gamma >= 2.0 * PI - 1e-9:
        raise ValueError("slit-degenerate two-halfline domain is not grid-buildable")
    o = np.array([0.0, 0.0])
    p = np.array([1.0, 0.0])
    m = np.array([0.5, 0.0])
    u = np.array([math.cos(beta), math.sin(beta)])  # halfline from the origin
    v = np.array([-math.cos(gamma), math.sin(gamma)])  # halfline from P

    def ray_hit(base, direction):
        w = base - m
        b = float(np.dot(direction, w))
        disc = b * b - (float(np.dot(w, w)) - radius * radius)
        return base + (-b + math.sqrt(disc)) * direction

    a3 = ray_hit(o, u)
    a1 = ray_hit(p, v)
    ang1 = math.atan2(a1[1] - m[1], a1[0] - m[0])
    ang3 = math.atan2(a3[1] - m[1], a3[0] - m[0])
    symmetric = abs(beta - gamma) < 1e-14
    if symmetric:
        # sample up to the top of the circle and mirror, so the polygon is
        # exactly symmetric about x = 1/2 in floating point
        half = np.linspace(ang1, 0.5 * PI, _ARC_SAMPLES // 2 + 1)[1:]
        pts_right = m + radius * np.column_stack([np.cos(half), np.sin(half)])
        pts_left = pts_right[:-1][::-1].copy()
        pts_left[:, 0] = 1.0 - pts_left[:, 0]  # exact mirror
        arc = np.vstack([pts_right, pts_left])
    else:
        while ang3 <= ang1 + 1e-12:
            ang3 += 2.0 * PI
        sweep = np.linspace(ang1, ang3, _ARC_SAMPLES + 1)[1:-1]
        arc = m + radius * np.column_stack([np.cos(sweep), np.sin(sweep)])
    return np.vstack([o, p, a1, arc, a3])


def _dbeta_functions(d: Dbeta):
    """Inside test, Dirichlet walls and largest radius of a polar graph domain.

    The domain is 0 < theta < beta, 0 < r < r(theta), with r interpolated
    linearly in angle between the samples.  Its Dirichlet part is the two
    segments from the origin to the graph along the angles 0 and beta, its
    walls; the graph itself is the Neumann part.
    """
    samples = dbeta_samples(d)
    thetas, rvals = samples[:, 0], samples[:, 1]
    beta = d.beta
    length = rvals[[0, -1]]
    ends = length * np.array([[1.0, math.cos(beta)], [0.0, math.sin(beta)]])
    walls = (np.zeros(2), np.zeros(2), ends[0], ends[1])

    def inside(px, py):
        r = np.hypot(px, py)
        ang = np.mod(np.arctan2(py, px), 2.0 * PI)
        return (ang > 0.0) & (ang < beta) & (r > 0.0) & (r < np.interp(ang, thetas, rvals))

    return inside, walls, float(np.max(rvals))


def build_grid(domain: DomainSpec, n: int, radius: Optional[float] = None) -> GridProblem:
    """Grid, weights and energy matrix for a domain description.

    n sets the resolution; every grid has at most n^2 unknowns.  Sectors
    get the 1-D pencil of a log-polar grid of n elements per axis: t = log r
    uniform over the n/16 decades below r = 1 with Dirichlet ends, the angle
    graded toward both edges, and the infinite sector's weight r^2/d^2 with
    no truncation arc, so lambda is a Rayleigh-Ritz upper estimate of
    c(beta) itself.  Polygons, two-halfline domains and mixed problems get
    the Cartesian lattice with n nodes per side of the square bounding box.

    A polygon whose widest interior angle beta exceeds pi also gets the
    sector pencil of opening beta, stacked after the lattice as one
    block-diagonal pencil (grid.patch names its vertex and opening).  That
    pencil bounds the polygon's constant from above at any scale: a simple
    polygon agrees with the sector S of a vertex v's two edge rays on some
    disc B(v, 2 rho), so on B(v, rho) its boundary distance is at most
    S's, and S's quotient does not change when its test functions are
    shrunk into B(v, rho) about v.  c(beta) falls as beta grows, so the
    widest corner's pencil is the sharpest.

    Two-halfline domains are truncated at `radius` (default 8 segment
    lengths) with Dirichlet conditions on the truncation arc, and the grid
    records the radius used.  That radius must exceed 1/2, so that the arc
    about the segment's midpoint encloses the segment, and be at most
    _MAX_RADIUS (1e150), so that the lattice's arithmetic stays finite; no
    other domain takes one (a sector is scale-invariant, the rest bounded).
    A polygon's vertices, a two-halfline domain's angles and a polar
    graph's samples pass certify's own input checks, polygon_vertices,
    ebg_angles and dbeta_samples.  ValueError otherwise.  Convex-cap
    descriptions carry no concrete cap geometry and cannot be gridded.
    """
    if radius is not None and not isinstance(domain, Ebg):
        raise ValueError(f"a truncation radius does not apply to a {type(domain).__name__} domain")
    if isinstance(domain, Sector):
        return _factored(_sector_pencil(admit_opening(domain.beta, "(pi"), n))
    if isinstance(domain, OneReflexPolygon):
        return _factored(_polygon_grid(polygon_vertices(domain), n))
    if isinstance(domain, Ebg):
        ebg_angles(domain)
        r = 8.0 if radius is None else float(radius)
        if not 0.5 < r <= _MAX_RADIUS:
            raise ValueError(
                f"truncation radius {r} must exceed 1/2 to enclose the unit segment"
                f" and be at most {_MAX_RADIUS:g}, the largest admitted"
            )
        grid = _factored(_polygon_lattice(_ebg_polygon(domain.beta, domain.gamma, r), n))
        grid.radius = r
        return grid
    if isinstance(domain, Dbeta):
        inside, walls, rmax = _dbeta_functions(domain)
        return _factored(_assemble(inside, walls, 0.0, 0.0, 1.01 * rmax, n, neumann=True))
    if isinstance(domain, SectorCapConvex):
        raise ValueError(
            "convex-cap descriptions have no concrete cap geometry; certify them instead"
        )
    raise TypeError(f"unknown domain description {type(domain).__name__}")


# Length of the strip proxy's rectangle; its height is 1.
_STRIP_LENGTH = 3.0


def strip_proxy(n: int) -> GridProblem:
    """Thin-rectangle proxy for the half-plane: weight measures the bottom side only.

    The rectangle is _STRIP_LENGTH x 1 with Dirichlet conditions on all four
    sides; only the distance to the bottom side, y, enters the weight.  x
    is uniform and y graded toward the bottom side, n elements each.  The
    weight depends on y alone, so the grid is the 1-D pencil of the lowest
    sine mode in x, with n - 1 unknowns along y.
    """
    xs = np.linspace(0.0, _STRIP_LENGTH, n + 1)
    ys = np.concatenate([[0.0], _graded_offsets(1.0, 0.0, n)])  # exact next to y = 0
    return _factored(_pencil(xs, ys, lambda y: y, min(xs[1], float(np.diff(ys).min())), "graded"))


# ---------------------------------------------------------------------------
# Pencil eigenvalue.

# Ritz residual tolerance of the Lanczos solve.  The grid's discretization
# excess over the constant is at least 1e-3, and the Rayleigh quotient's
# error is about the square of the vector's; every solve is exact, so 1e-6
# leaves lam good to about 1e-12.  On the n = 256 L-shape lam reads
# 0.2546405648559 in 26 solves, and 0.2546405648557 at 1e-10 (38 solves)
# or with 40 Lanczos vectors (42).
_LANCZOS_TOL = 1e-6


def estimate_constant(grid: GridProblem, return_vector: bool = False):
    """Smallest eigenvalue of the pencil (A, M) by shift-invert Lanczos (eigsh at shift 0).

    Runs on the grid's own solve of A from grid.start with _NCV Lanczos
    vectors, to a relative Ritz residual of _LANCZOS_TOL.  lam is the
    Rayleigh quotient of the returned vector x, an upper bound of the
    discrete minimum.  One more solve measures the residual
    r = Ax - lam Mx in the A^-1 norm, which gives the relative
    Krylov-Weinstein bound residual_bound = |r|_{A^-1} / |x|_A: some
    eigenvalue of the pencil lies in [lam/(1 + eta), lam/(1 - eta)]
    (Parlett, The Symmetric Eigenvalue Problem, ch. 10-11).  grid.solve is
    exact up to rounding on every grid, so Lanczos alone sets the bound:
    4.3e-7 on the n = 256 L-shape.  iterations counts every solve, this
    one included: 26 on that L-shape.  On a polygon with a patch the
    pencil is block diagonal, so lam is a mean of the two parts' quotients
    weighted by x's mass in each, and grid.part(x) names the part that
    holds x.  Deterministic for a fixed grid and BLAS thread count, so
    validate's documents are byte-stable for a fixed count; perfbench and
    the pinned tests use one thread.  The count moves residual_bound's
    printed digits and lam's last bits: on that L-shape eta is
    4.3200132738e-07 with one OpenBLAS thread and 4.32001326998e-07 with
    two, and on Ebg(1.5pi, 1.5pi) at n = 128 lam is 0.3488369293412507 and
    0.3488369293412509.
    """
    a, m = grid.matrix, grid.mass
    solves = 0

    def inverse(rhs):
        nonlocal solves
        solves += 1
        return grid.solve(rhs)

    op = spla.LinearOperator(a.shape, matvec=inverse, dtype=float)
    try:
        _, vectors = spla.eigsh(
            a, k=1, M=m, sigma=0.0, OPinv=op, v0=grid.start, ncv=_NCV, tol=_LANCZOS_TOL
        )
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"shift-invert Lanczos did not converge: {exc}") from exc
    x = vectors[:, 0]
    ax, mx = a @ x, m @ x
    energy = float(x @ ax)
    lam = energy / float(x @ mx)
    r = ax - lam * mx
    eta = math.sqrt(abs(float(r @ inverse(r))) / energy)
    est = RayleighEstimate(lam=lam, residual_bound=eta, iterations=solves, h=grid.h)
    return (est, x) if return_vector else est
