"""Grid-based variational estimators for Hardy constants.

The estimate is the smallest eigenvalue of a pencil (A, M): A the
Dirichlet energy and M the Hardy weight's mass over the unknowns of a
grid, found by shift-invert Lanczos (scipy's eigsh) with the grid's own
linear solver.  Two kinds of grid provide the pencil.

Boundary-fitted tensor grids, for sectors, polygons whose edges are all
horizontal or vertical, and the strip proxy.  Conforming bilinear (Q1)
elements on a tensor grid with one uniform and one geometrically graded
axis: log-polar for a sector (t = log r uniform, the angle graded toward
both edges; the energy is conformally invariant and the weight becomes
r^2/d^2), Cartesian otherwise (x uniform with every vertex on a node, y
graded toward every horizontal edge line).  A is assembled exactly; M is
the consistent Q1 mass against the weight, integrated by tensor Gauss
rules.  A Q1 function that vanishes on the boundary is admissible in the
Hardy quotient, so by Rayleigh-Ritz the discrete minimum is an upper
estimate of the constant.  Where the weight depends on the graded axis
alone (the infinite sector's r^2/d^2 on the angle, the strip's on y), the
lowest sine mode of the uniform axis separates exactly, and the grid is
that mode's 1-D pencil along the graded axis, factored by a sparse LU.  On
a polygon a sine transform along the uniform axis leaves one tridiagonal
system per mode along the graded one, and a polygon that does not fill its
bounding box adds a capacitance correction on the excluded nodes next to
it; both solves are exact.

Minimizing sequences of Hardy quotients spread over exponentially many
length scales, and the excess of a grid's minimum is set by how many
decades it resolves.  A graded axis resolves a number of decades that grows
linearly with n, so these estimates approach the constant algebraically
in n.

Cartesian lattices, for every other domain (slanted polygon edges,
two-halfline domains, mixed Dirichlet-Neumann sectors): the 5-point
finite-difference energy on a square lattice against nodal weights
1/dist^2, assembled from one inside test per node and restricted to its
largest connected component.  Each domain describes the Dirichlet part of
its boundary once, as wall segments given by their endpoints: a polygon
its edges, a polar graph its two rays from the origin.  The walls give
the nodal distance dist, a polygon's inside test reads them as its edges,
and every link is decided by one exact rule: its first crossing with a
wall, found for the links of all four directions in one call.  Each link
is decided open or closed once, at its lower end, and written by the Q1
grids' symmetric stencil writer.  The energy is factored once by a sparse
LU (SuperLU, minimum degree ordering on A^T + A, whose pattern is
symmetric), so every solve is exact up to rounding.  Its mesh width is
uniform, so it resolves only about log10(n) decades and converges like
1/log^2(1/h); on a few hundred nodes per side the estimate sits a few
tenths above the constant.  For these domains the validator is a
consistency check (estimates stay above certified constants and shrink
toward them), not a precision instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dst
from scipy.sparse.csgraph import connected_components

from .certify import Dbeta, DomainSpec, Ebg, OneReflexPolygon, Sector, SectorCapConvex
from .certify import dbeta_samples, ebg_angles, polygon_vertices
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

# Lanczos vectors of the eigen-solve, most of its added peak memory: on the
# n = 256 L-shape (48,641 unknowns) a tracemalloc peak of 8.2 MB at 8
# vectors and 134 solves, 14.4 MB at 16 and 82 solves (17.5 MB at 20 and
# 33.1 MB at 40, still 82).  Lattices and 1-D pencils keep _NCV: they
# converge in 14-22 solves, and 16 vectors would force at least 18.  The
# 2-D tensor grids keep _TENSOR_NCV (see _tensor_grid).
_NCV = 8
_TENSOR_NCV = 16


class NumericalError(RuntimeError):
    """A factorization or solve of the grid's energy failed, the eigen-solve did not
    converge, or its estimate lies below what the domain's constant can be."""


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
    inverse of matrix, start is the eigen-solve's start vector and ncv the
    number of Lanczos vectors it keeps.  h is the smallest mesh width in the
    domain's own length units (at r = 1 on a sector).  radius is the
    truncation radius of a two-halfline domain, None otherwise.  dropped
    counts the unknowns a lattice left out because no open link joins them
    to its largest component (0 on other grids).
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
    ncv: int = _NCV
    radius: Optional[float] = None
    dropped: int = 0

    @property
    def interior_count(self) -> int:
        return len(self.dist)


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
# Points per tile of _wall_distance.
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
    rows = int((y.max() - y0) // width) + 1
    cell = ((x - x0) // width).astype(np.intp) * rows + ((y - y0) // width).astype(np.intp)
    order = np.argsort(cell)
    cell = cell[order]
    first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    points = np.column_stack([x[order], y[order]])
    return order, first, np.minimum.reduceat(points, first), np.maximum.reduceat(points, first)


def _wall_distance(px, py, walls):
    """Distance from finite points to the nearest of the walls (ax, ay, bx, by).

    With at most _DIRECT_WALLS walls every point is measured against each
    wall.  With more, each point meets only the walls that can be nearest
    to it.  The points are binned into square tiles of about _TILE_POINTS
    each.  The distance from a tile's centre plus the tile's half diagonal
    bounds the distance of every point in the tile, so a wall whose
    bounding box lies farther than that from the tile's box, with a slack
    far above rounding, is never nearest.  _segment_distance runs on each
    tile's points against its remaining walls only, and the minimum over
    them is the minimum over all walls, bit for bit.  Each wall's terms
    (a, v = b - a and the guarded squared length) are computed once per
    call and gathered per pair: the same expressions, so the same bits.
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
    seg_lo = np.array([np.minimum(ax, bx), np.minimum(ay, by)])
    seg_hi = np.array([np.maximum(ax, bx), np.maximum(ay, by)])
    # the candidate walls of each tile, a few tiles at a time
    tiles, segs = [], []
    step = max(1, _PAIR_CHUNK // len(ax))
    for t0 in range(0, len(first), step):
        c, lo, hi = (v[t0 : t0 + step, :, None] for v in (centre, box_lo, box_hi))
        near = _segment_distance(c[:, 0], c[:, 1], *terms)
        bound = (near.min(axis=1) + reach[t0 : t0 + step]) * (1.0 + 1e-9) + slack
        gap = np.maximum(np.maximum(seg_lo - hi, lo - seg_hi), 0.0)
        t, s = np.nonzero(np.hypot(gap[:, 0], gap[:, 1]) <= bound[:, None])
        tiles.append(t0 + t)
        segs.append(s)
    segs = np.concatenate(segs)
    count = np.bincount(np.concatenate(tiles), minlength=len(first))
    seg_start = np.cumsum(count) - count
    # each point of a tile against the tile's candidates, point by point
    for t, off in _ragged_pairs(np.diff(np.r_[first, len(x)]) * count):
        j = order[first[t] + off // count[t]]
        s = segs[seg_start[t] + off % count[t]]
        d = _segment_distance(x[j], y[j], *(term[s] for term in terms))
        runs = np.flatnonzero(np.r_[True, j[1:] != j[:-1]])
        j = j[runs]
        dist[j] = np.minimum(dist[j], np.minimum.reduceat(d, runs))
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
    how many unknowns were dropped.  Its solve is left to _lattice.
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


def _lattice(*args, **kwargs) -> GridProblem:
    """_assemble's grid with its energy factored, once the assembly's work
    arrays (node grids, flags and link bands) are freed."""
    grid = _assemble(*args, **kwargs)
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
    """Exact solver for the Q1 energy on a tensor grid with a uniform first axis.

    On the box of all interior nodes the energy is Kx (x) My + Mx (x) Ky.
    The orthonormal DST-I diagonalizes the uniform axis's Kx and Mx at
    once, which leaves one SPD tridiagonal system per sine mode along the
    graded axis.  The systems are stacked into one tridiagonal matrix,
    uncoupled between modes, and factored once by LAPACK (pttrf).

    When only some box nodes are unknowns (keep), the box solve is
    corrected by the capacitance matrix method: forces on the ring of
    excluded nodes next to kept ones, chosen so that the box solution
    vanishes on that ring, make it vanish on every excluded node (they see
    no load) and solve the kept system exactly.  The capacitance matrix is
    the box inverse on the ring, factored once by dense Cholesky.  It is
    built one column per solve by the same pttrs solve that the correction
    applies, on the graded rows from the lowest ring row lo up alone.  So
    it matches the correction's ring values bit for bit on any LAPACK
    build, which the ill-conditioned correction needs.  Ring loads and ring
    values pass to and from mode space directly through the sine basis, so
    a corrected solve costs two transforms, like a plain one.
    """

    def __init__(self, hx: float, line_y, keep: np.ndarray):
        p, q = keep.shape
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
        self.kept = np.flatnonzero(keep)
        self.work = np.empty((p * q, 1))  # each solve's box vector, in and out of mode space
        self.ring = None
        if keep.all():
            return
        near = np.zeros_like(keep)
        padded = np.pad(keep, 1)
        for di in range(3):
            for dj in range(3):
                near |= padded[di : di + p, dj : dj + q]
        ring_i, self.ring_j = np.nonzero(near & ~keep)
        size = len(ring_i)
        # ring node -> its row along the graded axis, summing shared rows
        self.ring_rows = sp.csr_matrix(
            (np.ones(size), (self.ring_j, np.arange(size))), shape=(q, size)
        )
        # sine basis at the ring nodes: box value = sum_k sine[., k] * mode value
        self.ring_sine = math.sqrt(2.0 / (p + 1)) * np.sin(
            PI * np.outer(ring_i + 1, np.arange(1, p + 1)) / (p + 1)
        )
        # Column m is the box solve of a unit force on ring node m, read on
        # the ring.  That force loads row ring_j[m] >= lo of every mode, so
        # pttrs's forward sweep is exactly zero below lo, its back
        # substitution on rows >= lo reads only higher rows, and the ring is
        # read only there: the same pttrs solve on rows lo and up of every
        # mode gives the same bits as the full one.  The factor's zero off
        # entries between modes stay, so the modes stay uncoupled.
        lo = int(self.ring_j.min())
        diag = self.diag.reshape(p, q)[:, lo:].ravel()
        off = np.append(self.off, 0.0).reshape(p, q)[:, lo:].ravel()[:-1]
        rows = self.ring_j - lo
        modes = np.arange(p) * (q - lo)
        cap = np.empty((size, size))
        unit = np.empty((p * (q - lo), 1))
        for m in range(size):
            unit.fill(0.0)
            unit[modes + rows[m], 0] = self.ring_sine[m]
            cap[:, m] = self._ring_values(self._modes(unit, diag, off), lo)[:, 0]
        self.ring = ring_i
        self.cap = la.cho_factor(0.5 * (cap + cap.T))

    def _modes(self, b: np.ndarray, diag=None, off=None) -> np.ndarray:
        """Solve the stacked tridiagonal systems for mode-space loads b (P*Q, r).

        diag and off, if given, are the factor's rows from some lo up in
        every mode, and b is (P*(Q - lo), r).  b is a work array: the
        solution overwrites it.
        """
        if diag is None:
            diag, off = self.diag, self.off
        z, info = lapack.dpttrs(diag, off, b, overwrite_b=True)
        if info != 0:
            raise NumericalError(f"tridiagonal solve failed (info={info})")
        return z

    def _ring_values(self, z: np.ndarray, lo: int = 0) -> np.ndarray:
        """Box values at the ring nodes of mode-space vectors (P*(Q - lo), r)."""
        p, q = self.shape
        cols = z.reshape(p, q - lo, -1)[:, self.ring_j - lo, :]
        return np.einsum("mk,kmr->mr", self.ring_sine, cols)

    def _ring_load(self, f: np.ndarray) -> np.ndarray:
        """Mode-space load (P*Q, r) of point forces f (ring size, r) on the ring."""
        p, q = self.shape
        r = f.shape[1]
        load = self.ring_rows @ (self.ring_sine[:, :, None] * f[:, None, :]).reshape(-1, p * r)
        return load.reshape(q, p, r).transpose(1, 0, 2).reshape(p * q, r)

    def _dst(self, v: np.ndarray) -> np.ndarray:
        """Sine transform along the uniform axis of the P*Q values v, into v's storage."""
        p, q = self.shape
        return dst(v.reshape(p, q), type=1, axis=0, norm="ortho", overwrite_x=True).reshape(p * q, 1)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        # every step works in the solver's one buffer; only the kept values leave it
        b = self.work
        b.fill(0.0)
        b[self.kept, 0] = rhs
        z = self._modes(self._dst(b))
        if self.ring is not None:
            force = la.cho_solve(self.cap, self._ring_values(z))
            z -= self._modes(self._ring_load(force))
        return self._dst(z)[self.kept, 0]


def _tensor_grid(
    xs: np.ndarray, ys: np.ndarray, weight: Callable, dist: Callable, elem_in: np.ndarray
) -> GridProblem:
    """Q1 pencil on the Cartesian tensor grid xs by ys (xs uniform).

    weight(x, y) is the Hardy weight and dist(x, y) the distance to the
    boundary, both elementwise: they are called with a column of x against
    a row of y.  elem_in marks the elements inside the domain.  The
    unknowns are the nodes whose four elements are all inside.
    """
    keep = elem_in[1:, 1:] & elem_in[:-1, 1:] & elem_in[1:, :-1] & elem_in[:-1, :-1]
    _check_resolution(int(keep.sum()))
    hx = xs[1] - xs[0]
    dy = np.diff(ys)
    line_y = _q1_line(dy)
    solve = _TensorSolver(hx, line_y, keep)
    mass = _stencil_csr(_mass_bands(xs, ys, weight, elem_in), keep)
    ky_d, ky_o, my_d, my_o = line_y
    ky_o, my_o = np.append(ky_o, 0.0), np.append(my_o, 0.0)  # past the last node: unused
    shape = keep.shape

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
    mask[1:-1, 1:-1] = keep
    # dist and weight at the unknowns, evaluated over the box of interior
    # nodes, whose coordinates vary along one axis each, and read at the
    # kept ones; an excluded node may lie on a wall, where the weight is
    # infinite and goes unread
    xb, yb = xs[1:-1, None], ys[None, 1:-1]
    node_dist = np.broadcast_to(dist(xb, yb), shape)[keep]
    with np.errstate(divide="ignore"):
        node_weight = np.broadcast_to(weight(xb, yb), shape)[keep]
    u = xs[np.nonzero(mask)[0]]
    return GridProblem(
        xs=xs,
        ys=ys,
        kind="graded",
        h=min(hx, float(dy.min())),
        mask=mask,
        dist=node_dist,
        matrix=matrix,
        mass=mass,
        solve=solve,
        # the distance profile (weight^-1/2) times the lowest sine mode of
        # the uniform axis, so the many near-degenerate modes along that
        # axis (wiggles where they cost little) start out nearly absent
        start=node_weight ** -0.5 * np.sin(PI * (u - xs[0]) / (xs[-1] - xs[0])),
        # the lowest eigenvalues of a polygon crowd together (the n = 256
        # L-shape's lowest eight lie within 0.43%), and with _NCV vectors
        # each implicit restart discards most of that cluster
        ncv=_TENSOR_NCV,
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
        solve=_factor(matrix),
        start=d,
    )


def _edge_distance(theta, beta: float):
    """Distance at r = 1 to the edge rays of a sector of opening beta in [pi, 2pi].

    sin of the angle to the nearer edge, capped at pi/2, where the nearest
    boundary point is the vertex; this is potential_v ** -0.5 on arrays of
    angles theta in [0, beta].
    """
    return np.sin(np.minimum(np.minimum(theta, beta - theta), 0.5 * PI))


def _box_distance(px, py, walls, work: dict):
    """Distance to walls (ax, ay, bx, by) that are all horizontal or vertical.

    Per wall, the clamped offsets dx and dy along both axes are exact in
    floating point, which keeps the weight exact within hair-thin graded
    elements.  Their maximum d is the wall's distance hypot(dx, dy) exactly
    where either offset is 0, and a lower bound of it everywhere else.  So
    hypot runs only where both offsets are positive and d is below the
    running minimum: elsewhere the wall's distance is d, or it is at least
    d, which is not below the minimum, and cannot lower it.  The result is
    the minimum of hypot over the walls, bit for bit.  work keeps the work
    arrays by shape from one call to the next.
    """
    shape = np.broadcast(px, py).shape
    if shape not in work:
        work[shape] = np.empty(shape), np.empty(shape, dtype=bool)
    d, slant = work[shape]
    best = np.full(shape, np.inf)
    for ax, ay, bx, by in zip(*walls):
        dx = np.maximum(np.maximum(min(ax, bx) - px, px - max(ax, bx)), 0.0)
        dy = np.maximum(np.maximum(min(ay, by) - py, py - max(ay, by)), 0.0)
        np.maximum(dx, dy, out=d)
        np.less(d, best, out=slant)
        slant &= dx > 0.0
        slant &= dy > 0.0
        np.hypot(dx, dy, out=d, where=slant)
        np.minimum(best, d, out=best)
    return best


def _polygon_tensor_grid(verts: np.ndarray, n: int) -> Optional[GridProblem]:
    """Boundary-fitted grid of an axis-aligned polygon, or None if there is none.

    x is uniform with m <= n elements, the largest count that puts every
    vertex on a node (None below n/2); y is graded toward every horizontal
    edge line, n elements shared between the halves of the gaps between
    lines.  None also for polygons with slanted edges.
    """
    walls = _edge_walls(verts)
    if not np.all((walls[0] == walls[2]) | (walls[1] == walls[3])):
        return None
    x0, x1 = float(verts[:, 0].min()), float(verts[:, 0].max())
    frac = (np.unique(verts[:, 0]) - x0) / (x1 - x0)
    for m in range(n, (n + 1) // 2 - 1, -1):
        k = frac * m
        if np.all(np.abs(k - np.round(k)) <= 1e-9 * m):
            break
    else:
        return None
    lines = np.unique(verts[:, 1])
    per_half = n // (2 * (len(lines) - 1))
    if per_half < 2:
        return None
    xs = x0 + (x1 - x0) * np.arange(m + 1) / m
    ys = _graded_axis(lines, per_half)
    centres_x = 0.5 * (xs[:-1] + xs[1:])[:, None]
    centres_y = 0.5 * (ys[:-1] + ys[1:])[None, :]
    elem_in = _points_in_polygon(
        np.broadcast_to(centres_x, (m, len(ys) - 1)),
        np.broadcast_to(centres_y, (m, len(ys) - 1)),
        walls,
    )
    # longest walls first, so that the running minimum tightens early and
    # fewer (point, wall) pairs are left for hypot
    order = np.argsort(np.hypot(walls[2] - walls[0], walls[3] - walls[1]), kind="stable")[::-1]
    walls = tuple(w[order] for w in walls)
    work = {}  # _box_distance's work arrays, for this build only

    def weight(x, y):
        w = _box_distance(x, y, walls, work)
        w **= -2.0
        return w

    return _tensor_grid(
        xs, ys, weight, lambda x, y: _box_distance(x, y, walls, work), elem_in
    )


# ---------------------------------------------------------------------------
# Domain-specific builders.

def _polygon_lattice(verts: np.ndarray, n: int) -> GridProblem:
    """Cartesian lattice of a polygon over its square bounding box (uniform spacing)."""
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    walls = _edge_walls(verts)
    return _lattice(
        lambda px, py: _points_in_polygon(px, py, walls),
        walls,
        0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * max(x1 - x0, y1 - y0), n,
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
    c(beta) itself.  Polygons whose edges are all horizontal or vertical get
    a boundary-fitted grid of at most n elements per axis, when a uniform x
    spacing of at least n/2 elements puts every vertex on a node; other
    polygons, two-halfline domains and mixed problems get the Cartesian
    lattice with n nodes per side of the square bounding box.  Two-halfline
    domains are truncated at `radius` (default 8 segment lengths) with
    Dirichlet conditions on the truncation arc, and the grid records the
    radius used.  That radius must be finite and exceed 1/2, so that the arc
    about the segment's midpoint encloses the segment; no other domain
    takes one (a sector is scale-invariant, the rest bounded).  A polygon's
    vertices, a two-halfline domain's angles and a polar graph's samples
    pass certify's own input checks, polygon_vertices, ebg_angles and
    dbeta_samples.  ValueError otherwise.  Convex-cap descriptions carry no
    concrete cap geometry and cannot be gridded.
    """
    if radius is not None and not isinstance(domain, Ebg):
        raise ValueError(f"a truncation radius does not apply to a {type(domain).__name__} domain")
    if isinstance(domain, Sector):
        beta = admit_opening(domain.beta, "(pi")
        ts = np.linspace(-n / _RADIAL_ELEMENTS_PER_DECADE * math.log(10.0), 0.0, n + 1)
        thetas = _graded_axis(np.array([0.0, beta]), n // 2)
        # innermost ring at r = 1: radial step or smallest arc step
        h = math.exp(ts[0]) * min(math.expm1(ts[1] - ts[0]), float(np.diff(thetas).min()))
        return _pencil(ts, thetas, lambda theta: _edge_distance(theta, beta), h, "log-polar")
    if isinstance(domain, OneReflexPolygon):
        verts = polygon_vertices(domain)
        grid = _polygon_tensor_grid(verts, n)
        return _polygon_lattice(verts, n) if grid is None else grid
    if isinstance(domain, Ebg):
        ebg_angles(domain)
        r = 8.0 if radius is None else float(radius)
        if not 0.5 < r < math.inf:
            raise ValueError(
                f"truncation radius {r} must be finite and exceed 1/2 to enclose the unit segment"
            )
        grid = _polygon_lattice(_ebg_polygon(domain.beta, domain.gamma, r), n)
        grid.radius = r
        return grid
    if isinstance(domain, Dbeta):
        inside, walls, rmax = _dbeta_functions(domain)
        return _lattice(inside, walls, 0.0, 0.0, 1.01 * rmax, n, neumann=True)
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
    return _pencil(xs, ys, lambda y: y, min(xs[1], float(np.diff(ys).min())), "graded")


# ---------------------------------------------------------------------------
# Pencil eigenvalue.

# Ritz residual tolerance of the Lanczos solve.  The grid's discretization
# excess over the constant is at least 1e-3, and the Rayleigh quotient's
# error is about the square of the vector's, so with exact solves 1e-6
# would leave lam good to about 1e-9.  The capacitance solve of a polygon
# is not exact: on the n = 256 L-shape lam spans 0.26050813135 to
# 0.26050814231 (4e-8 relative) over ncv 8 to 40 and tolerances 1e-6 to
# 1e-10, and still 0.26050813175 to 0.26050813977 over ncv at 1e-10.  A
# tighter tolerance only converges the vector inside clusters of nearly
# equal eigenvalues (the L-shape's lowest lie within 0.4% of each other),
# which lam does not need.
_LANCZOS_TOL = 1e-6


def estimate_constant(grid: GridProblem, return_vector: bool = False):
    """Smallest eigenvalue of the pencil (A, M) by shift-invert Lanczos (eigsh at shift 0).

    Runs on the grid's own solve of A from grid.start with grid.ncv Lanczos
    vectors (16 on 2-D tensor grids, 8 on lattices and 1-D pencils), to a
    relative Ritz residual of _LANCZOS_TOL.  lam is the Rayleigh quotient
    of the returned vector x, an upper bound of the discrete minimum even
    where a solve is inexact.  One more solve measures the residual
    r = Ax - lam Mx in the A^-1 norm, which gives the relative
    Krylov-Weinstein bound residual_bound = |r|_{A^-1} / |x|_A: some
    eigenvalue of the pencil lies in [lam/(1 + eta), lam/(1 - eta)]
    (Parlett, The Symmetric Eigenvalue Problem, ch. 10-11).  The bound is
    only as exact as grid.solve, which is exact up to rounding on 1-D
    pencils and lattices (a sparse LU) and an ill-conditioned capacitance
    solve on polygons that do not fill their bounding box; on the L-shape
    at n = 256 that solve, not Lanczos, sets the bound near 1.5e-5 and
    holds lam to about 4e-8 relative (see _LANCZOS_TOL).  iterations
    counts every solve, this one included: 82 on that L-shape.
    Deterministic for a fixed grid and BLAS thread count, so validate's
    documents are byte-stable for a fixed count; perfbench and the pinned
    tests use one thread.  The count moves lam's printed digits, not only
    residual_bound's: on that L-shape lam is 0.2605081358355 with one
    OpenBLAS thread and 0.2605081371801 with two (eta 1.504e-5, 1.649e-5).
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
            a, k=1, M=m, sigma=0.0, OPinv=op, v0=grid.start, ncv=grid.ncv, tol=_LANCZOS_TOL
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
