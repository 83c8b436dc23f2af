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
1/dist^2, assembled in one pass from one inside test per node and
restricted to its largest connected component.  Each link is decided
open or closed once, at its lower end, and written by the Q1 grids'
symmetric stencil writer.  The energy is factored once by a sparse LU
(SuperLU, minimum degree ordering on A^T + A, whose pattern is
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
    """A factorization or solve of the grid's energy failed, or the eigen-solve did not converge."""


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

def _segment_distance(px, py, ax, ay, bx, by):
    """Distance from points p to segments a-b, elementwise over broadcast arrays.

    Where the squared length ll is 0 the division uses 1 instead, so a
    zero-length segment gets t = 0 and the distance |p - a| exactly.  (Where
    ll underflows to 0 from a nonzero v, |v| < 1e-161 bounds t v.)
    """
    vx, vy = bx - ax, by - ay
    ll = vx * vx + vy * vy
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / np.where(ll == 0.0, 1.0, ll), 0.0, 1.0)
    return np.hypot(px - ax - t * vx, py - ay - t * vy)


# Pairs per chunk of _points_in_polygon and _polyline_distance: a few work
# arrays of this many values each.
_PAIR_CHUNK = 1 << 13
# Points per tile of _polyline_distance.
_TILE_POINTS = 64


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


def _polyline_distance(px, py, verts: np.ndarray, closed: bool = True):
    """Distance from finite points to a polyline, closed back to its first vertex or open.

    Each point meets only the segments that can be nearest to it.  The
    points are binned into square tiles of about _TILE_POINTS each.  The
    distance from a tile's centre plus the tile's half diagonal bounds the
    distance of every point in the tile, so a segment whose bounding box
    lies farther than that from the tile's box, with a slack far above
    rounding, is never nearest.  _segment_distance runs on each tile's
    points against its remaining segments only, and the minimum over them
    is the minimum over all segments, bit for bit.
    """
    a = verts if closed else verts[:-1]
    b = np.roll(verts, -1, axis=0)[: len(a)]
    px, py = np.broadcast_arrays(px, py)
    x, y = px.ravel(), py.ravel()
    dist = np.full(len(x), np.inf)
    if len(a) == 0 or len(x) == 0:
        return dist.reshape(px.shape)
    order, first, box_lo, box_hi = _tiles(x, y)
    centre = 0.5 * (box_lo + box_hi)
    reach = 0.5 * np.hypot(*(box_hi - box_lo).T)
    slack = 1e-9 * max(np.abs(verts).max(), np.abs(box_lo).max(), np.abs(box_hi).max())
    seg_lo, seg_hi = np.minimum(a, b).T, np.maximum(a, b).T
    # the candidate segments of each tile, a few tiles at a time
    tiles, segs = [], []
    step = max(1, _PAIR_CHUNK // len(a))
    for t0 in range(0, len(first), step):
        c, lo, hi = (v[t0 : t0 + step, :, None] for v in (centre, box_lo, box_hi))
        near = _segment_distance(c[:, 0], c[:, 1], a[:, 0], a[:, 1], b[:, 0], b[:, 1])
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
        d = _segment_distance(x[j], y[j], a[s, 0], a[s, 1], b[s, 0], b[s, 1])
        runs = np.flatnonzero(np.r_[True, j[1:] != j[:-1]])
        j = j[runs]
        dist[j] = np.minimum(dist[j], np.minimum.reduceat(d, runs))
    return dist.reshape(px.shape)


def _points_in_polygon(px, py, verts: np.ndarray):
    """Even-odd rule, each edge against the points in its height band only.

    A non-horizontal edge a-b can cross the rightward ray of a point only if
    min(ya, yb) <= y < max(ya, yb); horizontal edges cross nothing.  With
    the points sorted by y, each edge's band is one index range found by two
    binary searches, the crossing test runs on the (edge, point) pairs of
    the bands alone, and a point is inside when its crossings are odd.
    """
    b = np.roll(verts, -1, axis=0)
    slanted = verts[:, 1] != b[:, 1]
    xa, ya = verts[slanted, 0], verts[slanted, 1]
    xb, yb = b[slanted, 0], b[slanted, 1]
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


# ---------------------------------------------------------------------------
# Core assembly.

def _factor(matrix: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Solve with a sparse LU of the energy matrix; NumericalError if it fails."""
    try:
        # relax=1 and panel_size=1 keep SuperLU from reallocating its
        # supernode workspace: with the defaults the factorization peaks
        # 4.6 MB higher on the Ebg(1.5pi, 1.5pi) lattice at n = 128
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
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
    weight_dist: Callable,
    cx: float,
    cy: float,
    half: float,
    n: int,
    neumann_side: Optional[Callable] = None,
    link_cut: Optional[Callable] = None,
) -> GridProblem:
    """Build mask, weights and the 5-point energy on an n-by-n lattice.

    The lattice spans the square of centre (cx, cy) and half-side half.
    inside and weight_dist take vectorized coordinates.  inside classifies
    each node once and weight_dist measures the inside nodes only; the
    unknowns are the inside nodes at least h/2 from the weighted boundary
    part.  Each link reads its neighbor's inside flag from that
    classification, padded by one ring of outside nodes that are not
    unknowns.  A link is open or closed as its lower end decides: the
    forward passes (1, 0) and (0, 1) store the decision in a band that the
    backward passes read, their own tests only placing the wall of a closed
    link, and _stencil_csr writes each link once from those bands, so the
    energy is symmetric.  A closed link to an out-of-mask neighbor is a
    Dirichlet half-link unless the neighbor lies outside the domain and
    neumann_side says the crossing is through the Neumann part, in which
    case the link is dropped entirely.

    Dirichlet half-links carry the cut-link correction: the boundary
    crossing is located at fraction s of the link and the diagonal
    contribution is 1/s instead of 1.  Without it a wall passing mid-link
    is penalized as if it were a full mesh width away while the nodal
    weight uses the true distance, and the quotient can dip below the
    Hardy constant; with it the discrete energy matches the linear
    interpolant cut at the wall and the estimate stays an upper one.

    Crossings are detected by the midpoint-inside test, except for domains
    that pass link_cut(ax, ay, bx, by) -> (blocked, fraction): slits and
    near-degenerate wedges have (near) measure-zero cross sections that
    point sampling misses in floating point, so those domains supply an
    analytic segment-crossing predicate.

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
    dist = weight_dist(gx[mask], gy[mask])
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
    diag = bands[0, 0][1:-1, 1:-1]
    px, py = gx[mask], gy[mask]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        near = (slice(1 + dx, n + 1 + dx), slice(1 + dy, n + 1 + dy))
        nbr_in = node_in[near][mask]
        nx_, ny_ = px + dx * h, py + dy * h
        mid_in = inside(0.5 * (px + nx_), 0.5 * (py + ny_))
        if link_cut is not None:
            blocked, frac = link_cut(px, py, nx_, ny_)
        else:
            blocked = ~mid_in
            frac = np.full(count, np.nan)
        if (dx, dy) in bands:  # the lower end decides the link
            closed = ~unknown[near][mask] | blocked
            bands[dx, dy][1:-1, 1:-1][mask] = np.where(closed, 0.0, -1.0)
        else:  # and the upper end reads its decision
            closed = bands[-dx, -dy][near][mask] == 0.0
        neumann = np.zeros(count, dtype=bool)
        if neumann_side is not None:  # only closed links to outside points can be Neumann
            outward = closed & ~nbr_in
            neumann[outward] = neumann_side(nx_[outward], ny_[outward])
        dirichlet = closed & ~neumann
        # locate the wall along each cut link: fraction s in (0, 1]
        s = np.ones(count)
        analytic = dirichlet & blocked & np.isfinite(frac)
        s[analytic] = frac[analytic]
        needs_bisect = dirichlet & ~analytic & ~(nbr_in & ~blocked)
        if np.any(needs_bisect):
            mid_ok = mid_in[needs_bisect]
            lo_c, hi_c = np.where(mid_ok, 0.5, 0.0), np.where(mid_ok, 1.0, 0.5)
            bx, by = px[needs_bisect], py[needs_bisect]
            for _bisect in range(20):
                mid = 0.5 * (lo_c + hi_c)
                inside_mid = inside(bx + mid * dx * h, by + mid * dy * h)
                lo_c = np.where(inside_mid, mid, lo_c)
                hi_c = np.where(inside_mid, hi_c, mid)
            s[needs_bisect] = 0.5 * (lo_c + hi_c)
        s = np.maximum(s, 0.05)
        diag[mask] += np.where(dirichlet, 1.0 / s, np.where(neumann, 0.0, 1.0))
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

# Columns of the capacitance matrix computed per truncated solve, in
# batch x P x (Q - lo) doubles of work memory.  pttrs sweeps one column at
# a time, so the batch saves no arithmetic.  One column per solve writes
# the same validate documents; on the L-shape (fresh processes, one BLAS
# thread) it takes validate's peak from 110.1-111.9 to 109.3-112.0 MB at
# n = 256 (0.44-0.47 s of CPU either way) and from 183.7-184.4 to
# 180.6-187.4 MB at n = 512 (2.46-2.54 s to 2.20-2.30 s): less than the
# peak spreads between runs, so 8 stays.
_CAPACITANCE_BATCH = 8


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
    their mirrors; sorted, they run in increasing column order.  A backward
    entry reads the same number from its forward partner, so the matrix is
    exactly symmetric.  Entries, zeros between kept nodes included, are
    written straight into the final arrays one offset at a time, which
    keeps the work memory to a few vectors of one value per node.
    """
    p, q = keep.shape
    count = int(keep.sum())
    index = np.full((p + 2, q + 2), -1, dtype=np.int32)
    index[1:-1, 1:-1][keep] = np.arange(count, dtype=np.int32)
    stencil = sorted(set(bands) | {(-di, -dj) for di, dj in bands})

    def neighbours(di, dj):
        return index[1 + di : p + 1 + di, 1 + dj : q + 1 + dj][keep]

    indptr = np.zeros(count + 1, dtype=np.int32)
    for di, dj in stencil:
        indptr[1:] += neighbours(di, dj) >= 0
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    slot = indptr[:-1].copy()  # next free position in each row
    for di, dj in stencil:  # increasing columns, so rows come out sorted
        if (di, dj) in bands:
            vals = bands[(di, dj)]
        else:  # value at (i, j) is the forward band of (-di, -dj) at (i + di, j + dj)
            vals = np.zeros((p, q))
            fwd = bands[(-di, -dj)]
            vals[max(0, -di) : p - max(0, di), max(0, -dj) : q - max(0, dj)] = fwd[
                max(0, di) : p - max(0, -di), max(0, dj) : q - max(0, -dj)
            ]
        cols = neighbours(di, dj)
        ok = cols >= 0
        at = slot[ok]
        data[at] = vals[keep][ok]
        indices[at] = cols[ok]
        slot[ok] += 1
    return sp.csr_matrix((data, indices, indptr), shape=(count, count))


def _mass_bands(xs: np.ndarray, ys: np.ndarray, weight: Callable, elem_in: np.ndarray) -> dict:
    """Forward bands of the consistent Q1 mass against weight(u, v).

    Integrates by a tensor Gauss rule per element.  One quadrature point at
    a time, the weighted element measure is added into the node bands with
    the products of the four bilinear shape functions there, so the work
    memory stays a few arrays of one value per element.  Elements outside
    the domain contribute nothing.
    """
    hx = xs[1] - xs[0]
    dy = np.diff(ys)
    shape = (len(xs) - 2, len(ys) - 2)
    bands = {offset: np.zeros(shape) for offset in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))}
    for xi, wx in zip(*_gauss(_GAUSS_UNIFORM)):
        u = (xs[:-1] + xi * hx)[:, None]
        for eta, wy in zip(*_gauss(_GAUSS_GRADED)):
            v = (ys[:-1] + eta * dy)[None, :]
            w = np.where(elem_in, weight(u, v), 0.0) * (wx * wy * hx * dy)
            # shape functions of the element corners (0,0), (1,0), (0,1), (1,1)
            f0, f1, f2, f3 = (1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta
            # node (i, j) is corner 0 of element (i, j), 1 of (i-1, j),
            # 2 of (i, j-1) and 3 of (i-1, j-1)
            e00, e10, e01, e11 = w[1:, 1:], w[:-1, 1:], w[1:, :-1], w[:-1, :-1]
            bands[(0, 0)] += f0 * f0 * e00 + f1 * f1 * e10 + f2 * f2 * e01 + f3 * f3 * e11
            bands[(0, 1)] += f0 * f2 * e00 + f1 * f3 * e10
            bands[(1, -1)] += f2 * f1 * e01
            bands[(1, 0)] += f0 * f1 * e00 + f2 * f3 * e01
            bands[(1, 1)] += f0 * f3 * e00
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
    built _CAPACITANCE_BATCH columns at a time by the same pttrs solve that
    the correction applies, on the graded rows from the lowest ring row lo
    up alone.  So it matches the correction's ring values bit for bit on
    any LAPACK build, which the ill-conditioned correction needs.  Ring
    loads and ring values pass to and from mode space directly through the
    sine basis, so a corrected solve costs two transforms, like a plain one.
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
        modes = np.arange(p)[:, None] * (q - lo)
        cap = np.empty((size, size))
        for s in range(0, size, _CAPACITANCE_BATCH):
            cols = np.arange(s, min(s + _CAPACITANCE_BATCH, size))
            unit = np.zeros((p * (q - lo), len(cols)), order="F")
            unit[modes + rows[cols], np.arange(len(cols))] = self.ring_sine[cols].T
            cap[:, cols] = self._ring_values(self._modes(unit, diag, off), lo)
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
    boundary; elem_in marks the elements inside the domain.  The unknowns
    are the nodes whose four elements are all inside.
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
    i, j = np.nonzero(mask)
    u, v = xs[i], ys[j]
    return GridProblem(
        xs=xs,
        ys=ys,
        kind="graded",
        h=min(hx, float(dy.min())),
        mask=mask,
        dist=dist(u, v),
        matrix=matrix,
        mass=mass,
        solve=solve,
        # the distance profile (weight^-1/2) times the lowest sine mode of
        # the uniform axis, so the many near-degenerate modes along that
        # axis (wiggles where they cost little) start out nearly absent
        start=weight(u, v) ** -0.5 * np.sin(PI * (u - xs[0]) / (xs[-1] - xs[0])),
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


def _box_distance(px, py, verts: np.ndarray):
    """Distance to a closed polygon whose edges are horizontal or vertical.

    Per edge, the clamped offsets along both axes are exact in floating
    point, which keeps the weight exact within hair-thin graded elements.
    """
    best = np.full(np.broadcast(px, py).shape, np.inf)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        dx = np.maximum(np.maximum(lo[0] - px, px - hi[0]), 0.0)
        dy = np.maximum(np.maximum(lo[1] - py, py - hi[1]), 0.0)
        best = np.minimum(best, np.hypot(dx, dy))
    return best


def _polygon_tensor_grid(verts: np.ndarray, n: int) -> Optional[GridProblem]:
    """Boundary-fitted grid of an axis-aligned polygon, or None if there is none.

    x is uniform with m <= n elements, the largest count that puts every
    vertex on a node (None below n/2); y is graded toward every horizontal
    edge line, n elements shared between the halves of the gaps between
    lines.  None also for polygons with slanted edges.
    """
    edges = np.roll(verts, -1, axis=0) - verts
    if not np.all((edges[:, 0] == 0.0) | (edges[:, 1] == 0.0)):
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
        verts,
    )
    return _tensor_grid(
        xs,
        ys,
        weight=lambda x, y: _box_distance(x, y, verts) ** -2.0,
        dist=lambda x, y: _box_distance(x, y, verts),
        elem_in=elem_in,
    )


# ---------------------------------------------------------------------------
# Domain-specific builders.

def _ray_link_cut(directions, lengths):
    """Segment-vs-ray crossing test for edges from the origin, of the given lengths.

    Returns a vectorized predicate (blocked, fraction) for links a -> b.
    Slits (full openings) have measure-zero cross sections, so midpoint
    sampling cannot detect them reliably; the sign change of the cross
    product against each edge direction can.
    """

    def link_cut(ax, ay, bx, by):
        blocked = np.zeros(np.shape(ax), dtype=bool)
        frac = np.full(np.shape(ax), np.nan)
        for (ux, uy), length in zip(directions, lengths):
            c1 = ux * ay - uy * ax
            c2 = ux * by - uy * bx
            flip = (c1 > 0.0) != (c2 > 0.0)
            denom = np.where(flip, c1 - c2, 1.0)
            tau = np.where(flip, c1 / denom, np.nan)
            pxc = ax + tau * (bx - ax)
            pyc = ay + tau * (by - ay)
            along = pxc * ux + pyc * uy
            hit = flip & (along > 0.0) & (np.hypot(pxc, pyc) <= length)
            better = hit & (~blocked | (tau < frac))
            frac = np.where(better, tau, frac)
            blocked |= hit
        return blocked, frac

    return link_cut


def _polygon_lattice(verts: np.ndarray, n: int) -> GridProblem:
    """Cartesian lattice of a polygon over its square bounding box (uniform spacing)."""
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    return _lattice(
        lambda px, py: _points_in_polygon(px, py, verts),
        lambda px, py: _polyline_distance(px, py, verts),
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


# Widest angle between two vertices of a polar graph's Neumann polyline.
_GRAPH_STEP = PI / 64


def _graph_angles(thetas: np.ndarray) -> np.ndarray:
    """The sample angles, every gap wider than _GRAPH_STEP cut into equal pieces.

    One expression for all gaps: linspace's own multiply-then-add, so the
    angles equal a per-gap linspace(a, b, pieces, endpoint=False) bit for bit.
    """
    pieces = np.ceil(np.diff(thetas) / _GRAPH_STEP).astype(int)
    gap = np.repeat(np.arange(len(pieces)), pieces)
    k = np.arange(len(gap)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.append(k * (np.diff(thetas) / pieces)[gap] + thetas[gap], thetas[-1])


def _dbeta_functions(d: Dbeta):
    samples = dbeta_samples(d)
    thetas, rvals = samples[:, 0], samples[:, 1]
    beta = d.beta
    gamma0_a = np.array([rvals[0], 0.0])
    gamma0_b = rvals[-1] * np.array([math.cos(beta), math.sin(beta)])

    def r_of(ang):
        return np.interp(ang, thetas, rvals)

    # The Neumann part is the curve r = r_of(theta) that `inside` tests, not
    # the chords between samples: a chord over a wide gap cuts toward the
    # origin, and on a 2pi opening sampled at 0, pi and 2pi it runs along the
    # Dirichlet slit.  Gaps wider than _GRAPH_STEP get vertices on the curve.
    fine = _graph_angles(thetas)
    rfine = r_of(fine)
    graph = np.column_stack([rfine * np.cos(fine), rfine * np.sin(fine)])

    def inside(px, py):
        r = np.hypot(px, py)
        ang = np.mod(np.arctan2(py, px), 2.0 * PI)
        return (ang > 0.0) & (ang < beta) & (r > 0.0) & (r < r_of(ang))

    def dirichlet_dist(px, py):
        d1 = _segment_distance(px, py, 0.0, 0.0, gamma0_a[0], gamma0_a[1])
        d2 = _segment_distance(px, py, 0.0, 0.0, gamma0_b[0], gamma0_b[1])
        return np.minimum(d1, d2)

    def neumann_side(px, py):
        dn = _polyline_distance(px, py, graph, closed=False)
        return dn < dirichlet_dist(px, py)

    link_cut = _ray_link_cut(
        [(1.0, 0.0), (math.cos(beta), math.sin(beta))],
        lengths=[float(rvals[0]), float(rvals[-1])],
    )
    return inside, dirichlet_dist, neumann_side, link_cut, float(np.max(rvals))


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
        inside, dist, neumann_side, link_cut, rmax = _dbeta_functions(domain)
        return _lattice(
            inside, dist, 0.0, 0.0, 1.01 * rmax, n, neumann_side=neumann_side, link_cut=link_cut
        )
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
