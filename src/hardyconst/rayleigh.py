"""Grid-based variational estimators for Hardy constants.

The estimate is the smallest eigenvalue of a pencil (A, M): A the
Dirichlet energy and M the Hardy weight's mass over the unknowns of a
grid, found by inverse power iteration with the grid's own linear solver.
Two kinds of grid provide the pencil.

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
estimate of the constant.  The solve is exact: a sine transform along the
uniform axis leaves one tridiagonal system per mode along the graded one,
and a polygon that does not fill its bounding box adds a capacitance
correction on the excluded nodes next to it.

Minimizing sequences of Hardy quotients spread over exponentially many
length scales, and the excess of a grid's minimum is set by how many
decades it resolves.  A graded axis resolves a number of decades that grows
linearly with n, so these estimates approach the constant algebraically
in n.

Cartesian lattices, for every other domain (slanted polygon edges,
two-halfline domains, mixed Dirichlet-Neumann sectors): the 5-point
finite-difference energy on a square lattice against nodal weights
1/dist^2, solved by conjugate gradients.  Its mesh width is uniform, so it
resolves only about log10(n) decades and converges like 1/log^2(1/h); on a
few hundred nodes per side the estimate sits a few tenths above the
constant.  For these domains the validator is a consistency check
(estimates stay above certified constants and shrink toward them), not a
precision instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
from scipy.fft import dst
from scipy.sparse.csgraph import connected_components

from .certify import Dbeta, DomainSpec, Ebg, OneReflexPolygon, Sector, SectorCapConvex, ensure_ccw

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


class NumericalError(RuntimeError):
    """Iterative solve failed to converge within its cap."""


@dataclass
class GridProblem:
    """Assembled discrete Hardy quotient on a lattice of nodes.

    kind names the discretization: "log-polar" (sector tensor grid),
    "graded" (Cartesian tensor grid with a graded y axis) or "lattice"
    (uniform square lattice).  xs and ys are the node positions along the
    two lattice axes, boundary nodes included: x and y, or t = log r and
    the angle on a log-polar grid.
    mask marks the unknowns on that lattice and nodes lists their (i, j)
    indices; dist holds each unknown's distance to the weighted boundary
    part (all of the boundary, or the Dirichlet part only for mixed
    problems).  matrix is the Dirichlet energy and mass the weighted mass
    over the unknowns, so the estimate is the smallest eigenvalue of the
    pencil (matrix, mass); solve(rhs, guess, tol) applies the inverse of
    matrix (guess and tol steer iterative solvers only), and start is the
    eigenvalue iteration's start vector.  h is the smallest mesh width, in
    the domain's own length units.
    """

    xs: np.ndarray
    ys: np.ndarray
    kind: str
    h: float
    mask: np.ndarray
    dist: np.ndarray
    nodes: np.ndarray
    matrix: sp.csr_matrix
    mass: sp.csr_matrix
    solve: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    start: np.ndarray

    @property
    def interior_count(self) -> int:
        return len(self.dist)

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical (x, y) of the unknowns."""
        u, v = self.xs[self.nodes[:, 0]], self.ys[self.nodes[:, 1]]
        if self.kind == "log-polar":
            r = np.exp(u)
            return r * np.cos(v), r * np.sin(v)
        return u, v

    def component_count(self) -> int:
        ncomp, _ = connected_components(self.matrix, directed=False)
        return int(ncomp)


@dataclass(frozen=True)
class RayleighEstimate:
    """Smallest generalized eigenvalue of (A, M) and the work it took."""

    lam: float
    iterations: int
    h: float

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "iterations": self.iterations, "h": self.h}


# ---------------------------------------------------------------------------
# Geometry helpers.

def _segment_distance(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    ll = vx * vx + vy * vy
    if ll == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / ll, 0.0, 1.0)
    return np.hypot(px - ax - t * vx, py - ay - t * vy)


def _polyline_distance(px, py, verts: np.ndarray, closed: bool = True):
    n = len(verts)
    last = n if closed else n - 1
    best = np.full(np.shape(px), np.inf)
    for i in range(last):
        a = verts[i]
        b = verts[(i + 1) % n]
        best = np.minimum(best, _segment_distance(px, py, a[0], a[1], b[0], b[1]))
    return best


def _points_in_polygon(px, py, verts: np.ndarray):
    """Even-odd rule, vectorized over points."""
    inside = np.zeros(np.shape(px), dtype=bool)
    n = len(verts)
    for i in range(n):
        xa, ya = verts[i]
        xb, yb = verts[(i + 1) % n]
        if ya == yb:
            continue
        cond = (ya > py) != (yb > py)
        xint = xa + (py - ya) * (xb - xa) / (yb - ya)
        inside ^= cond & (px < xint)
    return inside


def _square_box(x0, x1, y0, y1, pad):
    """Expand to a square box (uniform spacing needs equal side lengths)."""
    x0, x1 = x0 - pad, x1 + pad
    y0, y1 = y0 - pad, y1 + pad
    side = max(x1 - x0, y1 - y0)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return cx - 0.5 * side, cx + 0.5 * side, cy - 0.5 * side, cy + 0.5 * side


# ---------------------------------------------------------------------------
# Core assembly.

def _assemble(
    inside: Callable,
    weight_dist: Callable,
    x0: float,
    x1: float,
    y0: float,
    y1: float,
    n: int,
    neumann_side: Optional[Callable] = None,
    link_cut: Optional[Callable] = None,
) -> GridProblem:
    """Build mask, weights and the 5-point energy on an n-by-n lattice.

    inside and weight_dist take vectorized coordinates.  A link to an
    out-of-mask neighbor is a Dirichlet half-link unless the neighbor point
    lies outside the domain and neumann_side says the crossing is through
    the Neumann part, in which case the link is dropped entirely.

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
    """
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    h = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    if abs(h - hy) > 1e-9 * max(h, hy):
        raise ValueError("lattice spacing must be square")
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = inside(gx, gy)
    dist_grid = np.where(mask, weight_dist(gx, gy), np.inf)
    # keep the nodal weight bounded: interior nodes sit at least h/2 from
    # the weighted boundary part
    mask &= dist_grid >= 0.5 * h * (1.0 - 1e-9)

    for _ in range(4):  # peel to the largest component if splinters remain
        idx = -np.ones((n, n), dtype=np.int64)
        ii = np.where(mask)
        count = len(ii[0])
        if count < _MIN_INTERIOR_NODES:
            raise ValueError(
                f"only {count} interior nodes; raise the resolution (need >= {_MIN_INTERIOR_NODES})"
            )
        idx[ii] = np.arange(count)
        rows, cols, vals = [], [], []
        diag = np.zeros(count)
        px, py = gx[ii], gy[ii]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ji = ii[0] + dx
            jj = ii[1] + dy
            in_lattice = (ji >= 0) & (ji < n) & (jj >= 0) & (jj < n)
            jidx = np.full(count, -1, dtype=np.int64)
            jidx[in_lattice] = idx[ji[in_lattice], jj[in_lattice]]
            nx_, ny_ = px + dx * h, py + dy * h
            # endpoint average is bit-identical from either side of the link,
            # so open/closed decisions cannot come out asymmetric
            mid_in = inside(0.5 * (px + nx_), 0.5 * (py + ny_))
            nbr_in = inside(nx_, ny_)
            if link_cut is not None:
                blocked, frac = link_cut(px, py, nx_, ny_)
            else:
                blocked = ~mid_in
                frac = np.full(count, np.nan)
            open_link = (jidx >= 0) & ~blocked
            closed = ~open_link
            if neumann_side is None:
                neumann = np.zeros(count, dtype=bool)
            else:
                neumann = closed & ~nbr_in & neumann_side(nx_, ny_)
            dirichlet = closed & ~neumann
            # locate the wall along each cut link: fraction s in (0, 1]
            s = np.ones(count)
            analytic = dirichlet & blocked & np.isfinite(frac)
            s[analytic] = frac[analytic]
            needs_bisect = dirichlet & ~analytic & ~(nbr_in & ~blocked)
            if np.any(needs_bisect):
                lo_c = np.zeros(int(needs_bisect.sum()))
                hi_c = np.ones_like(lo_c)
                mid_ok = mid_in[needs_bisect]
                lo_c[mid_ok] = 0.5
                hi_c[~mid_ok] = 0.5
                bx, by = px[needs_bisect], py[needs_bisect]
                for _bisect in range(20):
                    mid = 0.5 * (lo_c + hi_c)
                    inside_mid = inside(bx + mid * dx * h, by + mid * dy * h)
                    lo_c = np.where(inside_mid, mid, lo_c)
                    hi_c = np.where(inside_mid, hi_c, mid)
                s[needs_bisect] = 0.5 * (lo_c + hi_c)
            s = np.maximum(s, 0.05)
            diag += np.where(dirichlet, 1.0 / s, np.where(neumann, 0.0, 1.0))
            sel = np.where(open_link)[0]
            rows.append(sel)
            cols.append(jidx[sel])
            vals.append(-np.ones(len(sel)))
        matrix = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(count, count),
        )
        matrix = (matrix + sp.diags(diag)) / (h * h)
        ncomp, labels = connected_components(matrix, directed=False)
        if ncomp == 1:
            break
        largest = np.argmax(np.bincount(labels))
        drop = labels != largest
        new_mask = mask.copy()
        new_mask[ii[0][drop], ii[1][drop]] = False
        mask = new_mask
    nodes = np.column_stack(ii)
    dist = dist_grid[ii]
    return GridProblem(
        xs=xs,
        ys=ys,
        kind="lattice",
        h=h,
        mask=mask,
        dist=dist,
        nodes=nodes,
        matrix=matrix,
        mass=sp.diags(1.0 / dist**2, format="csr"),
        solve=partial(_cg, matrix),
        start=dist,
    )


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

# Columns of the capacitance matrix computed per batched solve; the batch
# bounds the work memory at a few vectors per column.
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


# Offsets (di, dj) of the 9-point stencil in increasing column order for a
# row-major node numbering; the first four are mirrors of the last four.
_STENCIL = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _stencil_csr(bands: dict, keep: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR matrix over the kept nodes of a P-by-Q lattice.

    bands maps each forward offset (di, dj) of _STENCIL (the last five) to
    a P-by-Q array: the entry coupling node (i, j) with (i + di, j + dj).
    A backward entry reads the same number from its forward partner, so the
    matrix is exactly symmetric.  Entries are written straight into the
    final arrays one offset at a time, which keeps the work memory to a few
    vectors of one value per node.
    """
    p, q = keep.shape
    count = int(keep.sum())
    index = np.full((p + 2, q + 2), -1, dtype=np.int32)
    index[1:-1, 1:-1][keep] = np.arange(count, dtype=np.int32)

    def neighbours(di, dj):
        return index[1 + di : p + 1 + di, 1 + dj : q + 1 + dj][keep]

    indptr = np.zeros(count + 1, dtype=np.int32)
    for di, dj in _STENCIL:
        indptr[1:] += neighbours(di, dj) >= 0
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    slot = indptr[:-1].copy()  # next free position in each row
    for di, dj in _STENCIL:  # increasing columns, so rows come out sorted
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
    the box inverse on the ring, factored once by dense Cholesky.  Ring
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
        cap = np.empty((size, size))
        for s in range(0, size, _CAPACITANCE_BATCH):
            cols = np.arange(s, min(s + _CAPACITANCE_BATCH, size))
            unit = np.zeros((size, len(cols)))
            unit[cols, np.arange(len(cols))] = 1.0
            cap[:, cols] = self._ring_values(self._modes(self._ring_load(unit)))
        self.ring = ring_i
        self.cap = la.cho_factor(0.5 * (cap + cap.T))

    def _modes(self, b: np.ndarray) -> np.ndarray:
        """Solve the stacked tridiagonal systems for mode-space loads (P*Q, r)."""
        z, info = lapack.dpttrs(self.diag, self.off, b)
        if info != 0:
            raise NumericalError(f"tridiagonal solve failed (info={info})")
        return z

    def _ring_values(self, z: np.ndarray) -> np.ndarray:
        """Box values at the ring nodes of mode-space vectors (P*Q, r)."""
        p, q = self.shape
        cols = z.reshape(p, q, -1)[:, self.ring_j, :]
        return np.einsum("mk,kmr->mr", self.ring_sine, cols)

    def _ring_load(self, f: np.ndarray) -> np.ndarray:
        """Mode-space load (P*Q, r) of point forces f (ring size, r) on the ring."""
        p, q = self.shape
        r = f.shape[1]
        load = self.ring_rows @ (self.ring_sine[:, :, None] * f[:, None, :]).reshape(-1, p * r)
        return load.reshape(q, p, r).transpose(1, 0, 2).reshape(p * q, r)

    def _dst(self, v: np.ndarray) -> np.ndarray:
        p, q = self.shape
        return dst(v.reshape(p, q), type=1, axis=0, norm="ortho").reshape(p * q, 1)

    def __call__(self, rhs: np.ndarray, guess=None, tol=None) -> np.ndarray:
        b = np.zeros(self.shape[0] * self.shape[1])
        b[self.kept] = rhs
        z = self._modes(self._dst(b))
        if self.ring is not None:
            force = la.cho_solve(self.cap, self._ring_values(z))
            z -= self._modes(self._ring_load(force))
        return self._dst(z)[self.kept, 0]


def _tensor_grid(
    xs: np.ndarray,
    ys: np.ndarray,
    weight: Callable,
    dist: Callable,
    elem_in: Optional[np.ndarray] = None,
    kind: str = "graded",
) -> GridProblem:
    """Q1 pencil on the tensor grid xs by ys (xs uniform).

    weight(u, v) is the Hardy weight in the grid's coordinates and dist(u, v)
    the physical distance to the boundary; elem_in marks the elements inside
    the domain (default: all).  The unknowns are the nodes whose four
    elements are all inside.
    """
    if elem_in is None:
        elem_in = np.ones((len(xs) - 1, len(ys) - 1), dtype=bool)
    keep = elem_in[1:, 1:] & elem_in[:-1, 1:] & elem_in[1:, :-1] & elem_in[:-1, :-1]
    count = int(keep.sum())
    if count < _MIN_INTERIOR_NODES:
        raise ValueError(
            f"only {count} interior nodes; raise the resolution (need >= {_MIN_INTERIOR_NODES})"
        )
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
    nodes = np.column_stack(np.nonzero(mask))
    if kind == "log-polar":  # innermost ring: radial step or smallest arc step
        h = math.exp(xs[0]) * min(math.expm1(hx), float(dy.min()))
    else:
        h = min(hx, float(dy.min()))
    u, v = xs[nodes[:, 0]], ys[nodes[:, 1]]
    return GridProblem(
        xs=xs,
        ys=ys,
        kind=kind,
        h=h,
        mask=mask,
        dist=dist(u, v),
        nodes=nodes,
        matrix=matrix,
        mass=mass,
        solve=solve,
        # the distance profile in the grid's own metric (weight^-1/2: d, or
        # d/r in log-polar) times the lowest sine mode of the uniform axis,
        # so the many near-degenerate modes along that axis (wiggles where
        # they cost little) start out nearly absent
        start=weight(u, v) ** -0.5 * np.sin(PI * (u - xs[0]) / (xs[-1] - xs[0])),
    )


def _sector_tensor_grid(beta: float, radius: float, n: int) -> GridProblem:
    """Log-polar grid of the sector truncated at radius: n elements per axis.

    t = log r is uniform over the decades given by n, with Dirichlet
    conditions at both ends; the angle is graded toward both edges.
    """
    log_r = math.log(radius)
    decades = n / _RADIAL_ELEMENTS_PER_DECADE
    ts = log_r + np.linspace(-decades * math.log(10.0), 0.0, n + 1)
    thetas = _graded_axis(np.array([0.0, beta]), n // 2)

    def scaled_dist(t, theta):  # distance to the boundary over r
        s = np.ones(np.shape(theta))
        # angles to the edge rays at 0 and beta, each from either side; the
        # sums keep full precision next to the rays, also in the slit case
        for angle in (
            np.minimum(theta, 2.0 * PI - theta),
            np.minimum(beta - theta, (2.0 * PI - beta) + theta),
        ):
            s = np.minimum(s, np.where(angle < 0.5 * PI, np.sin(angle), 1.0))
        return np.minimum(s, np.expm1(log_r - t))

    return _tensor_grid(
        ts,
        thetas,
        weight=lambda t, theta: scaled_dist(t, theta) ** -2.0,
        dist=lambda t, theta: np.exp(t) * scaled_dist(t, theta),
        kind="log-polar",
    )


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

def _ray_link_cut(directions, lengths=None):
    """Segment-vs-ray crossing test for edges through the origin.

    Returns a vectorized predicate (blocked, fraction) for links a -> b.
    Slits (full openings) have measure-zero cross sections, so midpoint
    sampling cannot detect them reliably; the sign change of the cross
    product against each edge direction can.
    """

    def link_cut(ax, ay, bx, by):
        blocked = np.zeros(np.shape(ax), dtype=bool)
        frac = np.full(np.shape(ax), np.nan)
        for k, (ux, uy) in enumerate(directions):
            c1 = ux * ay - uy * ax
            c2 = ux * by - uy * bx
            flip = (c1 > 0.0) != (c2 > 0.0)
            denom = np.where(flip, c1 - c2, 1.0)
            tau = np.where(flip, c1 / denom, np.nan)
            pxc = ax + tau * (bx - ax)
            pyc = ay + tau * (by - ay)
            along = pxc * ux + pyc * uy
            hit = flip & (along > 0.0)
            if lengths is not None:
                hit &= np.hypot(pxc, pyc) <= lengths[k]
            better = hit & (~blocked | (tau < frac))
            frac = np.where(better, tau, frac)
            blocked |= hit
        return blocked, frac

    return link_cut


def _polygon_functions(verts: np.ndarray):
    def inside(px, py):
        return _points_in_polygon(px, py, verts)

    def dist(px, py):
        return _polyline_distance(px, py, verts, closed=True)

    return inside, dist


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
    samples = np.asarray(sorted(d.r_samples), dtype=float)
    thetas, rvals = samples[:, 0], samples[:, 1]
    if np.any(rvals <= 0.0):
        raise ValueError("polar graph r(theta) must stay positive")
    beta = d.beta
    gamma0_a = np.array([rvals[0], 0.0])
    gamma0_b = rvals[-1] * np.array([math.cos(beta), math.sin(beta)])
    graph = np.column_stack([rvals * np.cos(thetas), rvals * np.sin(thetas)])

    def r_of(ang):
        return np.interp(ang, thetas, rvals)

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
    get a log-polar grid of n elements per axis, resolving n/16 decades of
    radius.  Polygons whose edges are all horizontal or vertical get a
    boundary-fitted grid of at most n elements per axis, when a uniform x
    spacing of at least n/2 elements puts every vertex on a node; other
    polygons, two-halfline domains and mixed problems get the Cartesian
    lattice with n nodes per side of the square bounding box.  Unbounded
    domains are truncated at `radius` (sector: default 1, scale-free;
    two-halfline domains: default 8 segment lengths) with Dirichlet
    conditions on the truncation arc.  Convex-cap descriptions carry no
    concrete cap geometry and cannot be gridded.
    """
    if isinstance(domain, Sector):
        if not PI < domain.beta <= 2.0 * PI + 1e-12:
            raise ValueError(f"opening angle {domain.beta} outside (pi, 2pi]")
        r = 1.0 if radius is None else float(radius)
        return _sector_tensor_grid(domain.beta, r, n)
    if isinstance(domain, OneReflexPolygon):
        verts = ensure_ccw(domain.vertices)
        grid = _polygon_tensor_grid(verts, n)
        if grid is not None:
            return grid
        x0, y0 = verts.min(axis=0)
        x1, y1 = verts.max(axis=0)
        x0, x1, y0, y1 = _square_box(x0, x1, y0, y1, 0.0)
        inside, dist = _polygon_functions(verts)
        return _assemble(inside, dist, x0, x1, y0, y1, n)
    if isinstance(domain, Ebg):
        r = 8.0 if radius is None else float(radius)
        verts = _ebg_polygon(domain.beta, domain.gamma, r)
        x0, y0 = verts.min(axis=0)
        x1, y1 = verts.max(axis=0)
        x0, x1, y0, y1 = _square_box(x0, x1, y0, y1, 0.0)
        inside, dist = _polygon_functions(verts)
        return _assemble(inside, dist, x0, x1, y0, y1, n)
    if isinstance(domain, Dbeta):
        inside, dist, neumann_side, link_cut, rmax = _dbeta_functions(domain)
        b = 1.01 * rmax
        return _assemble(
            inside, dist, -b, b, -b, b, n, neumann_side=neumann_side, link_cut=link_cut
        )
    if isinstance(domain, SectorCapConvex):
        raise ValueError(
            "convex-cap descriptions have no concrete cap geometry; certify them instead"
        )
    raise TypeError(f"unknown domain description {type(domain).__name__}")


def strip_proxy(n: int, length: float = 3.0) -> GridProblem:
    """Thin-rectangle proxy for the half-plane: weight measures the bottom side only.

    The rectangle is length x 1 with Dirichlet conditions on all four
    sides; only the distance to the bottom side, y, enters the weight.  x
    is uniform and y graded toward the bottom side, n elements each.
    """
    xs = np.linspace(0.0, length, n + 1)
    ys = np.concatenate([[0.0], _graded_offsets(1.0, 0.0, n)])  # exact next to y = 0
    return _tensor_grid(
        xs,
        ys,
        weight=lambda x, y: y**-2.0,
        dist=lambda x, y: y,
    )


# ---------------------------------------------------------------------------
# Pencil eigenvalue.

def _cg(a: sp.csr_matrix, b: np.ndarray, x: np.ndarray, tol: float, cap: int = 20000) -> np.ndarray:
    """Plain conjugate gradients with a warm start; fixed-order reductions."""
    r = b - a @ x
    p = r.copy()
    rs = float(r @ r)
    bnorm = math.sqrt(float(b @ b))
    if bnorm == 0.0:
        return x
    for _ in range(cap):
        ap = a @ p
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * bnorm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def estimate_constant(
    grid: GridProblem,
    tol: float = 1e-9,
    max_iterations: int = 5000,
    cg_tol: float = 1e-8,
    return_vector: bool = False,
):
    """Smallest eigenvalue of the pencil (A, M) by inverse power iteration.

    Each outer step solves A y = M x with the grid's solver (exact on
    tensor grids; warm-started conjugate gradients to tolerance cg_tol on
    Cartesian lattices) and renormalizes in the M-inner product.  The
    Rayleigh quotients fall geometrically, at a rate q estimated from the
    ratio of their last two changes; the loop stops when the last change,
    and the distance to the limit it implies (change * q / (1 - q)), are
    both below tol relative to the quotient.  Deterministic for a fixed
    grid: the start vector is the grid's and all reductions are
    fixed-order.
    """
    a, m = grid.matrix, grid.mass
    mx = m @ grid.start
    scale = math.sqrt(float(grid.start @ mx))
    x, mx = grid.start / scale, mx / scale
    y = x.copy()
    lam_old = math.inf
    change_old = math.inf
    for it in range(1, max_iterations + 1):
        y = grid.solve(mx, y, cg_tol)
        my = m @ y
        scale = math.sqrt(float(y @ my))
        x, mx = y / scale, my / scale
        lam = float(x @ (a @ x)) / float(x @ mx)
        change = abs(lam - lam_old)
        rate = change / change_old if change < change_old else 1.0
        remaining = change * rate / (1.0 - rate) if rate < 1.0 else math.inf
        if max(change, remaining) < tol * max(lam, 1e-300):
            est = RayleighEstimate(lam=lam, iterations=it, h=grid.h)
            return (est, x) if return_vector else est
        lam_old, change_old = lam, change
    raise NumericalError(f"inverse power iteration did not converge in {max_iterations} steps")
