import math

import numpy as np
import pytest
import scipy.linalg as la
from scipy.sparse.csgraph import connected_components

from hardyconst.certify import Dbeta, Ebg, OneReflexPolygon, Sector, SectorCapConvex, ShapeError, ensure_ccw
from hardyconst.hardycore import potential_v, solve_c_beta
from hardyconst.rayleigh import (
    _CAPACITANCE_BATCH,
    NumericalError,
    _GRAPH_STEP,
    _ebg_polygon,
    _edge_distance,
    _graph_angles,
    _points_in_polygon,
    _polyline_distance,
    _tensor_grid,
    build_grid,
    estimate_constant,
    strip_proxy,
)

PI = math.pi


def lshape():
    return OneReflexPolygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)])


# ---------------------------------------------------------------------------
# Grid construction.

def test_unit_square_distances_bounded():
    square = OneReflexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    grid = build_grid(square, 64)
    assert np.all(grid.dist <= 0.5 + 1e-12)
    assert np.all(grid.dist >= 0.5 * grid.h * (1 - 1e-6))


def test_lshape_reflex_corner_diagonal_neighbor():
    # node one diagonal step into the interior from the reflex vertex:
    # its nearest boundary feature is the corner point itself
    grid = build_grid(lshape(), 65)
    i = int(np.argmin(np.abs(grid.xs - 0.5)))
    j = int(np.argmin(np.abs(grid.ys - 0.5)))
    hx = grid.xs[i] - grid.xs[i - 1]
    hy = grid.ys[j] - grid.ys[j - 1]
    nodes_i, nodes_j = np.nonzero(grid.mask)
    xs, ys = grid.xs[nodes_i], grid.ys[nodes_j]
    target = (0.5 - hx, 0.5 - hy)
    k = int(np.argmin((xs - target[0]) ** 2 + (ys - target[1]) ** 2))
    assert math.hypot(xs[k] - target[0], ys[k] - target[1]) < 1e-12
    assert grid.dist[k] == pytest.approx(math.hypot(hx, hy), rel=1e-12)


def test_slit_disk_mask_connected_even_and_odd():
    # the sector is a pencil along the angle: one unknown per interior angle node
    for n in (64, 65):
        grid = build_grid(Sector(2.0 * PI), n)
        assert connected_components(grid.matrix, directed=False)[0] == 1
        assert grid.interior_count == len(grid.ys) - 2 == np.count_nonzero(grid.mask)


def test_ebg_truncated_mask_connected():
    grid = build_grid(Ebg(1.5 * PI, 1.5 * PI), 64, radius=8.0)
    assert connected_components(grid.matrix, directed=False)[0] == 1


def test_resolution_error():
    with pytest.raises(ValueError):
        build_grid(lshape(), 8)


def test_cap_description_not_griddable():
    with pytest.raises(ValueError):
        build_grid(SectorCapConvex(1.5 * PI, 0.5 * PI, 0.5 * PI), 64)


def test_degenerate_ebg_not_griddable():
    with pytest.raises(ValueError):
        build_grid(Ebg(2.0 * PI, 0.5 * PI), 64)


def test_non_simple_polygon_not_griddable():
    # certify refuses both polygons with the same check
    crossed = OneReflexPolygon([(0, 0), (2, 0), (2, 1), (0, 1.5), (2, 2), (0, 2.2)])
    with pytest.raises(ShapeError, match="not simple"):
        build_grid(crossed, 64)
    with pytest.raises(ShapeError, match="repeated"):
        build_grid(OneReflexPolygon([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)]), 64)


def test_edge_distance_is_the_potential_weight():
    # the pencil's distance at r = 1 is shooting's V^-1/2, from edge to edge
    for beta in np.linspace(PI, 2.0 * PI, 11):
        thetas = np.linspace(0.0, beta, 203)[1:-1]
        expected = [potential_v(float(theta), float(beta)) ** -0.5 for theta in thetas]
        np.testing.assert_allclose(_edge_distance(thetas, beta), expected, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# Eigenvalue machinery.

DENSE_CASES = {
    "slit-disk": lambda: build_grid(Sector(2.0 * PI), 33),
    "L-shape": lambda: build_grid(lshape(), 33),
    "3x2-with-2x1-notch": lambda: build_grid(
        OneReflexPolygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (0, 2)]), 33
    ),
    "strip": lambda: strip_proxy(33),
    "ebg-lattice": lambda: build_grid(Ebg(1.5 * PI, 1.5 * PI), 48, radius=8.0),
    "dbeta-lattice": lambda: build_grid(Dbeta.from_function(1.5 * PI, lambda t: 1.0), 48),
}


@pytest.mark.parametrize("case", DENSE_CASES)
def test_matches_dense_eigensolver(case):
    # every solve path: log-polar, graded with and without capacitance
    # correction, and the lattice's sparse LU
    grid = DENSE_CASES[case]()
    est = estimate_constant(grid)
    dense = la.eigh(
        grid.matrix.toarray(),
        grid.mass.toarray(),
        eigvals_only=True,
        subset_by_index=[0, 0],
    )[0]
    assert est.lam == pytest.approx(dense, abs=5e-12)


@pytest.mark.parametrize("case", DENSE_CASES)
def test_residual_bound_contains_dense_eigenvalue(case):
    # Krylov-Weinstein: some eigenvalue lies in [lam/(1+eta), lam/(1-eta)],
    # eta = |r|_{A^-1} / |x|_A with r = Ax - lam Mx
    grid = DENSE_CASES[case]()
    est, x = estimate_constant(grid, return_vector=True)
    eta = est.residual_bound
    assert math.isfinite(eta) and eta >= 0.0
    a, m = grid.matrix.toarray(), grid.mass.toarray()
    dense = la.eigh(a, m, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert est.lam / (1.0 + eta) <= dense <= est.lam / (1.0 - eta)
    # the grid's solve against a dense one: at most 8.6e-7 apart (strip)
    r = a @ x - est.lam * (m @ x)
    exact = math.sqrt(r @ la.solve(a, r, assume_a="pos") / (x @ a @ x))
    assert eta == pytest.approx(exact, rel=1e-5)


CAPACITANCE_CASES = {
    "L-shape": lambda: build_grid(lshape(), 65),
    "3x2-with-2x1-notch": DENSE_CASES["3x2-with-2x1-notch"],
    # the ring's lowest row is in the middle of the box
    "U-shape": lambda: build_grid(
        OneReflexPolygon(
            [(0, 0), (1, 0), (1, 1), (0.75, 1), (0.75, 0.25), (0.25, 0.25), (0.25, 1), (0, 1)]
        ),
        65,
    ),
    # the ring reaches the box's lowest row
    "bottom-notched-L": lambda: build_grid(
        OneReflexPolygon([(0, 0), (0.5, 0), (0.5, 0.5), (1, 0.5), (1, 1), (0, 1)]), 65
    ),
}


@pytest.mark.parametrize("case", CAPACITANCE_CASES)
def test_capacitance_matrix_matches_stacked_solves(case):
    # the capacitance matrix is solved on the rows from the lowest ring row
    # up; it must equal, bit for bit, the box solve of each unit ring force
    # through the full stacked pttrs solve that the corrected solve applies
    grid = CAPACITANCE_CASES[case]()
    assert grid.kind == "graded"
    solve = grid.solve
    size = len(solve.ring)
    ref = np.empty((size, size))
    for s in range(0, size, _CAPACITANCE_BATCH):
        cols = np.arange(s, min(s + _CAPACITANCE_BATCH, size))
        unit = np.zeros((size, len(cols)))
        unit[cols, np.arange(len(cols))] = 1.0
        ref[:, cols] = solve._ring_values(solve._modes(solve._ring_load(unit)))
    assert np.array_equal(solve.cap[0], la.cho_factor(0.5 * (ref + ref.T))[0])


def test_lshape_solve_count():
    # the Lanczos solves at tolerance 1e-6 plus the one that measures the
    # bound, with the tensor grid's 16 Lanczos vectors
    for n, solves in ((129, 50), (256, 82)):
        grid = build_grid(lshape(), n)
        assert grid.ncv == 16
        assert estimate_constant(grid).iterations == solves


def test_tensor_solve_reuses_its_buffer_without_sharing_results():
    # two consecutive solves by one solver equal two fresh solvers' bit for
    # bit, and no result shares memory with another or with the work buffer
    solve = build_grid(lshape(), 65).solve
    loads = np.random.default_rng(5).standard_normal((2, len(solve.kept)))
    results = [solve(load) for load in loads]
    for load, got in zip(loads, results):
        assert np.array_equal(got, build_grid(lshape(), 65).solve(load))
    assert not np.shares_memory(*results)
    assert not any(np.shares_memory(got, solve.work) for got in results)


@pytest.mark.parametrize("failure", ["eigsh", "splu"])
def test_solver_failure_raises_numerical_error(break_solver, failure):
    # a lattice and a sector pencil: splu factors their energy while the grid is built
    break_solver(failure)
    for domain, n, radius in ((Ebg(1.5 * PI, 1.5 * PI), 48, 8.0), (Sector(1.5 * PI), 64, None)):
        with pytest.raises(NumericalError):
            estimate_constant(build_grid(domain, n, radius=radius))


def full_tensor_grid(pencil, weight, dist):
    """The 2-D Q1 grid whose lowest mode a pencil is, over all of its xs-by-ys elements."""
    elements = np.ones((len(pencil.xs) - 1, len(pencil.ys) - 1), dtype=bool)
    return _tensor_grid(pencil.xs, pencil.ys, weight, dist, elements)


@pytest.mark.parametrize("beta", [1.2 * PI, 1.5 * PI, 2.0 * PI], ids=["1.2pi", "1.5pi", "2pi"])
@pytest.mark.parametrize("n", [33, 64, 65])
def test_sector_pencil_matches_tensor_grid(beta, n):
    # the log-polar Q1 grid with the infinite sector's weight, which depends
    # on the angle alone: its smallest eigenvalue is the pencil's
    pencil = build_grid(Sector(beta), n)
    grid = full_tensor_grid(
        pencil,
        weight=lambda t, theta: _edge_distance(theta, beta) ** -2.0,
        dist=lambda t, theta: np.exp(t) * _edge_distance(theta, beta),
    )
    assert grid.interior_count == (len(pencil.xs) - 2) * pencil.interior_count
    assert estimate_constant(pencil).lam == pytest.approx(estimate_constant(grid).lam, abs=1e-12)


@pytest.mark.parametrize("n", [33, 49])
def test_strip_pencil_matches_tensor_grid(n):
    pencil = strip_proxy(n)
    grid = full_tensor_grid(pencil, weight=lambda x, y: y**-2.0, dist=lambda x, y: y)
    assert estimate_constant(pencil).lam == pytest.approx(estimate_constant(grid).lam, abs=1e-12)


def test_strip_lambda_is_pinned():
    assert estimate_constant(strip_proxy(49)).lam == pytest.approx(0.2671146344142, abs=1e-12)
    assert estimate_constant(strip_proxy(128)).lam == pytest.approx(0.2538394527860, abs=1e-12)


def test_sector_sweep_stays_above_its_constant():
    # 41 openings in (pi, 2pi] at n = 256: the pencil is a Rayleigh-Ritz upper
    # estimate of the infinite sector's c(beta), no slack, and its excess
    # measured 2.5e-3 to 7.9e-3
    for beta in np.linspace(PI, 2.0 * PI, 42)[1:]:
        lam = estimate_constant(build_grid(Sector(float(beta)), 256)).lam
        c = solve_c_beta(float(beta)).c
        assert c <= lam <= c + 7.9e-3, (beta / PI, lam, c)


def dumbbell(left, right):
    """Boxes [0, left] and [right, 1] by [0, 1] joined by a slanted corridor 0.004 high."""
    return OneReflexPolygon(
        [(0, 0), (left, 0), (left, 0.498), (right, 0.499), (right, 0), (1, 0), (1, 1),
         (right, 1), (right, 0.503), (left, 0.502), (left, 1), (0, 1)]
    )


LATTICE_CASES = {
    "ebg-lattice": DENSE_CASES["ebg-lattice"],
    "dbeta-lattice": DENSE_CASES["dbeta-lattice"],
    # a notch at x = 0.437 fits no uniform x spacing: the lattice, not a graded grid
    "notch-lattice": lambda: build_grid(
        OneReflexPolygon([(0, 0), (1, 0), (1, 0.5), (0.437, 0.5), (0.437, 1), (0, 1)]), 128
    ),
    "dumbbell-lattice": lambda: build_grid(dumbbell(0.45, 0.55), 64),
}


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_lattice_solve_is_exact(case):
    # the lattice's LU solves to rounding
    grid = LATTICE_CASES[case]()
    assert grid.kind == "lattice"
    b = np.random.default_rng(7).standard_normal(grid.interior_count)
    x = grid.solve(b)
    assert np.linalg.norm(grid.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


def lattice_candidates(grid, domain):
    """Lattice nodes inside a polygon and at least h/2 from its boundary."""
    verts = np.asarray(domain.vertices, dtype=float)
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    far = _polyline_distance(gx, gy, verts) >= 0.5 * grid.h * (1.0 - 1e-9)
    return _points_in_polygon(gx, gy, verts) & far


@pytest.mark.parametrize("n, count, lam", [(64, 1674, 0.547278028357), (65, 1764, 0.481358557219)])
def test_dumbbell_lattice_drops_a_splinter(n, count, lam):
    # the corridor is narrower than h, so no open link crosses it: the
    # lattice falls apart into one component per box.  The boxes tie, and
    # the lowest label, the left box, is kept
    domain = dumbbell(0.45, 0.55)
    grid = build_grid(domain, n)
    assert grid.kind == "lattice"
    assert connected_components(grid.matrix, directed=False)[0] == 1
    assert grid.interior_count == count
    assert grid.dropped == count
    candidates = lattice_candidates(grid, domain)
    assert np.array_equal(grid.mask, candidates & (grid.xs[:, None] < 0.45))
    assert np.count_nonzero(candidates) == 2 * count
    assert estimate_constant(grid).lam == pytest.approx(lam, abs=1e-12)


def test_lattice_keeps_its_largest_component():
    # the right box is larger, and it is the one kept
    domain = dumbbell(0.2, 0.3)
    grid = build_grid(domain, 64)
    assert connected_components(grid.matrix, directed=False)[0] == 1
    candidates = lattice_candidates(grid, domain)
    assert np.array_equal(grid.mask, candidates & (grid.xs[:, None] > 0.3))
    assert grid.dropped == np.count_nonzero(candidates & (grid.xs[:, None] < 0.2))


def even_odd_by_edge(px, py, verts):
    """The even-odd rule one edge at a time, the reference for _points_in_polygon."""
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


def polygon_probe_points(verts, n):
    """Lattice nodes and link midpoints of the bounding square, vertices and points on edges."""
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    side = float(np.max(hi - lo))
    xs = lo[0] + side * np.linspace(0.0, 1.0, n)
    ys = lo[1] + side * np.linspace(0.0, 1.0, n)
    h = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    b = np.roll(verts, -1, axis=0)
    t = np.linspace(0.0, 1.0, 7)[:, None, None]
    on_edges = verts + t * (b - verts)
    px = np.concatenate([gx.ravel(), (gx + 0.5 * h).ravel(), verts[:, 0], on_edges[..., 0].ravel()])
    py = np.concatenate([gy.ravel(), (gy + 0.5 * h).ravel(), verts[:, 1], on_edges[..., 1].ravel()])
    return px, py


POLYGONS = {
    "ebg-arc": _ebg_polygon(1.5 * PI, 1.5 * PI, 8.0),
    "ebg-asymmetric": _ebg_polygon(1.3 * PI, 0.8 * PI, 8.0),
    "L-shape": ensure_ccw(lshape().vertices),
}


@pytest.mark.parametrize("verts", POLYGONS.values(), ids=POLYGONS.keys())
def test_points_in_polygon_matches_edge_loop(verts):
    px, py = polygon_probe_points(verts, 129)
    got = _points_in_polygon(px, py, verts)
    assert np.array_equal(got, even_odd_by_edge(px, py, verts))
    # and on a 2-D block whose points need several chunks
    gx, gy = px[: 129 * 129].reshape(129, 129), py[: 129 * 129].reshape(129, 129)
    assert np.array_equal(_points_in_polygon(gx, gy, verts), even_odd_by_edge(gx, gy, verts))
    # points at exactly every vertex's height, where the edges' bands end
    lo, hi = verts[:, 0].min() - 1.0, verts[:, 0].max() + 1.0
    hx, hy = np.meshgrid(np.linspace(lo, hi, 257), verts[:, 1])
    assert np.array_equal(_points_in_polygon(hx, hy, verts), even_odd_by_edge(hx, hy, verts))
    assert _points_in_polygon(np.empty(0), np.empty(0), verts).shape == (0,)


def distance_by_segment(px, py, verts, closed=True):
    """The distance one segment at a time, the reference for _polyline_distance."""
    best = np.full(np.shape(px), np.inf)
    n = len(verts)
    for i in range(n if closed else n - 1):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        vx, vy = bx - ax, by - ay
        ll = vx * vx + vy * vy
        if ll == 0.0:
            d = np.hypot(px - ax, py - ay)
        else:
            t = np.clip(((px - ax) * vx + (py - ay) * vy) / ll, 0.0, 1.0)
            d = np.hypot(px - ax - t * vx, py - ay - t * vy)
        best = np.minimum(best, d)
    return best


def dbeta_graph():
    """The open 721-sample polar graph of a Dbeta domain, r = 1 + 0.1 (theta - pi)^2."""
    thetas = np.linspace(0.0, 2.0 * PI, 721)
    r = 1.0 + 0.1 * (thetas - PI) ** 2
    return np.column_stack([r * np.cos(thetas), r * np.sin(thetas)])


POLYLINES = {
    "ebg-arc": (POLYGONS["ebg-arc"], True),
    "ebg-asymmetric": (POLYGONS["ebg-asymmetric"], True),
    "dbeta-graph": (dbeta_graph(), False),
    # repeated vertices, the closing segment among them, make zero-length segments
    "zero-length-closed": (np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 0]]), True),
    "zero-length-open": (np.array([[0, 0], [0, 0], [1, 0], [1, 1], [1, 1]], dtype=float), False),
}


@pytest.mark.parametrize("verts, closed", POLYLINES.values(), ids=POLYLINES.keys())
def test_polyline_distance_matches_segment_loop(verts, closed):
    px, py = polygon_probe_points(verts, 129)
    # and points far outside, in every direction
    far = np.random.default_rng(3).uniform(-50.0, 50.0, (2, 2000))
    px, py = np.concatenate([px, far[0]]), np.concatenate([py, far[1]])
    got = _polyline_distance(px, py, verts, closed)
    assert np.array_equal(got, distance_by_segment(px, py, verts, closed))
    gx, gy = px[: 129 * 129].reshape(129, 129), py[: 129 * 129].reshape(129, 129)
    got = _polyline_distance(gx, gy, verts, closed)
    assert np.array_equal(got, distance_by_segment(gx, gy, verts, closed))
    # a single point, and no points at all
    one = _polyline_distance(px[:1], py[:1], verts, closed)
    assert np.array_equal(one, distance_by_segment(px[:1], py[:1], verts, closed))
    assert _polyline_distance(np.empty(0), np.empty(0), verts, closed).shape == (0,)


def test_deterministic_repeat():
    grid = build_grid(lshape(), 49)
    a = estimate_constant(grid)
    b = estimate_constant(grid)
    assert a.lam == b.lam
    assert a.iterations == b.iterations


def test_refinement_decreases_slit_estimate():
    vals = [estimate_constant(build_grid(Sector(2.0 * PI), n)).lam for n in (33, 65, 129)]
    assert vals[0] >= vals[1] >= vals[2] - 1e-3


def test_refinement_trend_even_family():
    # on the log-polar grid n sets both the decades of radius (n/16) and the
    # angular elements; the discrete minimum decreases as n doubles
    vals = [estimate_constant(build_grid(Sector(2.0 * PI), n)).lam for n in (64, 128, 256)]
    assert vals[0] >= vals[1] >= vals[2] - 1e-3


def test_estimates_stay_above_certified_constants():
    # the discrete minimum is an upper estimate of the Hardy constant; the
    # boundary-fitted grids are Rayleigh-Ritz (conforming Q1), so no slack
    for n in (128, 129):
        slit = estimate_constant(build_grid(Sector(2.0 * PI), n)).lam
        assert slit >= 0.2053582 - 0.01
        assert slit >= solve_c_beta(2.0 * PI).c
    lsh = estimate_constant(build_grid(lshape(), 129)).lam
    assert lsh >= 0.25 - 0.01
    assert lsh >= 0.25
    for n in (49, 128):
        assert estimate_constant(strip_proxy(n)).lam >= 0.25


def column_problem(y):
    """1D linear-element stiffness and exact 1/y^2-weighted mass on nodes y.

    y includes both end nodes (Dirichlet); y[0] may be 0.
    """
    m = len(y) - 2  # interior rows
    a1 = np.zeros((m + 2, m + 2))
    d1 = np.zeros((m + 2, m + 2))
    for e in range(m + 1):
        a, b = y[e], y[e + 1]
        h = b - a
        a1[e : e + 2, e : e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        if a == 0.0:  # only the hat y/b lives here: (y/b)^2 / y^2 = 1/b^2
            d1[e + 1, e + 1] += 1.0 / b
            continue
        log = math.log(b / a)
        d1[e, e] += (b * h / a - 2.0 * b * log + h) / h**2
        d1[e + 1, e + 1] += (h - 2.0 * a * log + a * h / b) / h**2
        d1[e, e + 1] += ((a + b) * log - 2.0 * h) / h**2
        d1[e + 1, e] = d1[e, e + 1]
    return a1[1:-1, 1:-1], d1[1:-1, 1:-1]


def test_strip_estimate_bounded_below_by_column_problem():
    # dropping the x-derivatives bounds the 2D quotient by the 1D problem
    # on the grid's own rows: linear elements in y against the 1/y^2 weight
    n = 49
    grid = strip_proxy(n)
    est = estimate_constant(grid)
    a1, d1 = column_problem(grid.ys)
    lam1 = la.eigh(a1, d1, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert est.lam >= lam1 - 1e-9
    assert est.lam <= lam1 + 0.2  # the x-cutoff penalty is mild


def test_ebg_symmetric_eigenvector():
    grid = build_grid(Ebg(1.5 * PI, 1.5 * PI), 96, radius=8.0)
    # lattice and mask must be exactly mirror symmetric in the node index
    nx = grid.mask.shape[0]
    assert np.array_equal(grid.mask, grid.mask[::-1, :])
    est, vec = estimate_constant(grid, return_vector=True)
    full = np.full(grid.mask.shape, np.nan)
    full[grid.mask] = vec
    mirrored = full[::-1, :]
    diff = np.nanmax(np.abs(full - mirrored)) / np.nanmax(np.abs(full))
    assert diff < 1e-6


def test_dbeta_neumann_smoke():
    # mixed problem on a 3/4 disk: Dirichlet radii, Neumann arc
    grid = build_grid(Dbeta.from_function(1.5 * PI, lambda t: 1.0), 81)
    assert connected_components(grid.matrix, directed=False)[0] == 1
    est = estimate_constant(grid)
    assert 0.2 < est.lam < 0.7


@pytest.mark.parametrize("n", [49, 65])
def test_sparse_polar_graph_takes_its_curve(n):
    # three samples of r = 1 on a 2pi opening describe the slit unit disk, as
    # 721 do: the chords between them would run along the slit, and links
    # onto slit nodes (odd n puts nodes on it) would become Neumann links
    sparse = build_grid(Dbeta(2.0 * PI, [(0.0, 1.0), (PI, 1.0), (2.0 * PI, 1.0)]), n)
    dense = build_grid(Dbeta.from_function(2.0 * PI, lambda t: 1.0), n)
    assert np.array_equal(sparse.mask, dense.mask)
    assert np.array_equal(sparse.dist, dense.dist)
    assert (sparse.matrix != dense.matrix).nnz == 0


def test_graph_angles_match_per_gap_linspace():
    rng = np.random.default_rng(7)
    samplings = [np.array([0.0, 1.0, 2.0]), np.linspace(0.0, 2.0 * PI, 721)]
    samplings += [np.sort(rng.uniform(0.0, 2.0 * PI, int(rng.integers(3, 40)))) for _ in range(100)]
    for thetas in samplings:
        pieces = np.ceil(np.diff(thetas) / _GRAPH_STEP).astype(int)
        expected = np.concatenate(
            [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(thetas, thetas[1:], pieces)]
            + [thetas[-1:]]
        )
        assert np.array_equal(_graph_angles(thetas), expected)
    assert len(_graph_angles(samplings[0])) > 3  # the slit's gaps take several pieces


@pytest.mark.parametrize("case", DENSE_CASES)
def test_positive_weights_and_symmetry(case):
    grid = DENSE_CASES[case]()
    assert np.all(grid.dist > 0)
    for matrix in (grid.matrix, grid.mass):
        assert (matrix != matrix.T).nnz == 0


def test_lattice_links_are_decided_once():
    # a notch one ulp wide, its walls at the midpoints of the link from
    # xs[12] to xs[13] as each end computes them: the two ends' midpoint
    # tests disagree on links across it, but each link is open or closed
    # as its lower end says, so the energy stays symmetric
    xs = np.linspace(0.0, 1.0, 40)
    h = xs[1] - xs[0]
    m1, m2 = 0.5 * (xs[12] + (xs[12] + h)), 0.5 * (xs[13] + (xs[13] - h))
    assert (m1, m2) == (0.32051282051282054, 0.3205128205128205)
    notch = OneReflexPolygon(
        [(0, 0), (1, 0), (1, 0.9), (0.95, 1), (m1, 1), (m1, 0.5), (m2, 0.5), (m2, 1), (0, 1)]
    )
    grid = build_grid(notch, 40)
    assert grid.kind == "lattice"
    assert (grid.matrix != grid.matrix.T).nnz == 0
