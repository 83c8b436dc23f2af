import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hardyconst.certify import Dbeta, Ebg, OneReflexPolygon, Sector, SectorCapConvex, ShapeError, ensure_ccw
from hardyconst.certify import certify_domain, interior_angles, polygon_vertices
from hardyconst.hardycore import potential_v, solve_c_beta
from hardyconst import rayleigh
from hardyconst.rayleigh import (
    _GAUSS_GRADED,
    _GAUSS_UNIFORM,
    _PAIR_CHUNK,
    NumericalError,
    _dbeta_functions,
    _ebg_polygon,
    _edge_distance,
    _edge_walls,
    _gauss,
    _graded_axis,
    _mass_bands,
    _points_in_polygon,
    _stencil_csr,
    _tensor_grid,
    _tiles as tile_points,
    _wall_cut,
    _wall_distance,
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
    # every solve path: the sector and strip pencils, the lattice, and a
    # polygon's lattice with its corner's sector pencil stacked after it,
    # each through a sparse LU
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


def test_lshape_solve_count():
    # the Lanczos solves at tolerance 1e-6 plus the one that measures the
    # bound, on the lattice with the reflex corner's sector pencil stacked
    # after it, whose vector holds lambda
    for n, solves in ((129, 26), (256, 26)):
        grid = build_grid(lshape(), n)
        est, x = estimate_constant(grid, return_vector=True)
        assert est.iterations == solves
        assert grid.part(x) == "patch"


def sector_tensor_grid(beta, n):
    """The 2-D log-polar Q1 grid of a sector pencil, over all of its elements."""
    pencil = build_grid(Sector(beta), n)
    grid = full_tensor_grid(
        pencil,
        weight=lambda t, theta: _edge_distance(theta, beta) ** -2.0,
        dist=lambda t, theta: np.exp(t) * _edge_distance(theta, beta),
    )
    return pencil, grid


def test_tensor_solve_reuses_its_buffer_without_sharing_results():
    # two consecutive solves by one solver equal two fresh solvers' bit for
    # bit, and no result shares memory with another or with the work buffer
    solve = sector_tensor_grid(1.5 * PI, 33)[1].solve
    loads = np.random.default_rng(5).standard_normal((2, solve.work.shape[0]))
    results = [solve(load) for load in loads]
    for load, got in zip(loads, results):
        assert np.array_equal(got, sector_tensor_grid(1.5 * PI, 33)[1].solve(load))
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
    return _tensor_grid(pencil.xs, pencil.ys, weight, dist)


@pytest.mark.parametrize("beta", [1.2 * PI, 1.5 * PI, 2.0 * PI], ids=["1.2pi", "1.5pi", "2pi"])
@pytest.mark.parametrize("n", [33, 64, 65])
def test_sector_pencil_matches_tensor_grid(beta, n):
    # the log-polar Q1 grid with the infinite sector's weight, which depends
    # on the angle alone: its smallest eigenvalue is the pencil's
    pencil, grid = sector_tensor_grid(beta, n)
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


def test_factored_energies_are_their_own_csc_transpose(monkeypatch):
    # the sparse LU takes the CSR energy's transpose as its CSC form, which
    # holds only where the energy is exactly symmetric in pattern and value:
    # every lattice and pencil the suite builds, and sector pencils
    factored = []
    factor = rayleigh._factor
    monkeypatch.setattr(rayleigh, "_factor", lambda matrix: factored.append(matrix) or factor(matrix))
    sectors = [lambda b=b, n=n: build_grid(Sector(b * PI), n) for b in (1.2, 1.5, 2.0) for n in (32, 65)]
    for build in [*DENSE_CASES.values(), *LATTICE_CASES.values(), *sectors]:
        build()
    assert len(factored) == len(DENSE_CASES) + len(LATTICE_CASES) + len(sectors)
    for matrix in factored:
        csc = matrix.tocsc()
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix.T, field), getattr(csc, field))


@pytest.mark.parametrize("case", LATTICE_CASES)
def test_lattice_solve_is_exact(case):
    # the lattice's LU solves to rounding
    grid = LATTICE_CASES[case]()
    assert grid.kind == "lattice"
    b = np.random.default_rng(7).standard_normal(grid.interior_count)
    x = grid.solve(b)
    assert np.linalg.norm(grid.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


def notched_disk(count):
    """count - 1 vertices on the unit circle and a notch vertex at (1/2, 0)."""
    t = np.linspace(0.05 * PI, 1.95 * PI, count - 1)
    return np.vstack([[0.5, 0.0], np.column_stack([np.cos(t), np.sin(t)])])


def polygon_lattice(domain, n):
    """A polygon's lattice alone, factored: build_grid's grid without the sector pencil it stacks after it."""
    return rayleigh._factored(rayleigh._polygon_lattice(polygon_vertices(domain), n))


def test_polygon_grid_stacks_its_lattice_and_its_widest_corner_pencil():
    # two reflex corners, of 1.5pi + atan(1/2) = 1.648pi at (2, 1) and
    # 1.352pi at (1, 1.5): the grid is the lattice, and the pencil of the
    # wider corner after it
    domain = OneReflexPolygon([(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1.5), (1, 2), (0, 2)])
    grid = build_grid(domain, 48)
    lattice = polygon_lattice(domain, 48)
    beta = float(interior_angles(polygon_vertices(domain))[4])
    assert beta == pytest.approx(1.5 * PI + math.atan(0.5), rel=1e-15)
    pencil = build_grid(Sector(beta), 48)
    assert grid.patch == rayleigh.Patch(vertex=(2.0, 1.0), beta=beta, size=pencil.interior_count)
    for field in ("matrix", "mass"):
        stacked = sp.block_diag([getattr(lattice, field), getattr(pencil, field)], format="csr")
        assert (getattr(grid, field) != stacked).nnz == 0
    for field in ("dist", "start"):
        assert np.array_equal(getattr(grid, field), np.concatenate([getattr(lattice, field), getattr(pencil, field)]))
    for field in ("xs", "ys", "mask"):
        assert np.array_equal(getattr(grid, field), getattr(lattice, field))
    assert (grid.kind, grid.h, grid.dropped) == ("lattice", lattice.h, lattice.dropped)
    # lambda is the smaller of the two parts', and the part that holds the vector says which
    est, x = estimate_constant(grid, return_vector=True)
    parts = {"lattice": estimate_constant(lattice).lam, "patch": estimate_constant(pencil).lam}
    assert est.lam == pytest.approx(min(parts.values()), rel=1e-10)
    assert grid.part(x) == min(parts, key=parts.get) == "patch"
    # a convex polygon has no reflex corner, and no patch
    square = build_grid(OneReflexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 32)
    est, x = estimate_constant(square, return_vector=True)
    assert square.patch is None and square.part(x) == "lattice"


@pytest.mark.parametrize(
    "domain, n",
    [
        (lshape(), 33),
        (OneReflexPolygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (0, 2)]), 33),
        (lshape(), 256),
        (OneReflexPolygon(notched_disk(2000)), 128),
    ],
    ids=["L-shape", "3x2-with-2x1-notch", "L-shape-n256", "notched-disk-2000"],
)
def test_polygon_estimates_stay_above_their_certified_constants(domain, n):
    # the polygons with a reflex corner that the tests, validate-lattice and
    # CI grid: the patch bounds the constant from above at any scale
    assert estimate_constant(build_grid(domain, n)).lam >= certify_domain(domain).constant


def lattice_candidates(grid, domain):
    """Lattice nodes inside a polygon and at least h/2 from its boundary."""
    walls = _edge_walls(np.asarray(domain.vertices, dtype=float))
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    far = _wall_distance(gx, gy, walls) >= 0.5 * grid.h * (1.0 - 1e-9)
    return _points_in_polygon(gx, gy, walls) & far


@pytest.mark.parametrize("n, count, lam", [(64, 1674, 0.547278019395), (65, 1764, 0.481358540608)])
def test_dumbbell_lattice_drops_a_splinter(n, count, lam):
    # the corridor is narrower than h, so no open link crosses it: the
    # lattice falls apart into one component per box.  The boxes tie, and
    # the lowest label, the left box, is kept
    domain = dumbbell(0.45, 0.55)
    grid = polygon_lattice(domain, n)
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
    grid = polygon_lattice(domain, 64)
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


def polygon_probe_points(walls, n):
    """Lattice nodes and link midpoints of the bounding square, wall starts and points on walls."""
    a, b = np.column_stack(walls[:2]), np.column_stack(walls[2:])
    lo, hi = np.minimum(a, b).min(axis=0), np.maximum(a, b).max(axis=0)
    side = float(np.max(hi - lo))
    xs = lo[0] + side * np.linspace(0.0, 1.0, n)
    ys = lo[1] + side * np.linspace(0.0, 1.0, n)
    h = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    t = np.linspace(0.0, 1.0, 7)[:, None, None]
    on_walls = a + t * (b - a)
    px = np.concatenate([gx.ravel(), (gx + 0.5 * h).ravel(), a[:, 0], on_walls[..., 0].ravel()])
    py = np.concatenate([gy.ravel(), (gy + 0.5 * h).ravel(), a[:, 1], on_walls[..., 1].ravel()])
    return px, py


POLYGONS = {
    "ebg-arc": _ebg_polygon(1.5 * PI, 1.5 * PI, 8.0),
    "ebg-asymmetric": _ebg_polygon(1.3 * PI, 0.8 * PI, 8.0),
    "L-shape": ensure_ccw(lshape().vertices),
}


@pytest.mark.parametrize("verts", POLYGONS.values(), ids=POLYGONS.keys())
def test_points_in_polygon_matches_edge_loop(verts):
    walls = _edge_walls(verts)
    px, py = polygon_probe_points(walls, 129)
    got = _points_in_polygon(px, py, walls)
    assert np.array_equal(got, even_odd_by_edge(px, py, verts))
    # and on a 2-D block whose points need several chunks
    gx, gy = px[: 129 * 129].reshape(129, 129), py[: 129 * 129].reshape(129, 129)
    assert np.array_equal(_points_in_polygon(gx, gy, walls), even_odd_by_edge(gx, gy, verts))
    # points at exactly every vertex's height, where the edges' bands end
    lo, hi = verts[:, 0].min() - 1.0, verts[:, 0].max() + 1.0
    hx, hy = np.meshgrid(np.linspace(lo, hi, 257), verts[:, 1])
    assert np.array_equal(_points_in_polygon(hx, hy, walls), even_odd_by_edge(hx, hy, verts))
    assert _points_in_polygon(np.empty(0), np.empty(0), walls).shape == (0,)


def distance_by_segment(px, py, walls):
    """The distance one wall at a time, the reference for _wall_distance."""
    best = np.full(np.shape(px), np.inf)
    for ax, ay, bx, by in zip(*walls):
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
    """The 721-sample polar graph of a Dbeta domain, r = 1 + 0.1 (theta - pi)^2."""
    thetas = np.linspace(0.0, 2.0 * PI, 721)
    r = 1.0 + 0.1 * (thetas - PI) ** 2
    return np.column_stack([r * np.cos(thetas), r * np.sin(thetas)])


WALL_LISTS = {
    "ebg-arc": _edge_walls(POLYGONS["ebg-arc"]),
    "ebg-asymmetric": _edge_walls(POLYGONS["ebg-asymmetric"]),
    # points strung along a long curve; its closing wall is 4.9e-16 long
    "dbeta-graph": _edge_walls(dbeta_graph()),
    # the 2pi slit: two walls from the origin, sin(2pi) = -2.4e-16 apart
    "dbeta-slit": _dbeta_functions(Dbeta(2.0 * PI, [(0.0, 1.0), (PI, 1.0), (2.0 * PI, 1.0)]))[1],
    # repeated vertices, the closing segment among them, make zero-length walls
    "zero-length-closed": _edge_walls(np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 0]])),
}


@pytest.mark.parametrize("walls", WALL_LISTS.values(), ids=WALL_LISTS.keys())
def test_polyline_distance_matches_segment_loop(walls):
    px, py = polygon_probe_points(walls, 129)
    # and points far outside, in every direction
    far = np.random.default_rng(3).uniform(-50.0, 50.0, (2, 2000))
    px, py = np.concatenate([px, far[0]]), np.concatenate([py, far[1]])
    got = _wall_distance(px, py, walls)
    assert np.array_equal(got, distance_by_segment(px, py, walls))
    gx, gy = px[: 129 * 129].reshape(129, 129), py[: 129 * 129].reshape(129, 129)
    got = _wall_distance(gx, gy, walls)
    assert np.array_equal(got, distance_by_segment(gx, gy, walls))
    # few points strung along the walls just off them, in long thin tiles:
    # each wall's midpoint moved 1e-3 along its
    # normal to both sides (a zero-length wall's point is its start)
    a, v = np.column_stack(walls[:2]), np.column_stack(walls[2:]) - np.column_stack(walls[:2])
    length = np.hypot(v[:, 0], v[:, 1])
    normal = np.column_stack([-v[:, 1], v[:, 0]]) / np.where(length == 0.0, 1.0, length)[:, None]
    ox, oy = np.concatenate([a + 0.5 * v + side * 1e-3 * normal for side in (1.0, -1.0)]).T
    got = _wall_distance(ox, oy, walls)
    assert np.array_equal(got, distance_by_segment(ox, oy, walls))
    # a single point, and no points at all
    one = _wall_distance(px[:1], py[:1], walls)
    assert np.array_equal(one, distance_by_segment(px[:1], py[:1], walls))
    assert _wall_distance(np.empty(0), np.empty(0), walls).shape == (0,)


EBG_WALLS = _edge_walls(_ebg_polygon(1.5 * PI, 1.5 * PI, 8.0))
DISTANCE_WALLS = {
    "dbeta": _dbeta_functions(Dbeta(1.7 * PI, [(0.0, 1.0), (0.85 * PI, 1.4), (1.7 * PI, 0.8)]))[1],
    "ebg": EBG_WALLS,
    # coordinates near 1e6, where the absolute slack, 1e-9 of the largest
    # coordinate, is far above the relative one
    "ebg-shifted-1e6": tuple(w + 1e6 for w in EBG_WALLS),
    "lshape": _edge_walls(np.array(lshape().vertices)),
    "notched-disk-2000": _edge_walls(notched_disk(2000)),
    "notched-disk-10000": _edge_walls(notched_disk(10000)),
}


@pytest.mark.parametrize("name", DISTANCE_WALLS)
def test_wall_distance_is_the_plain_minimum_bit_for_bit(name, monkeypatch):
    # a few walls are measured directly, without tiles, and many through
    # them; either way each distance is the minimum over every wall, bit
    # for bit, at points on the walls, past their ends, at the vertices and
    # on a lattice over the walls' box (every 19th point of each kind
    # against 10,000 walls, where the reference loop is slow)
    walls = DISTANCE_WALLS[name]
    a, b = np.column_stack(walls[:2]), np.column_stack(walls[2:])
    t = np.linspace(-0.5, 1.5, 17)
    along = (a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
    lo, hi = np.min(np.vstack([a, b]), axis=0), np.max(np.vstack([a, b]), axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0] - 0.5, hi[0] + 0.5, 101), np.linspace(lo[1] - 0.5, hi[1] + 0.5, 89))
    step = 19 if len(a) > 5000 else 1
    points = np.vstack([along[::step], a[::step], b[::step], np.column_stack([gx.ravel(), gy.ravel()])[::step]])
    px, py = points.T
    tiles = []
    monkeypatch.setattr(rayleigh, "_tiles", lambda x, y: tiles.append(1) or tile_points(x, y))
    got = _wall_distance(px, py, walls)
    assert got.tobytes() == distance_by_segment(px, py, walls).tobytes()
    assert np.count_nonzero(got == 0.0) >= len(a[::step])
    assert bool(tiles) == (len(walls[0]) > rayleigh._DIRECT_WALLS)


def test_wall_distance_of_points_equally_far_from_two_walls():
    # halfway between parallel walls, the two distances are the same
    # float; on the bisectors of the Ebg polygon's corners and on its mirror
    # axis x = 1/2 they agree to rounding.  Either wall may stop a point,
    # and the value is still the plain minimum's
    ys = np.arange(12.0)
    comb = (np.zeros(12), ys, np.full(12, 10.0), ys)
    mx, my = np.meshgrid(np.linspace(-1.0, 11.0, 97), ys[:-1] + 0.5)
    got = _wall_distance(mx, my, comb)
    assert got.tobytes() == distance_by_segment(mx, my, comb).tobytes()
    assert np.array_equal(got[:, 8:-8], np.full((11, 81), 0.5))
    a = np.column_stack(EBG_WALLS[:2])
    u = np.column_stack(EBG_WALLS[2:]) - a
    u /= np.hypot(*u.T)[:, None]
    bisector = np.roll(u, 1, axis=0) - u  # at vertex k, from wall k - 1 into wall k
    s = np.linspace(0.05, 2.0, 40)
    fan = (a[:, None, :] + s[None, :, None] * bisector[:, None, :]).reshape(-1, 2)
    axis = np.column_stack([np.full(200, 0.5), np.linspace(-7.9, 7.9, 200)])
    px, py = np.vstack([fan, axis]).T
    assert _wall_distance(px, py, EBG_WALLS).tobytes() == distance_by_segment(px, py, EBG_WALLS).tobytes()


@given(
    count=st.integers(9, 300),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_wall_distance_matches_the_segment_loop_on_star_polygons(count, seed, scale):
    # random star polygons about the origin, at random points, at every
    # vertex and at points along every edge
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2.0 * PI, count))
    r = rng.uniform(0.2, 2.0, count) * scale
    walls = _edge_walls(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    a, b = np.column_stack(walls[:2]), np.column_stack(walls[2:])
    t = rng.uniform(0.0, 1.0, (count, 1))
    points = np.vstack([rng.uniform(-2.5, 2.5, (500, 2)) * scale, a, a + t * (b - a)])
    px, py = points.T
    assert _wall_distance(px, py, walls).tobytes() == distance_by_segment(px, py, walls).tobytes()


def test_wall_distance_meets_few_walls_per_point(monkeypatch):
    # on the Ebg(1.5pi, 1.5pi) lattice at n = 128 the 12,144 inside nodes
    # meet about 10 walls each after the tile stage (121,429 pairs); every
    # node against its tile's whole candidate list was 288,633
    calls, pairs = [], []
    monkeypatch.setattr(rayleigh, "_wall_distance", lambda *args: calls.append(args) or _wall_distance(*args))
    build_grid(Ebg(1.5 * PI, 1.5 * PI), 128)
    ((px, py, walls),) = calls
    segment_distance = rayleigh._segment_distance
    monkeypatch.setattr(
        rayleigh, "_segment_distance", lambda *args: pairs.append(segment_distance(*args)) or pairs[-1]
    )
    got = _wall_distance(px, py, walls)
    assert got.tobytes() == distance_by_segment(px, py, walls).tobytes()
    assert len(px) == 12144
    # the tile stage measures tile centres, in 2-D blocks; the points come in 1-D
    assert sum(d.size for d in pairs if d.ndim == 1) <= 150_000


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


def wall_cut_by_wall(ax, ay, bx, by, walls):
    """The first wall a link a -> b meets, one wall at a time: the reference for _wall_cut."""
    wx, wy, ex, ey = (np.asarray(w, dtype=float) for w in walls)
    vx, vy = ex - wx, ey - wy
    length = np.hypot(vx, vy)
    best = math.inf
    for wx, wy, ux, uy, length in zip(*(w.tolist() for w in (wx, wy, vx / length, vy / length, length))):
        c_a = ux * (ay - wy) - uy * (ax - wx)
        c_b = ux * (by - wy) - uy * (bx - wx)
        if (c_a > 0.0 and c_b <= 0.0) or (c_a < 0.0 and c_b >= 0.0):
            frac = c_a / (c_a - c_b)
            t = (ax + frac * (bx - ax) - wx) * ux + (ay + frac * (by - ay) - wy) * uy
            if 0.0 <= t <= length:
                best = min(best, frac)
    return best


def check_wall_cut(links, walls):
    """_wall_cut's fractions for links (ax, ay, bx, by), checked against the wall-by-wall loop."""
    ax, ay, bx, by = (np.array(v, dtype=float) for v in zip(*links))
    got = _wall_cut(ax, ay, bx, by, walls)
    ref = [wall_cut_by_wall(*link, walls) for link in zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist())]
    assert np.array_equal(got, ref)
    return got.tolist()


def test_wall_cut_matches_wall_by_wall_loop():
    # one wall from the origin along x, of length 1
    wall = (np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
    assert check_wall_cut(
        [
            (0.5, 0.25, 0.5, 0.0), (0.5, -0.25, 0.5, 0.0),  # far end on the wall, from either side
            (0.5, 0.25, 0.5, -0.75),  # a crossing
            (0.0, -0.5, 0.0, 0.5), (1.0, 0.5, 1.0, -0.5),  # through its start and its end
            (1.5, 0.0, 2.5, 0.0), (-0.25, 0.0, -1.25, 0.0),  # along its line beyond either end
            (1.5, 0.0, 1.25, 0.0),  # and toward it, stopping short
            (0.5, 0.25, 0.5, 0.125), (1.25, 0.5, 1.25, -0.5),  # short of it, and past its end
        ],
        wall,
    ) == [1.0, 1.0, 0.25, 0.5, 0.5] + [math.inf] * 5
    # the 2pi slit is two walls along x, the second sin(2pi) = -2.4e-16 below
    # it: a link onto a slit node or the origin meets them at 1, from either
    # side (from below, the second wall a few ulps short of 1)
    slit = _dbeta_functions(Dbeta(2.0 * PI, [(0.0, 1.0), (PI, 1.0), (2.0 * PI, 1.0)]))[1]
    assert check_wall_cut(
        [
            (0.5, 0.25, 0.5, 0.0), (0.5, -0.25, 0.5, 0.0), (0.5, 0.25, 0.5, -0.25),
            (-0.25, 0.0, 0.0, 0.0), (0.0, 0.25, 0.0, 0.0), (0.0, -0.25, 0.0, 0.0),
            (1.5, 0.25, 1.5, -0.25),
        ],
        slit,
    ) == pytest.approx([1.0, 1.0, 0.5, 1.0, 1.0, 1.0, math.inf], rel=1e-15, abs=0.0)
    # many short links around a 260-edge polygon, several chunks of pairs:
    # the nearest of several walls, and the links that meet none
    verts = _ebg_polygon(1.3 * PI, 0.8 * PI, 8.0)
    walls = _edge_walls(verts)
    rng = np.random.default_rng(11)
    starts = verts[rng.integers(0, len(verts), 4000)] + rng.normal(0.0, 0.1, (4000, 2))
    ends = starts + 0.126 * np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])[rng.integers(0, 4, 4000)]
    # and links ending on the vertices, from both sides of their edges
    on = np.column_stack([verts - (0.0, 0.05), verts, verts + (0.05, 0.0), verts])
    links = np.vstack([np.column_stack([starts, ends]), on.reshape(-1, 4)])
    cut = np.array(check_wall_cut(links.tolist(), walls))
    assert len(links) * len(verts) > 4 * _PAIR_CHUNK
    assert 1000 < np.count_nonzero(np.isfinite(cut)) < len(links)
    assert np.count_nonzero(cut == 1.0) >= len(verts)


def assemble_link_by_link(grid, inside, walls, neumann=False):
    """The lattice energy decided one link at a time, the reference for _assemble.

    Each unknown takes its four directions in the loop order (1, 0),
    (-1, 0), (0, 1), (0, -1).  Each link runs from the unknown's node to its
    neighbour's node, and wall_cut_by_wall places its first wall crossing,
    on every link.  A link is open when both ends are unknowns and its link
    from the lower end meets no wall.  A closed link is a Dirichlet
    half-link with its wall at s, 1 where it meets none, unless neumann is
    set and it meets no wall on its way to an outside node: then it is
    dropped.  Returns the energy and, for the links that took each path
    (open, cut (s < 1), at 1 (s = 1) and Neumann), their far ends and s.
    """
    xs, ys, h = grid.xs, grid.ys, grid.h
    n = len(xs)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    node_in = inside(gx, gy)
    unknown = grid.mask
    number = -np.ones((n, n), dtype=int)
    number[unknown] = np.arange(grid.interior_count)
    xp, yp = [xs[0] - h, *xs, xs[-1] + h], [ys[0] - h, *ys, ys[-1] + h]

    def node(i, j):
        return 0 <= i < n and 0 <= j < n

    def cut(i, j, dx, dy):
        return wall_cut_by_wall(xp[1 + i], yp[1 + j], xp[1 + i + dx], yp[1 + j + dy], walls)

    rows, cols, vals = [], [], []
    paths = {path: [] for path in ("open", "cut", "at 1", "neumann")}
    for i, j in zip(*np.nonzero(unknown)):
        diag = 0.0
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            k, l = i + dx, j + dy
            nbr_in = node(k, l) and bool(node_in[k, l])
            nbr_unknown = node(k, l) and bool(unknown[k, l])
            s = cut(i, j, dx, dy)
            lower = (i, j, dx, dy) if dx + dy > 0 else (k, l, -dx, -dy)
            if nbr_unknown and cut(*lower) == math.inf:
                rows.append(number[i, j])
                cols.append(number[k, l])
                vals.append(-1.0)
                path = "open"
                diag += 1.0
            elif neumann and not nbr_in and s == math.inf:
                path = "neumann"
            else:
                s = min(s, 1.0)
                path = "cut" if s < 1.0 else "at 1"
                diag += 1.0 / s
            paths[path].append((xp[1 + k], yp[1 + l], s))
        rows.append(number[i, j])
        cols.append(number[i, j])
        vals.append(diag)
    size = grid.interior_count
    energy = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    return energy * (1.0 / (h * h)), paths


def lattice_geometry(domain):
    """inside, walls and the Neumann flag of a lattice domain, as build_grid passes them."""
    if isinstance(domain, Dbeta):
        return (*_dbeta_functions(domain)[:2], True)
    verts = _ebg_polygon(domain.beta, domain.gamma, 8.0) if isinstance(domain, Ebg) else polygon_vertices(domain)
    walls = _edge_walls(verts)
    return lambda px, py: _points_in_polygon(px, py, walls), walls, False


def test_lattice_assembly_matches_link_by_link_reference():
    # the assembly tests only the links that start within h of a wall, all
    # four directions in one call; each link must get what it would alone
    total = dict.fromkeys(("open", "cut", "at 1", "neumann"), 0)
    for domain in (
        OneReflexPolygon([(0, 0), (1, 0), (1.3, 0.6), (0.5, 0.4), (0.2, 1.1)]),
        Ebg(1.3 * PI, 0.8 * PI),
        Dbeta(1.5 * PI, [(0.0, 1.0), (0.75 * PI, 1.3), (1.5 * PI, 1.0)]),
        Dbeta(2.0 * PI, [(0.0, 1.0), (PI, 1.0), (2.0 * PI, 1.0)]),
    ):
        grid = polygon_lattice(domain, 33) if isinstance(domain, OneReflexPolygon) else build_grid(domain, 33)
        assert grid.kind == "lattice" and grid.dropped == 0
        energy, paths = assemble_link_by_link(grid, *lattice_geometry(domain))
        assert np.array_equal(grid.matrix.diagonal(), energy.diagonal())
        assert (grid.matrix != energy).nnz == 0
        for path, links in paths.items():
            total[path] += len(links)
        # unknowns sit at least h/2 from every wall, so no cut link's 1/s exceeds 2
        assert min(s for _, _, s in paths["cut"]) >= 0.5 * (1.0 - 1e-9)
    # every path of the assembly was taken
    assert min(total.values()) > 0, total


@pytest.mark.parametrize("n", [33, 49, 65])
def test_no_link_onto_the_slit_is_neumann(n):
    # odd n puts nodes on the slit of a 2pi opening, outside the domain: a
    # link onto one ends on a wall and meets it at s = 1.  As Neumann links
    # they would free the slit and pull the estimate far below c(2pi)
    domain = Dbeta(2.0 * PI, [(0.0, 1.0), (PI, 1.0), (2.0 * PI, 1.0)])
    grid = build_grid(domain, n)
    energy, paths = assemble_link_by_link(grid, *lattice_geometry(domain))
    assert (grid.matrix != energy).nnz == 0
    onto_slit = {path: sum(y == 0.0 and 0.0 <= x <= 1.0 for x, y, _ in ends) for path, ends in paths.items()}
    # each slit node is reached from above and from below
    slit_nodes = np.count_nonzero((grid.xs > 0.0) & (grid.xs < 1.0))
    assert onto_slit["neumann"] == 0 and onto_slit["open"] == 0, onto_slit
    assert onto_slit["cut"] + onto_slit["at 1"] >= 2 * slit_nodes, onto_slit
    assert estimate_constant(grid).lam > solve_c_beta(2.0 * PI).c


# ---------------------------------------------------------------------------
# The Q1 mass of a tensor grid, graded toward a polygon's horizontal edge
# lines, against a plain sum.

BOX_POLYGONS = {
    "L-shape": [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)],
    "3x2-with-2x1-notch": [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (0, 2)],
}


def polygon_axes(verts, n):
    """The uniform x nodes, graded y nodes and inside elements of a polygon's tensor grid (n elements along x)."""
    walls = _edge_walls(verts)
    xs = np.linspace(verts[:, 0].min(), verts[:, 0].max(), n + 1)
    lines = np.unique(verts[:, 1])
    ys = _graded_axis(lines, n // (2 * (len(lines) - 1)))
    cx = np.broadcast_to(0.5 * (xs[:-1] + xs[1:])[:, None], (n, len(ys) - 1))
    cy = np.broadcast_to(0.5 * (ys[:-1] + ys[1:])[None, :], (n, len(ys) - 1))
    return walls, xs, ys, _points_in_polygon(cx, cy, walls)


def plain_mass_bands(xs, ys, weight, elem_in):
    """The Q1 mass bands summed with full-size temporaries, one Gauss point at a time."""
    hx = xs[1] - xs[0]
    dy = np.diff(ys)
    shape = (len(xs) - 2, len(ys) - 2)
    bands = {offset: np.zeros(shape) for offset in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))}
    for xi, wx in zip(*_gauss(_GAUSS_UNIFORM)):
        u = (xs[:-1] + xi * hx)[:, None]
        for eta, wy in zip(*_gauss(_GAUSS_GRADED)):
            v = (ys[:-1] + eta * dy)[None, :]
            w = np.where(elem_in, weight(u, v), 0.0) * (wx * wy * hx * dy)
            f0, f1, f2, f3 = (1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta
            e00, e10, e01, e11 = w[1:, 1:], w[:-1, 1:], w[1:, :-1], w[:-1, :-1]
            bands[(0, 0)] += f0 * f0 * e00 + f1 * f1 * e10 + f2 * f2 * e01 + f3 * f3 * e11
            bands[(0, 1)] += f0 * f2 * e00 + f1 * f3 * e10
            bands[(1, -1)] += f2 * f1 * e01
            bands[(1, 0)] += f0 * f1 * e00 + f2 * f3 * e01
            bands[(1, 1)] += f0 * f3 * e00
    return bands


@pytest.mark.parametrize("name", ["L-shape", "3x2-with-2x1-notch"])
def test_mass_bands_match_the_plain_sum_bit_for_bit(name):
    # the bands are summed in two work arrays in the written order of the
    # terms; every band must equal the plain sum's at n = 64
    verts = np.array(BOX_POLYGONS[name], dtype=float)
    walls, xs, ys, elem_in = polygon_axes(verts, 64)
    assert not elem_in.all()

    def weight(x, y):
        return distance_by_segment(x, y, walls) ** -2.0

    got = _mass_bands(xs, ys, weight, elem_in)
    ref = plain_mass_bands(xs, ys, weight, elem_in)
    assert got.keys() == ref.keys()
    for offset in ref:
        assert got[offset].tobytes() == ref[offset].tobytes(), offset


def plain_stencil_csr(bands, keep):
    """The symmetric stencil matrix through scipy, each backward band a shifted copy of its forward one."""
    p, q = keep.shape
    index = np.full((p, q), -1)
    index[keep] = np.arange(np.count_nonzero(keep))
    rows, cols, vals = [], [], []
    for (di, dj), band in bands.items():
        for sign in ((1,) if (di, dj) == (0, 0) else (1, -1)):
            for i, j in zip(*np.nonzero(keep)):
                a, b = i + sign * di, j + sign * dj
                if 0 <= a < p and 0 <= b < q and keep[a, b]:
                    rows.append(index[i, j])
                    cols.append(index[a, b])
                    vals.append(band[i, j] if sign == 1 else band[a, b])
    count = int(keep.sum())
    return sp.csr_matrix((vals, (rows, cols)), shape=(count, count))


@pytest.mark.parametrize("offsets", [((0, 0), (1, 0), (0, 1)), ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))],
                         ids=["lattice", "tensor"])
def test_stencil_csr_matches_a_plain_assembly(offsets):
    # kept nodes with holes and ragged edges, stored zeros included: every
    # entry in its place, and the matrix exactly symmetric
    rng = np.random.default_rng(17)
    keep = rng.random((13, 11)) < 0.8
    keep[4:7, 3:9] = False
    bands = {offset: rng.standard_normal(keep.shape) for offset in offsets}
    bands[(1, 0)][::3] = 0.0
    got = _stencil_csr(bands, keep)
    ref = plain_stencil_csr(bands, keep)
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()
    assert (got != got.T).nnz == 0
