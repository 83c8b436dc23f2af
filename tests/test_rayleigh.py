import math

import numpy as np
import pytest
import scipy.linalg as la

from hardyconst.certify import Dbeta, Ebg, OneReflexPolygon, Sector, SectorCapConvex
from hardyconst.hardycore import solve_c_beta
from hardyconst.rayleigh import build_grid, estimate_constant, strip_proxy

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
    xs, ys = grid.node_coordinates()
    target = (0.5 - hx, 0.5 - hy)
    k = int(np.argmin((xs - target[0]) ** 2 + (ys - target[1]) ** 2))
    assert math.hypot(xs[k] - target[0], ys[k] - target[1]) < 1e-12
    assert grid.dist[k] == pytest.approx(math.hypot(hx, hy), rel=1e-12)


def test_slit_disk_mask_connected_even_and_odd():
    for n in (64, 65):
        grid = build_grid(Sector(2.0 * PI), n)
        assert grid.component_count() == 1
        assert grid.interior_count > 1000


def test_ebg_truncated_mask_connected():
    grid = build_grid(Ebg(1.5 * PI, 1.5 * PI), 64, radius=8.0)
    assert grid.component_count() == 1


def test_resolution_error():
    with pytest.raises(ValueError):
        build_grid(lshape(), 8)


def test_cap_description_not_griddable():
    with pytest.raises(ValueError):
        build_grid(SectorCapConvex(1.5 * PI, 0.5 * PI, 0.5 * PI), 64)


def test_degenerate_ebg_not_griddable():
    with pytest.raises(ValueError):
        build_grid(Ebg(2.0 * PI, 0.5 * PI), 64)


# ---------------------------------------------------------------------------
# Eigenvalue machinery.

def test_matches_dense_eigensolver():
    grid = build_grid(Sector(2.0 * PI), 33)
    est = estimate_constant(grid)
    dense = la.eigh(
        grid.matrix.toarray(),
        grid.mass.toarray(),
        eigvals_only=True,
        subset_by_index=[0, 0],
    )[0]
    assert est.lam == pytest.approx(dense, abs=1e-9)


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
    assert grid.component_count() == 1
    est = estimate_constant(grid)
    assert 0.2 < est.lam < 0.7


def test_positive_weights_and_symmetry():
    grid = build_grid(lshape(), 49)
    assert np.all(grid.dist > 0)
    asym = (grid.matrix - grid.matrix.T).toarray()
    assert np.max(np.abs(asym)) == 0.0
