import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyconst import f_func, g_func, solve_c_beta
from hardyconst.certify import (
    CERTIFIED,
    CONDITION_FAILED,
    INCONCLUSIVE,
    Dbeta,
    Ebg,
    OneReflexPolygon,
    Sector,
    SectorCapConvex,
    ShapeError,
    boundary_form_samples,
    certify_domain,
    check_dbeta,
    check_ebg,
    check_one_reflex_polygon,
    check_sector_cap,
    ensure_ccw,
    interior_angles,
    theta1_gamma3,
    theta1_two_sided,
)

PI = math.pi


# ---------------------------------------------------------------------------
# Polygon geometry.

def test_interior_angles_lshape(lshape_vertices):
    ang = interior_angles(lshape_vertices)
    assert sorted(np.round(ang / PI, 9)) == pytest.approx([0.5] * 5 + [1.5])


def test_orientation_normalized(lshape_vertices):
    rev = list(reversed(lshape_vertices))
    assert np.allclose(interior_angles(rev), interior_angles(ensure_ccw(rev)))
    assert check_one_reflex_polygon(OneReflexPolygon(rev)).verdict == CERTIFIED


def test_degenerate_polygon_rejected():
    with pytest.raises(ShapeError):
        interior_angles([(0, 0), (1, 0)])
    with pytest.raises(ShapeError):
        interior_angles([(0, 0), (1, 0), (2, 0)])


def test_self_intersecting_rejected():
    bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    with pytest.raises(ShapeError):
        check_one_reflex_polygon(OneReflexPolygon(bowtie))


# ---------------------------------------------------------------------------
# One-reflex polygons.

def test_lshape_certified(lshape_vertices):
    rep = check_one_reflex_polygon(OneReflexPolygon(lshape_vertices))
    assert rep.verdict == CERTIFIED
    assert rep.constant == 0.25
    assert all(c.margin > 0 for c in rep.checks)


def test_slitlike_condition_fails(slitlike_vertices):
    rep = check_one_reflex_polygon(OneReflexPolygon(slitlike_vertices))
    assert rep.verdict == CONDITION_FAILED
    assert rep.constant is None
    assert rep.failed_condition is not None
    assert any(c.margin < 0 for c in rep.checks)


def test_convex_polygon_is_shape_error():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(ShapeError):
        check_one_reflex_polygon(OneReflexPolygon(square))


def test_two_reflex_vertices_is_shape_error():
    # zigzag with two reflex corners
    verts = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (2, 1), (2, 3), (0, 3)]
    ang = interior_angles(verts)
    assert int(np.sum(ang > PI + 1e-9)) == 2
    with pytest.raises(ShapeError):
        check_one_reflex_polygon(OneReflexPolygon(verts))


@given(
    dx=st.floats(min_value=-2.0, max_value=2.0),
    dy=st.floats(min_value=-2.0, max_value=2.0),
    rot=st.floats(min_value=0.0, max_value=2.0 * PI),
    scale=st.floats(min_value=0.05, max_value=20.0),
)
def test_rigid_motion_and_scaling_invariance(dx, dy, rot, scale):
    base = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0), (0.0, 1.0)]
    cos_r, sin_r = math.cos(rot), math.sin(rot)
    moved = [
        (
            scale * (cos_r * x - sin_r * y) + dx,
            scale * (sin_r * x + cos_r * y) + dy,
        )
        for x, y in base
    ]
    rep = check_one_reflex_polygon(OneReflexPolygon(moved))
    assert rep.verdict == CERTIFIED
    assert rep.constant == 0.25


# ---------------------------------------------------------------------------
# Sector caps.

def test_unbounded_cap_unconditional():
    rep = check_sector_cap(SectorCapConvex(2.0 * PI, 0.0, 0.0, bounded=False))
    assert rep.verdict == CERTIFIED
    assert rep.constant == pytest.approx(0.2054, abs=1e-3)


def test_bounded_cap_certified():
    rep = check_sector_cap(SectorCapConvex(1.3 * PI, 0.65 * PI, 0.65 * PI, bounded=True))
    assert rep.verdict == CERTIFIED
    assert rep.constant == 0.25


def test_bounded_cap_condition_fails():
    rep = check_sector_cap(SectorCapConvex(2.0 * PI, 0.75 * PI, 0.5 * PI, bounded=True))
    assert rep.verdict == CONDITION_FAILED
    assert rep.constant is None


def test_cap_domain_error():
    with pytest.raises(ValueError):
        check_sector_cap(SectorCapConvex(PI, 0.5 * PI, 0.5 * PI))


# ---------------------------------------------------------------------------
# Two-halfline domains.

def test_ebg_single_reflex_angle():
    rep = check_ebg(Ebg(1.8 * PI, 0.5 * PI))
    assert rep.verdict == CERTIFIED
    assert rep.constant == pytest.approx(solve_c_beta(1.8 * PI).c, rel=1e-12)


def test_ebg_two_reflex_angles_symmetric():
    rep = check_ebg(Ebg(1.5 * PI, 1.5 * PI))
    assert rep.verdict == CERTIFIED
    assert rep.constant == pytest.approx(0.2054, abs=1e-3)


def test_ebg_boundary_case_full_slit():
    # |beta - gamma| = pi against (2/c) arccos(2 sqrt(c)) ~ 4.25
    rep = check_ebg(Ebg(2.0 * PI, PI))
    assert rep.verdict == CERTIFIED
    assert rep.constant == pytest.approx(0.2054, abs=1e-3)


def test_ebg_condition_fails_is_inconclusive():
    # combined angle still subcritical: the arccos bound degenerates to zero
    rep = check_ebg(Ebg(1.4 * PI, 1.1 * PI))
    assert rep.verdict == INCONCLUSIVE
    assert rep.constant is None
    assert rep.checks[0].margin < 0


def test_ebg_orders_angles():
    a = check_ebg(Ebg(1.8 * PI, 0.5 * PI))
    b = check_ebg(Ebg(0.5 * PI, 1.8 * PI))
    assert a == b


def test_ebg_seam_consistency():
    # the two-angle constant c(beta + gamma - pi) matches the one-angle
    # constant c(beta) as gamma -> pi; beta large enough that the arccos
    # bound still covers |beta - gamma| = beta - pi on the two-angle side
    lo = check_ebg(Ebg(1.9 * PI, PI - 1e-9))
    hi = check_ebg(Ebg(1.9 * PI, PI + 1e-9))
    assert lo.verdict == hi.verdict == CERTIFIED
    assert abs(lo.constant - hi.constant) < 1e-6


def test_ebg_domain_errors():
    with pytest.raises(ValueError):
        check_ebg(Ebg(2.0 * PI, 1.2 * PI))  # halflines would intersect
    with pytest.raises(ValueError):
        check_ebg(Ebg(0.8 * PI, 0.5 * PI))  # no reflex angle at all


# ---------------------------------------------------------------------------
# Mixed Dirichlet-Neumann domains.

def test_dbeta_constant_profile():
    rep = check_dbeta(Dbeta.from_function(2.0 * PI, lambda t: 1.0))
    assert rep.verdict == CERTIFIED
    assert rep.constant == pytest.approx(0.2054, abs=1e-3)


def test_dbeta_monotone_vee_profile():
    beta = 1.8 * PI
    rep = check_dbeta(Dbeta.from_function(beta, lambda t: 1.0 + (t - 0.5 * beta) ** 2))
    assert rep.verdict == CERTIFIED
    assert rep.constant == pytest.approx(solve_c_beta(beta).c, rel=1e-12)


def test_dbeta_oscillating_profile_inconclusive():
    rep = check_dbeta(Dbeta.from_function(2.0 * PI, lambda t: 1.5 + math.sin(4.0 * t)))
    assert rep.verdict == INCONCLUSIVE
    assert rep.constant is None


def test_dbeta_validation_errors():
    with pytest.raises(ValueError):
        check_dbeta(Dbeta.from_function(2.0 * PI, lambda t: 1.0 + math.sin(4.0 * t)))  # r hits 0
    with pytest.raises(ValueError):
        check_dbeta(Dbeta(1.5 * PI, [(0.0, 1.0), (1.5 * PI, 1.0)]))  # too few samples
    with pytest.raises(ValueError):
        check_dbeta(Dbeta.from_function(0.9 * PI, lambda t: 1.0))


# ---------------------------------------------------------------------------
# Dispatcher.

def test_certify_dispatch(lshape_vertices):
    assert certify_domain(Sector(2.0 * PI)).verdict == CERTIFIED
    assert certify_domain(OneReflexPolygon(lshape_vertices)).constant == 0.25
    assert certify_domain(Ebg(1.5 * PI, 1.5 * PI)).verdict == CERTIFIED
    with pytest.raises(ValueError):
        certify_domain(Sector(0.9 * PI))


def test_certify_half_plane_sector():
    # beta = pi, the end of every documented sweep: c = 1/4
    rep = certify_domain(Sector(PI))
    assert rep.verdict == CERTIFIED and rep.constant == 0.25
    assert rep.checks[0].name == "opening angle in [pi, 2pi]"


def test_certified_reports_have_nonnegative_margins(lshape_vertices):
    reports = [
        certify_domain(Sector(2.0 * PI)),
        certify_domain(OneReflexPolygon(lshape_vertices)),
        certify_domain(Ebg(1.8 * PI, 0.5 * PI)),
        certify_domain(Ebg(1.5 * PI, 1.5 * PI)),
        certify_domain(Dbeta.from_function(2.0 * PI, lambda t: 1.0)),
        check_sector_cap(SectorCapConvex(1.3 * PI, 0.65 * PI, 0.65 * PI)),
    ]
    for rep in reports:
        assert rep.verdict == CERTIFIED
        assert all(c.satisfied and c.margin >= 0.0 for c in rep.checks)
        assert rep.constant is not None


# ---------------------------------------------------------------------------
# Boundary forms.

def test_segment_form_gamma_zero_positive(bcr):
    grid = np.linspace(0.0, 0.5 * PI, 200)
    for beta in (1.2 * PI, bcr, 2.0 * PI):
        vals = [v for _, v in boundary_form_samples("line_segment", beta, 0.0, grid)]
        assert min(vals) > 0.0


def test_parabola_form_vanishes_at_asymptote_angle():
    beta, gamma = 1.8 * PI, 0.4 * PI
    theta_end = 1.5 * PI - gamma
    ((_, val),) = boundary_form_samples("parabola", beta, gamma, [theta_end])
    assert abs(val) < 1e-12


def test_parabola_form_nonnegative_in_hypothesis(bcr):
    for beta in (1.3 * PI, bcr, 2.0 * PI):
        for gamma in (0.0, 0.25 * (3.0 * PI - beta), 0.5 * (3.0 * PI - beta)):
            hi = min(beta - 0.5 * PI, 1.5 * PI - gamma)
            grid = np.linspace(0.5 * PI, hi, 400)
            vals = [v for _, v in boundary_form_samples("parabola", beta, gamma, grid)]
            assert min(vals) >= -1e-9


def test_two_sided_form_nonnegative(bcr):
    grid = np.linspace(0.0, 0.5 * PI, 400)
    for beta, gamma in ((bcr, 0.8 * PI), (1.2 * PI, 0.9 * PI), (1.8 * PI, 0.75 * PI)):
        vals = [v for _, v in boundary_form_samples("two_sided", beta, gamma, grid)]
        assert min(vals) >= -1e-9


def test_two_sided_form_equality_case():
    # gamma = pi mirrors the angle onto itself and the form vanishes identically
    grid = np.linspace(0.0, 0.5 * PI, 100)
    vals = [abs(v) for _, v in boundary_form_samples("two_sided", 2.0 * PI, PI, grid)]
    assert max(vals) < 1e-12


def test_companion_angle_lower_bound():
    # theta1 >= theta + gamma - pi along the bisector segment
    thetas = np.linspace(1e-9, 0.5 * PI, 400)
    for gamma in (0.6 * PI, 0.8 * PI, PI):
        margin = min(theta1_two_sided(float(t), gamma) - (t + gamma - PI) for t in thetas)
        assert margin >= -1e-9


def test_halfline_form_nonnegative():
    for beta, gamma in ((1.3 * PI, 0.65 * PI), (1.2 * PI, 0.7 * PI), (1.3 * PI, 0.55 * PI)):
        hi = 0.5 * (beta + PI - gamma) - 1e-6
        grid = np.linspace(beta - 0.5 * PI, hi, 400)
        vals = [v for _, v in boundary_form_samples("gamma3", beta, gamma, grid)]
        assert min(vals) >= -1e-9
        for t in grid[:: len(grid) // 7]:
            assert 0.0 < theta1_gamma3(float(t), beta, gamma) <= 0.5 * PI + 1e-12


def test_segment_form_fails_beyond_critical_angle():
    # deliberately out of hypothesis: gamma above gamma*(2pi) ~ 0.673 pi
    grid = np.linspace(0.0, 0.5 * PI, 400)
    vals = [v for _, v in boundary_form_samples("line_segment", 2.0 * PI, 0.75 * PI, grid)]
    assert min(vals) < 0.0


def _form_at(kind, beta, gamma, t):
    """One form value from scalar g_func / f_func calls, the way a single angle is evaluated."""
    alpha = solve_c_beta(beta).alpha

    def g(u):
        return alpha if u < 1e-9 else g_func(u, beta)

    if kind == "line_segment":
        return g(t) * np.cos(t + 0.5 * gamma) + alpha * math.cos(0.5 * gamma)
    sol = solve_c_beta(beta)
    if kind == "parabola":
        f = f_func(min(t, beta - 0.5 * PI), sol)
        return f * np.cos(t + gamma) + alpha * (1.0 + np.sin(t + gamma))
    if kind == "two_sided":
        t1 = theta1_two_sided(t, gamma)
        return g(t) * np.cos(t + 0.5 * gamma) + g(t1) * np.cos(t1 - 0.5 * gamma)
    t1 = theta1_gamma3(t, beta, gamma)
    return (
        f_func(t, sol) * np.sin(0.5 * (beta - gamma) - t)
        + f_func(t1, sol) * np.sin(0.5 * (beta + gamma) - t1)
    )


FORM_CASES = [
    ("line_segment", 1.2 * PI, 0.3 * PI, 0.0, 0.5 * PI),
    ("line_segment", 1.8 * PI, 0.5 * PI, 0.0, 0.5 * PI),
    ("parabola", 1.3 * PI, 0.4 * PI, 0.5 * PI, 0.8 * PI),
    ("parabola", 1.9 * PI, 0.2 * PI, 0.5 * PI, 1.3 * PI),
    ("two_sided", 1.2 * PI, 0.9 * PI, 0.0, 0.5 * PI),
    ("two_sided", 1.8 * PI, 0.75 * PI, 0.0, 0.5 * PI),
    ("gamma3", 1.3 * PI, 0.65 * PI, 0.8 * PI, 0.825 * PI - 1e-6),
    ("gamma3", 1.45 * PI, 0.52 * PI, 0.95 * PI, 0.965 * PI - 1e-6),
]


@pytest.mark.parametrize("kind, beta, gamma, lo, hi", FORM_CASES)
def test_form_array_equals_per_angle_evaluation(kind, beta, gamma, lo, hi):
    # one g_func / f_func call per form returns, bit for bit, the per-angle
    # values; the angles just above lo reach g's limit value and its series
    grid = np.concatenate([np.linspace(lo, hi, 301), lo + np.geomspace(1e-12, 1e-2, 41)])
    samples = boundary_form_samples(kind, beta, gamma, grid)
    assert [t for t, _ in samples] == grid.tolist()
    assert [v for _, v in samples] == [_form_at(kind, beta, gamma, float(t)) for t in grid]


def test_form_range_and_kind_errors():
    with pytest.raises(ValueError):
        boundary_form_samples("parabola", 1.8 * PI, 0.3 * PI, [0.4 * PI])
    with pytest.raises(ValueError):
        boundary_form_samples("line_segment", 1.8 * PI, 0.3 * PI, [0.6 * PI])
    with pytest.raises(ValueError):
        boundary_form_samples("gamma3", 1.5 * PI, 0.6 * PI, [1.2 * PI])  # beta+gamma > 2pi
    with pytest.raises(ValueError):
        boundary_form_samples("two_sided", 1.5 * PI, 0.3 * PI, [0.3])  # gamma below pi/2
    with pytest.raises(ValueError):
        boundary_form_samples("circle", 1.5 * PI, 0.3 * PI, [0.3])
