import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyconst import certify, cli, f_func, g_func, rayleigh, solve_c_beta
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
    dbeta_samples,
    ensure_ccw,
    interior_angles,
    polygon_vertices,
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


def _simple_by_pair_loop(vertices) -> bool:
    """Reference: every pair of non-adjacent edges, one at a time."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    try:
        v = ensure_ccw(vertices)
    except ShapeError:
        return False
    n = len(v)
    if np.any(np.all(v == np.roll(v, -1, axis=0), axis=1)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            p1, p2, q1, q2 = v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]
            d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
            d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return False
    return True


def test_polygon_vertices_matches_pair_loop():
    rng = np.random.default_rng(20251019)
    refused = 0
    for k in range(2000):
        pts = rng.uniform(-2.0, 2.0, size=(int(rng.integers(3, 10)), 2))
        if k % 2:
            pts = np.round(2.0 * pts) / 2.0  # half-unit lattice: touching, collinear edges
        expected = _simple_by_pair_loop(pts)
        try:
            v = polygon_vertices(OneReflexPolygon(pts))
        except ShapeError:
            assert not expected, pts
            refused += 1
            continue
        assert expected, pts
        assert np.array_equal(v, ensure_ccw(pts))
    assert 200 < refused < 1800


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polygon_vertices_refuses_a_non_finite_coordinate(lshape_vertices, bad):
    # named before any area or orientation is taken; a NaN vertex used to
    # pass, and the lattice then found no interior node
    for i, j in ((3, 0), (2, 1)):
        verts = [list(v) for v in lshape_vertices]
        verts[i][j] = bad
        with pytest.raises(ShapeError, match=re.escape(f"polygon vertex {i} {verts[i]} is not finite")):
            polygon_vertices(OneReflexPolygon(verts))
        with pytest.raises(ShapeError, match="is not finite"):
            certify_domain(OneReflexPolygon(verts))
        with pytest.raises(ShapeError, match="is not finite"):
            rayleigh.build_grid(OneReflexPolygon(verts), 16)


def test_polygon_vertices_of_5001_vertices(notched_disk_vertices):
    poly = OneReflexPolygon(notched_disk_vertices)
    start = time.perf_counter()
    v = polygon_vertices(poly)
    assert time.perf_counter() - start < 5.0
    assert len(v) == 5001
    swapped = list(notched_disk_vertices)
    swapped[2000], swapped[2001] = swapped[2001], swapped[2000]
    with pytest.raises(ShapeError, match="intersect"):
        polygon_vertices(OneReflexPolygon(swapped))


def _notched_disk(count):
    t = np.linspace(0.05 * PI, 1.95 * PI, count - 1)
    return [[0.5, 0.0]] + np.column_stack([np.cos(t), np.sin(t)]).tolist()


@pytest.mark.parametrize("command", ["certify", "validate"])
def test_one_vertex_over_the_cap_exits_2_before_the_pair_loop(tmp_path, capsys, command):
    # two swapped vertices make the notched disk cross itself: the pair loop
    # would name the crossing, so the cap's message shows it ran first
    verts = _notched_disk(certify._MAX_VERTICES + 1)
    verts[2000], verts[2001] = verts[2001], verts[2000]
    f = tmp_path / "polygon.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": verts}))
    argv = [command, str(f)] + (["--n", "16"] if command == "validate" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{certify._MAX_VERTICES + 1} vertices, more than {certify._MAX_VERTICES}" in err


def test_one_sample_over_the_cap_exits_2(tmp_path, capsys):
    beta = 1.8
    ts = np.linspace(0.0, beta, certify._MAX_SAMPLES + 1)
    samples = np.column_stack([ts, 1.0 + (ts - 0.5 * beta) ** 2]).tolist()
    f = tmp_path / "dbeta.json"
    f.write_text(json.dumps({"type": "dbeta", "beta": beta, "r_samples": samples}))
    assert cli.main(["certify", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{certify._MAX_SAMPLES + 1} samples, more than {certify._MAX_SAMPLES}" in err


def test_caps_admit_their_own_size(monkeypatch, lshape_vertices):
    monkeypatch.setattr(certify, "_MAX_VERTICES", len(lshape_vertices))
    assert len(polygon_vertices(OneReflexPolygon(lshape_vertices))) == 6
    with pytest.raises(ShapeError, match="7 vertices, more than 6"):
        polygon_vertices(OneReflexPolygon(_notched_disk(7)))
    samples = [(t, 1.0) for t in np.linspace(0.0, 1.5 * PI, 8)]
    monkeypatch.setattr(certify, "_MAX_SAMPLES", 8)
    assert len(dbeta_samples(Dbeta(1.5 * PI, samples))) == 8
    with pytest.raises(ValueError, match="9 samples, more than 8"):
        dbeta_samples(Dbeta(1.5 * PI, samples + [(0.5, 1.0)]))


def test_domain_file_over_the_byte_bound_exits_2(tmp_path, capsys, monkeypatch, lshape_vertices):
    # refused before it is parsed; the bound is lowered here, as the caps are
    # above, so that no large file is written
    f = tmp_path / "polygon.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": lshape_vertices}, indent=2))
    size = f.stat().st_size
    monkeypatch.setattr(cli, "_MAX_FILE_BYTES", size)
    assert cli.main(["certify", str(f)]) == 0
    monkeypatch.setattr(cli, "_MAX_FILE_BYTES", size - 1)
    assert cli.main(["certify", str(f)]) == 2
    assert f"larger than {size - 1} bytes" in capsys.readouterr().err


def test_a_domain_file_at_either_cap_fits_the_byte_bound():
    # json.dumps(indent=2) with the longest float repr, 24 characters
    w = -2.2250738585072014e-308
    docs = [
        {"type": "dbeta", "beta": 1.8, "r_samples": [[w, w]] * certify._MAX_SAMPLES},
        {"type": "polygon", "vertices": [[w, w]] * certify._MAX_VERTICES},
    ]
    for doc in docs:
        assert len(json.dumps(doc, indent=2).encode()) <= cli._MAX_FILE_BYTES


# ---------------------------------------------------------------------------
# One-reflex polygons.

def test_lshape_certified(lshape_vertices):
    rep = check_one_reflex_polygon(OneReflexPolygon(lshape_vertices))
    assert rep.verdict == CERTIFIED
    assert rep.constant == 0.25
    assert all(c.margin > 0 for c in rep.checks)


@pytest.mark.parametrize("shift, scale", [(1e5, 1.0), (0.0, 1e-9)], ids=["shifted", "scaled"])
def test_moved_lshape_certified(lshape_vertices, shift, scale):
    # the constant does not change when the polygon is moved or scaled; only
    # exactly repeated vertices are refused, whatever the coordinates' size
    moved = [(shift + scale * x, shift + scale * y) for x, y in lshape_vertices]
    rep = check_one_reflex_polygon(OneReflexPolygon(moved))
    assert rep.verdict == CERTIFIED
    assert rep.constant == 0.25


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_lshape_at_extreme_scales_certified(lshape_vertices, scale):
    # the crossing test and interior_angles work on v - v[0] scaled by a
    # power of two: in absolute coordinates their cross products underflowed
    # at 1e-300 (no reflex vertex found) and overflowed at 1e300 (a
    # RuntimeWarning, which the suite turns into an error)
    scaled = [(scale * x, scale * y) for x, y in lshape_vertices]
    rep = check_one_reflex_polygon(OneReflexPolygon(scaled))
    assert (rep.verdict, rep.constant) == (CERTIFIED, 0.25)
    assert np.array_equal(polygon_vertices(OneReflexPolygon(scaled)), scaled)
    np.testing.assert_allclose(interior_angles(scaled), interior_angles(lshape_vertices), rtol=1e-15)


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


@pytest.mark.parametrize("size, offset", [(1.0, 0.0), (1e-4, 1e6), (1e-6, 1e4)])
def test_small_polygon_far_out_certifies_like_the_lshape(tmp_path, lshape_vertices, size, offset):
    # the L-shape rotated by 0.3 rad, small against its offset: a shoelace
    # sum in absolute coordinates read zero area at 1e-4 and 1e6, and the
    # wrong orientation, so five reflex corners, at 1e-6 and 1e4
    cos_r, sin_r = math.cos(0.3), math.sin(0.3)
    moved = [[offset + size * (cos_r * x - sin_r * y), offset + size * (sin_r * x + cos_r * y)]
             for x, y in lshape_vertices]
    path, out = tmp_path / "moved.json", tmp_path / "report.json"
    path.write_text(json.dumps({"type": "polygon", "vertices": moved}))
    assert cli.main(["certify", str(path), "-o", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert (report["verdict"], report["constant"]) == (CERTIFIED, 0.25)
    assert np.array_equal(ensure_ccw(moved), moved)


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


@pytest.mark.parametrize("gp, gm", [(0.0, 0.5 * PI), (0.5 * PI, -0.1), (-PI, -3.0 * PI)])
def test_bounded_cap_needs_positive_contact_angles(gp, gm):
    with pytest.raises(ValueError, match="must be positive"):
        check_sector_cap(SectorCapConvex(1.5 * PI, gp, gm))
    assert check_sector_cap(SectorCapConvex(1.5 * PI, gp, gm, bounded=False)).verdict == CERTIFIED


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
    assert rep.failed_condition == rep.checks[0].name
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
    assert rep.failed_condition == rep.checks[0].name


def test_dbeta_validation_errors():
    with pytest.raises(ValueError):
        check_dbeta(Dbeta.from_function(2.0 * PI, lambda t: 1.0 + math.sin(4.0 * t)))  # r hits 0
    with pytest.raises(ValueError):
        check_dbeta(Dbeta(1.5 * PI, [(0.0, 1.0), (1.5 * PI, 1.0)]))  # too few samples
    with pytest.raises(ValueError):
        check_dbeta(Dbeta.from_function(0.9 * PI, lambda t: 1.0))
    # one NaN radius or angle used to be certified; the first one is named
    # before the samples are sorted
    samples = [(t, 1.0) for t in np.linspace(0.0, 1.5 * PI, 8).tolist()]
    for i, bad in ((3, (samples[3][0], math.nan)), (5, (math.nan, 1.0)), (2, (0.5, math.inf))):
        broken = samples[:i] + [bad] + samples[i + 1 :]
        with pytest.raises(ValueError, match=re.escape(f"polar graph sample {i} {list(bad)} is not finite")):
            dbeta_samples(Dbeta(1.5 * PI, broken))
        with pytest.raises(ValueError, match="is not finite"):
            certify_domain(Dbeta(1.5 * PI, broken))


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


def test_companion_angle_refuses_an_angle_outside_the_segment():
    # a negative angle is no point of the segment: refused, not mapped to 0
    with pytest.raises(ValueError, match=re.escape("theta=-0.5 outside [0, pi/2]")):
        theta1_two_sided(-0.5, 0.7 * PI)


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
    if kind == "line_segment":
        return g_func(t, beta) * np.cos(t + 0.5 * gamma) + alpha * math.cos(0.5 * gamma)
    sol = solve_c_beta(beta)
    if kind == "parabola":
        f = f_func(min(t, beta - 0.5 * PI), sol)
        return f * np.cos(t + gamma) + alpha * (1.0 + np.sin(t + gamma))
    if kind == "two_sided":
        t1 = theta1_two_sided(t, gamma)
        return g_func(t, beta) * np.cos(t + 0.5 * gamma) + g_func(t1, beta) * np.cos(t1 - 0.5 * gamma)
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
    # values; in the g forms the angles just above lo = 0 approach the
    # vertex, where g = alpha
    grid = np.concatenate([np.linspace(lo, hi, 301), lo + np.geomspace(1e-12, 1e-2, 41)])
    samples = boundary_form_samples(kind, beta, gamma, grid)
    assert [t for t, _ in samples] == grid.tolist()
    assert [v for _, v in samples] == [_form_at(kind, beta, gamma, float(t)) for t in grid]


@pytest.mark.parametrize("kind, gamma", [("line_segment", 0.5 * PI), ("two_sided", 0.9 * PI)])
def test_form_near_the_vertex_uses_g(kind, gamma):
    # no stand-in for g near theta = 0: a subcritical g is still 0.04 below
    # its limit alpha = 1/2 at theta = 1e-9
    thetas = [1e-12, 5e-10, 0.999e-9, 1.001e-9]
    vals = [v for _, v in boundary_form_samples(kind, 1.2 * PI, gamma, thetas)]
    assert vals[:2] == [_form_at(kind, 1.2 * PI, gamma, t) for t in thetas[:2]]
    assert abs(vals[2] - vals[3]) < 1e-4  # a 0.2% step in theta; the stand-in jumped 0.03


@pytest.mark.parametrize(
    "kind, beta, gamma, message",
    [
        ("line_segment", 1.5 * PI, -0.6 * PI, f"gamma={-0.6 * PI} outside (-pi/2, pi] for the segment form"),
        ("parabola", PI, 0.5 * PI, f"beta={PI} is not a reflex opening (> pi), which the parabola form needs"),
        ("gamma3", PI, 0.6 * PI, f"beta={PI} is not a reflex opening (> pi), which the halfline form needs"),
        ("gamma3", 1.2 * PI, 0.3 * PI, f"gamma={0.3 * PI} outside [pi/2, pi] for the halfline form"),
    ],
    ids=["segment-gamma", "parabola-beta", "halfline-beta", "halfline-gamma"],
)
def test_form_refuses_angles_outside_its_hypothesis(kind, beta, gamma, message):
    # each form's own refusal, before any angle of the grid is read
    with pytest.raises(ValueError, match=re.escape(message)):
        boundary_form_samples(kind, beta, gamma, [0.1])


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
