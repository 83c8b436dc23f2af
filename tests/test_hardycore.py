import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyconst import hardycore
from hardyconst.hardycore import (
    critical_family,
    beta_critical,
    beta_for_constant,
    equation_residual,
    f_func,
    g_func,
    potential_v,
    psi,
    dpsi,
    solve_c_beta,
)
from hardyconst.specfun import gamma

PI = math.pi

# Frozen values (40-digit oracle of the defining equations).
BCR_OVER_PI = 1.5457304165079484
C_2PI = 0.2053582225725914
ALPHA_2PI = 0.7112860085935853
C_18PI = 0.2311507648484030
HALF_TAN_RHS = 0.2284732905222318  # 2 (Gamma(3/4)/Gamma(1/4))^2 = g at pi/2 for the critical opening


def test_beta_critical_value():
    assert beta_critical() / PI == pytest.approx(BCR_OVER_PI, abs=1e-12)


def test_beta_critical_defining_identity():
    bcr = beta_critical()
    assert math.tan(0.25 * (bcr - PI)) == pytest.approx(
        4.0 * (gamma(0.75) / gamma(0.25)) ** 2, abs=1e-12
    )


def test_equation_degenerates_at_critical_point():
    # at c = 1/4 the supercritical equation reduces to the critical-angle one
    assert abs(equation_residual(beta_critical(), 0.25)) < 1e-10


def test_constant_slit_plane():
    sol = solve_c_beta(2.0 * PI)
    assert sol.c == pytest.approx(C_2PI, abs=1e-11)
    assert sol.alpha == pytest.approx(ALPHA_2PI, abs=1e-11)
    assert sol.residual < 1e-12


def test_constant_subcritical_is_quarter():
    assert solve_c_beta(1.2 * PI).c == 0.25
    assert solve_c_beta(1.2 * PI).alpha == 0.5


def test_constant_18pi():
    assert solve_c_beta(1.8 * PI).c == pytest.approx(C_18PI, abs=1e-11)


def test_constant_half_plane():
    sol = solve_c_beta(PI)
    assert (sol.c, sol.alpha, sol.residual) == (0.25, 0.5, 0.0)


def test_constant_domain_errors():
    with pytest.raises(ValueError):
        solve_c_beta(PI - 1e-11)
    with pytest.raises(ValueError):
        solve_c_beta(2.1 * PI)


def test_constant_monotone_non_increasing():
    betas = np.linspace(PI + 1e-9, 2.0 * PI, 101)
    cs = [solve_c_beta(float(b)).c for b in betas]
    assert all(cs[i] >= cs[i + 1] - 1e-14 for i in range(len(cs) - 1))


def test_beta_for_constant_round_trip():
    for c in (0.21, 0.23, 0.2488):
        beta = beta_for_constant(c)
        assert solve_c_beta(beta).c == pytest.approx(c, abs=1e-11)
    assert beta_for_constant(0.25) == beta_critical()


@pytest.mark.parametrize("c", [0.0, -0.1, 0.25 + 1e-12, math.nan])
def test_beta_for_constant_refuses_a_constant_outside_its_range(c):
    with pytest.raises(ValueError, match=re.escape(f"constant {c} outside (0, 1/4]")):
        beta_for_constant(c)


@given(st.floats(min_value=PI + 1e-6, max_value=2.0 * PI))
def test_alpha_defining_relation(beta):
    sol = solve_c_beta(beta)
    assert sol.alpha * (1.0 - sol.alpha) == pytest.approx(sol.c, abs=1e-12)
    assert sol.alpha >= 0.5


# ---------------------------------------------------------------------------
# Potential.

@pytest.mark.parametrize("beta", [1.5 * PI, 2.0 * PI])
def test_potential_branches(beta):
    assert potential_v(0.25 * PI, beta) == pytest.approx(2.0, rel=1e-14)
    assert potential_v(beta - 0.25 * PI, beta) == pytest.approx(2.0, rel=1e-14)
    assert potential_v(0.5 * (PI / 2 + beta - PI / 2), beta) == 1.0


def test_potential_middle_at_pi_for_full_opening():
    assert potential_v(PI, 2.0 * PI) == 1.0
    assert isinstance(potential_v(0.5 * PI, 2.0 * PI), float)
    assert isinstance(potential_v(np.float64(0.5 * PI), np.float64(2.0 * PI)), float)


def test_potential_junctions_are_one():
    for beta in (1.4 * PI, 2.0 * PI):
        assert potential_v(0.5 * PI, beta) == 1.0
        assert potential_v(beta - 0.5 * PI, beta) == 1.0


def test_potential_half_plane():
    # beta = pi, the opening at which shooting evaluates V on (0, pi/2]:
    # 1/sin^2 up to pi/2, whose middle region is that single angle
    assert potential_v(0.5 * PI, PI) == 1.0
    assert potential_v(0.25 * PI, PI) == pytest.approx(2.0, rel=1e-14)


def test_potential_domain_errors():
    with pytest.raises(ValueError):
        potential_v(0.0, 1.5 * PI)
    with pytest.raises(ValueError, match="outside"):
        potential_v(1.5 * PI, 1.5 * PI)
    with pytest.raises(ValueError, match=re.escape(f"{0.9 * PI} below pi")):
        potential_v(0.5, 0.9 * PI)


# ---------------------------------------------------------------------------
# Eigenfunction.

def test_psi_normalization(sol_2pi):
    assert psi(0.5 * sol_2pi.beta, sol_2pi) == 1.0


def test_psi_vanishes_at_origin(sol_2pi):
    assert psi(1e-9, sol_2pi) < 1e-5
    assert psi(1e-12, sol_2pi) < psi(1e-9, sol_2pi)


def test_psi_branch_continuity(sol_2pi):
    left = psi(0.5 * PI - 1e-13, sol_2pi)
    right = psi(0.5 * PI, sol_2pi)
    assert abs(left - right) < 1e-10


def test_psi_positive_on_half_sector(sol_2pi):
    grid = np.geomspace(1e-6, 0.5 * sol_2pi.beta, 300)
    vals = np.array([psi(t, sol_2pi) for t in grid])
    assert np.all(vals > 0.0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-14)


def test_psi_requires_supercritical_opening():
    sub = solve_c_beta(1.3 * PI)
    with pytest.raises(ValueError):
        psi(0.3, sub)


def test_psi_domain_errors(sol_2pi):
    with pytest.raises(ValueError):
        psi(0.0, sol_2pi)
    with pytest.raises(ValueError):
        psi(0.5 * sol_2pi.beta + 0.1, sol_2pi)


def test_log_derivative_mismatch_at_joint(sol_2pi, bcr):
    for beta in np.linspace(bcr, 2.0 * PI, 11):
        sol = solve_c_beta(float(beta))
        left = g_func(0.5 * PI, sol.beta)  # sin(pi/2) = 1, so g is f there
        right = math.sqrt(sol.c) * math.tan(math.sqrt(sol.c) * 0.5 * (sol.beta - PI))
        assert abs(left - right) < 1e-8


def test_dpsi_matches_finite_difference(sol_2pi):
    for theta in (0.3, 1.0, 0.5 * PI - 0.01, 2.5):
        fd = (psi(theta + 1e-7, sol_2pi) - psi(theta - 1e-7, sol_2pi)) / 2e-7
        assert dpsi(theta, sol_2pi) == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# Logarithmic derivative and the Riccati variable.

def test_f_zero_at_half_opening(sol_2pi):
    assert f_func(0.5 * sol_2pi.beta, sol_2pi) == 0.0


def test_f_at_pi_half_closed_form(sol_2pi):
    expected = math.sqrt(sol_2pi.c) * math.tan(math.sqrt(sol_2pi.c) * 0.5 * (sol_2pi.beta - PI))
    assert f_func(0.5 * PI, sol_2pi) == pytest.approx(expected, rel=1e-13)


def test_f_leading_order_near_origin(sol_2pi):
    theta = 1e-4
    assert theta * f_func(theta, sol_2pi) == pytest.approx(sol_2pi.alpha, abs=1e-3)
    # the series start is much tighter than the stated bound
    assert theta * f_func(theta, sol_2pi) == pytest.approx(sol_2pi.alpha, abs=1e-7)


def test_f_mirror_antisymmetry(sol_2pi):
    beta = sol_2pi.beta
    for theta in (0.3, 1.2, 2.0):
        assert f_func(beta - theta, sol_2pi) == pytest.approx(-f_func(theta, sol_2pi), rel=1e-12)


def five_point_derivative(fn, x, step):
    return (fn(x - 2 * step) - 8 * fn(x - step) + 8 * fn(x + step) - fn(x + 2 * step)) / (
        12.0 * step
    )


@pytest.mark.parametrize("beta_factor", [1.7, 2.0])
def test_riccati_residual_f(beta_factor):
    # f' + f^2 + c V = 0, derivative by finite differences off the junctions
    beta = beta_factor * PI
    sol = solve_c_beta(beta)
    pieces = [
        np.linspace(0.02, 0.5 * PI - 5e-3, 70),
        np.linspace(0.5 * PI + 5e-3, beta - 0.5 * PI - 5e-3, 70),
        np.linspace(beta - 0.5 * PI + 5e-3, beta - 0.02, 70),
    ]
    grid = np.concatenate(pieces)
    for theta in grid:
        theta = float(theta)
        fp = five_point_derivative(lambda t: f_func(t, sol), theta, 2e-5)
        res = fp + f_func(theta, sol) ** 2 + sol.c * potential_v(theta, beta)
        assert abs(res) < 1e-6


def test_g_at_pi_half_straight_opening():
    assert g_func(0.5 * PI, PI) == pytest.approx(0.0, abs=1e-15)


def test_g_terminal_value_critical(bcr):
    assert g_func(0.5 * PI, bcr) == pytest.approx(HALF_TAN_RHS, abs=1e-10)


def test_g_approaches_alpha_supercritical(sol_2pi):
    assert g_func(1e-6, 2.0 * PI) == pytest.approx(sol_2pi.alpha, abs=1e-6)


def test_g_approaches_half_subcritical_slowly():
    # critical exponent: convergence to 1/2 is only logarithmic
    vals = [g_func(t, 1.2 * PI) for t in (1e-2, 1e-4, 1e-6, 1e-8)]
    gaps = [abs(v - 0.5) for v in vals]
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    assert gaps[-1] < 0.05


def test_g_riccati_residual_subcritical():
    # 5-point derivative on a log grid of 2001 angles from 1e-8 to pi/2;
    # residual of the defining equation
    s = np.linspace(math.log(1e-8), math.log(0.5 * PI), 2001)
    ds = s[1] - s[0]
    th = np.exp(s)
    start = max(int(np.searchsorted(th, 0.01)), 2)
    idx = np.arange(start, len(s) - 2)
    for beta in (1.0 * PI, 1.2 * PI, 1.45 * PI):
        g = g_func(np.minimum(th, 0.5 * PI), beta)
        dg_ds = (g[idx - 2] - 8 * g[idx - 1] + 8 * g[idx + 1] - g[idx + 2]) / (12.0 * ds)
        gp = dg_ds / th[idx]
        res = gp + (g[idx] ** 2 - g[idx] * np.cos(th[idx]) + 0.25) / np.sin(th[idx])
        assert np.max(np.abs(res)) < 1e-6


def test_g_riccati_residual_supercritical(sol_2pi):
    c = sol_2pi.c
    step = 1e-6
    for theta in np.linspace(0.02, 0.5 * PI - 1e-3, 150):
        theta = float(theta)
        gp = (g_func(theta + step, 2.0 * PI) - g_func(theta - step, 2.0 * PI)) / (2.0 * step)
        res = gp + (g_func(theta, 2.0 * PI) ** 2 - g_func(theta, 2.0 * PI) * math.cos(theta) + c) / math.sin(theta)
        assert abs(res) < 1e-6


def test_g_monotone_in_beta_subcritical(bcr):
    # strictly increasing with the opening, pointwise on (0, pi/2]
    betas = [PI, 1.15 * PI, 1.3 * PI, 1.45 * PI, bcr]
    grid = np.geomspace(1e-6, 0.5 * PI, 200)
    tables = [np.array([g_func(float(t), b) for t in grid]) for b in betas]
    for lo, hi in zip(tables[:-1], tables[1:]):
        assert np.all(lo < hi)


def test_g_at_the_vertex_is_alpha(bcr):
    # one formula on [0, pi/2]: g(0) is the exponent, bit for bit, alone
    # and inside an array
    for beta in (PI, 1.2 * PI, bcr - 0.5 * hardycore.SEAM_SLACK, bcr, 1.8 * PI, 2.0 * PI):
        alpha = solve_c_beta(beta).alpha
        assert g_func(0.0, beta) == alpha
        assert g_func(np.array([0.0, 0.3, 0.5 * PI]), beta)[0] == alpha


def test_g_finite_at_subnormal_angles():
    for beta in (1.8 * PI, 2.0 * PI):
        alpha = solve_c_beta(beta).alpha
        for theta in (5e-324, 1e-310):
            assert g_func(theta, beta) == alpha


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_func(-1e-300, 1.5 * PI)
    with pytest.raises(ValueError):
        g_func(0.3, 0.9 * PI)
    with pytest.raises(ValueError):
        g_func(2.0, 1.5 * PI)


# ---------------------------------------------------------------------------
# Quadrant inequality of the middle-branch form.

def test_quadrant_inequality(bcr):
    # f(theta) cos(theta+gamma) + alpha (1 + sin(theta+gamma)) >= 0
    # on [pi/2, 3pi/2 - gamma] whenever beta + 2 gamma <= 3 pi
    for beta in (1.1 * PI, 1.3 * PI, bcr, 1.7 * PI, 2.0 * PI):
        sol = solve_c_beta(beta) if beta > PI else None
        c, alpha = sol.c, sol.alpha
        rc = math.sqrt(c)
        for gam in (0.0, 0.25 * (3.0 * PI - beta), 0.5 * (3.0 * PI - beta)):
            thetas = np.linspace(0.5 * PI, 1.5 * PI - gam, 400)
            f_mid = rc * np.tan(rc * (0.5 * beta - thetas))
            form = f_mid * np.cos(thetas + gam) + alpha * (1.0 + np.sin(thetas + gam))
            assert form.min() >= -1e-10


# ---------------------------------------------------------------------------
# Array evaluation of g and the backward table.

# theta = pi/2 (and the 1e-12 slack above it), the series/hypergeometric
# switch at 1e-3, the table start 1e-8 and angles below it, and a dense grid
G_THETAS = np.concatenate(
    [
        [1e-12, 1e-9, 1e-8, 1.0000001e-8, 1e-5, 9.99e-4, 1e-3, 1.001e-3, 0.3],
        [0.5 * PI - 1e-12, 0.5 * PI, 0.5 * PI + 5e-13],
        np.linspace(0.0, 0.5 * PI, 400)[1:],
        np.geomspace(1e-10, 1.5, 200),
    ]
)


@pytest.mark.parametrize("beta_factor", [1.0, 1.2, 1.5, 1.7, 2.0])
def test_g_array_matches_scalar_calls(beta_factor):
    beta = beta_factor * PI
    arr = g_func(G_THETAS, beta)
    assert np.array_equal(arr, [g_func(float(t), beta) for t in G_THETAS])


def test_g_array_matches_scalar_calls_at_the_seam(bcr):
    for beta in (bcr - 1e-8, bcr - 0.5 * hardycore.SEAM_SLACK, bcr, bcr + 1e-9):
        arr = g_func(G_THETAS, beta)
        assert np.array_equal(arr, [g_func(float(t), beta) for t in G_THETAS])


def test_g_array_keeps_shape():
    theta = np.array([[0.1, 0.2], [0.3, 0.5 * PI]])
    assert g_func(theta, 1.8 * PI).shape == (2, 2)
    assert g_func(theta, 1.2 * PI).shape == (2, 2)


@pytest.mark.parametrize("theta", [[-1e-300, 0.3], [-0.1, 0.3], [0.3, 0.5 * PI + 1e-9], [0.3, math.nan]])
@pytest.mark.parametrize("beta_factor", [1.2, 1.8])
def test_g_array_out_of_range_rejected(theta, beta_factor):
    with pytest.raises(ValueError):
        g_func(np.array(theta), beta_factor * PI)


def test_g_array_opening_out_of_range_rejected():
    with pytest.raises(ValueError):
        g_func(np.array([0.1, 0.2]), 0.9 * PI)
    with pytest.raises(ValueError, match=re.escape(f"opening angle {2.1 * PI}")):
        g_func(0.3, np.array([1.2, 2.1, 1.8]) * PI)


def test_g_broadcasts_over_openings(bcr):
    # one call on angles against openings on both sides of the seam gives
    # every entry the floats of the call on that angle and opening alone
    betas = np.array([PI, 1.2 * PI, bcr - 1e-8, bcr - 0.5 * hardycore.SEAM_SLACK, bcr,
                      bcr + 1e-9, 1.7 * PI, 2.0 * PI])
    grid = g_func(G_THETAS[:, None], betas[None, :])
    assert grid.shape == (G_THETAS.size, betas.size)
    for j, beta in enumerate(betas):
        # test_g_array_matches_scalar_calls ties the array call to scalar ones
        assert np.array_equal(grid[:, j], g_func(G_THETAS, float(beta)))
    # paired entries, as a root finder passes them
    assert np.array_equal(g_func(G_THETAS[:8], betas), [g_func(float(t), float(b))
                                                        for t, b in zip(G_THETAS[:8], betas)])
    assert isinstance(g_func(0.3, 1.8 * PI), float)


def test_critical_family_broadcasts_over_members():
    theta = np.array([0.0, 1e-160, 1e-8, 0.3, 1.0, 0.5 * PI])
    lams = np.array([0.0, 0.05, 1.0, 7.5])
    grid = critical_family(theta[:, None], lams[None, :])
    for j, lam in enumerate(lams):
        assert np.array_equal(grid[:, j], critical_family(theta, float(lam)))
        assert np.array_equal(grid[:, j], [critical_family(float(t), float(lam)) for t in theta])
    assert np.array_equal(grid[:, 0], critical_family(theta, 0.0))  # h0, even at theta = 0
    assert isinstance(critical_family(0.3, 0.05), float)


def _straight_rk4_table(beta: float) -> tuple[np.ndarray, np.ndarray]:
    # backward fixed-step RK4 in s = log(theta) from g(pi/2) down to 1e-8
    s_grid = np.linspace(math.log(1e-8), math.log(0.5 * PI), 2001)
    g = np.empty_like(s_grid)
    g[-1] = 0.5 * math.tan(0.25 * (beta - PI))

    def dgds(s, gv):
        t = math.exp(s)
        return -(gv * gv - gv * math.cos(t) + 0.25) / math.sin(t) * t

    for i in range(2000, 0, -1):
        h = s_grid[i - 1] - s_grid[i]
        k1 = dgds(s_grid[i], g[i])
        k2 = dgds(s_grid[i] + 0.5 * h, g[i] + 0.5 * h * k1)
        k3 = dgds(s_grid[i] + 0.5 * h, g[i] + 0.5 * h * k2)
        k4 = dgds(s_grid[i] + h, g[i] + h * k3)
        g[i - 1] = g[i] + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s_grid, g


@pytest.mark.parametrize("beta_factor", [1.0, 1.2, 1.45, 1.5457])
def test_subcritical_table_matches_straight_rk4(beta_factor):
    # closed-form subcritical g at the nodes of an independent RK4 table;
    # worst gap measured 5.2e-11 over nine openings in [pi, beta_cr)
    s_grid, g_ref = _straight_rk4_table(beta_factor * PI)
    g = g_func(np.minimum(np.exp(s_grid), 0.5 * PI), beta_factor * PI)
    assert np.max(np.abs(g - g_ref)) < 1e-10


def _g_both_branches(theta, beta):
    """g with both formulas evaluated at every entry and np.where picking
    one: the reference g_func must match bit for bit."""
    beta = hardycore.admit_openings(np.ravel(beta))[0].reshape(np.shape(beta))
    t = np.minimum(np.asarray(theta, dtype=float), 0.5 * PI)
    sub = hardycore.is_subcritical(beta)
    f_end, h_end = hardycore._family_end()
    lam = np.where(sub, 0.25 * f_end * f_end * (h_end - np.tan(0.25 * (beta - PI))), 0.0)
    _, alpha = hardycore.sector_constants(np.clip(beta, beta_critical(), 2.0 * PI))
    return np.where(sub, 0.5 * critical_family(t, lam), hardycore._g_hyper(t, alpha))


def test_g_runs_each_branch_only_where_picked(bcr):
    # skipping the branch an entry does not take changes no float: every
    # batch, in every orientation, equals both branches picked by np.where
    seam = bcr - hardycore.SEAM_SLACK
    below = [PI, 1.2 * PI, 1.5 * PI, np.nextafter(seam, 0.0), seam - 1e-12]
    above = [seam, np.nextafter(seam, 2.0 * PI), bcr, bcr + hardycore.SEAM_SLACK, 1.7 * PI, 2.0 * PI]
    thetas = np.concatenate([[0.0, 1e-300, 1e-160], G_THETAS])
    for betas in (np.array(below), np.array(above), np.array(below + above)):
        assert hardycore.is_subcritical(betas).any() == (betas[0] < seam)
        for theta, beta in ((thetas[None, :], betas[:, None]), (thetas[:, None], betas[None, :])):
            g = g_func(theta, beta)
            assert g.shape == np.broadcast(theta, beta).shape
            assert np.array_equal(g, _g_both_branches(theta, beta))
        # paired entries, as find_root passes them
        paired = np.resize(betas, thetas.size)
        assert np.array_equal(g_func(thetas, paired), _g_both_branches(thetas, paired))
        for beta in betas:
            for theta in (0.0, 1e-300, 1e-160, 0.3, 0.5 * PI):
                assert g_func(theta, float(beta)) == _g_both_branches(theta, float(beta))


def test_g_mixed_column_against_a_row_equals_one_call_per_opening(bcr, monkeypatch):
    # the gamma* scan's shape: a column of openings of both kinds, in no
    # order, against the row of scan angles; split into whole rows, each
    # row equals the call on its opening alone, and the chunk is never
    # broadcast to the full column-by-row shape before it is split
    seam = bcr - hardycore.SEAM_SLACK
    betas = np.array([1.9 * PI, PI, seam, 1.2 * PI, np.nextafter(seam, 0.0), 2.0 * PI,
                      1.5 * PI, bcr + 1e-9, 1.05 * PI, 1.7 * PI])
    grid = np.linspace(0.0, 0.5 * PI, 400)
    rows = [g_func(grid, float(beta)) for beta in betas]
    shapes = []
    family, hyper = hardycore._g_family, hardycore._g_hyper

    def recorded(formula):
        def call(theta, beta_or_alpha):
            shapes.append(np.broadcast_shapes(np.shape(theta), np.shape(beta_or_alpha)))
            return formula(theta, beta_or_alpha)
        return call

    monkeypatch.setattr(hardycore, "_g_family", recorded(family))
    monkeypatch.setattr(hardycore, "_g_hyper", recorded(hyper))
    column = g_func(grid, betas[:, None])
    assert column.shape == (betas.size, grid.size)
    for row, single in zip(column, rows):
        assert np.array_equal(row, single)
    sub = int(hardycore.is_subcritical(betas).sum())
    assert sorted(shapes) == sorted([(sub, grid.size), (betas.size - sub, grid.size)])
    # a flat batch of pairs, as the Newton iterates and both cell edges
    # pass it, is split by the same rule, entry by entry
    thetas = np.resize(grid[::37], betas.size)
    paired = g_func(thetas, betas)
    assert np.array_equal(paired, [g_func(float(t), float(b)) for t, b in zip(thetas, betas)])
    # openings that vary along two axes are split as one flat batch of pairs
    square = g_func(thetas[:5], betas.reshape(2, 5))
    assert np.array_equal(square, [[g_func(float(t), float(b)) for t, b in zip(thetas[:5], row)]
                                   for row in betas.reshape(2, 5)])
