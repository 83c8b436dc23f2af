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
    eigen_profile,
    equation_residual,
    f_func,
    g_func,
    potential_v,
    psi,
    dpsi,
    series_coefficients,
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


def test_potential_junctions_are_one():
    for beta in (1.4 * PI, 2.0 * PI):
        assert potential_v(0.5 * PI, beta) == 1.0
        assert potential_v(beta - 0.5 * PI, beta) == 1.0


def test_potential_broadcasts_over_angles_and_openings():
    betas = np.array([1.4, 1.7, 2.0]) * PI
    thetas = np.array([0.25, 0.5, 0.7, 1.3]) * PI  # 1.3pi: right region at 1.7pi, middle at 2pi
    grid = potential_v(thetas[:, None], betas[None, :])
    assert grid.shape == (4, 3)
    for i, t in enumerate(thetas):
        for j, b in enumerate(betas):
            assert grid[i, j] == pytest.approx(potential_v(float(t), float(b)), rel=1e-15)
    # both junctions are 1 for every opening
    assert np.all(potential_v(np.full(3, 0.5 * PI), betas) == 1.0)
    assert np.all(potential_v(betas - 0.5 * PI, betas) == 1.0)
    assert potential_v(np.array([0.25, 1.75]) * PI, 2.0 * PI) == pytest.approx([2.0, 2.0], rel=1e-14)
    assert isinstance(potential_v(0.5 * PI, 2.0 * PI), float)
    assert isinstance(potential_v(np.float64(0.5 * PI), np.array(2.0 * PI)), float)


def test_potential_array_domain_errors():
    with pytest.raises(ValueError, match="outside"):
        potential_v(np.array([0.5, 1.5 * PI, 1.0]), 1.5 * PI)
    with pytest.raises(ValueError, match=re.escape(f"{0.9 * PI} below pi")):
        potential_v(0.5, np.array([1.5 * PI, 0.9 * PI]))


def test_potential_half_plane():
    # beta = pi, where shooting's second piece has length 0: 1/sin^2 up to
    # pi/2, whose middle region is that single angle
    assert potential_v(0.5 * PI, PI) == 1.0
    assert potential_v(0.25 * PI, PI) == pytest.approx(2.0, rel=1e-14)
    assert np.array_equal(potential_v(np.array([0.25, 0.5]) * PI, np.full(2, PI)),
                          [potential_v(0.25 * PI, PI), 1.0])


def test_potential_domain_errors():
    with pytest.raises(ValueError):
        potential_v(0.0, 1.5 * PI)
    with pytest.raises(ValueError):
        potential_v(1.5 * PI, 1.5 * PI)


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
    prof = eigen_profile(sol_2pi, n=300)
    assert np.all(prof.psi > 0.0)
    assert prof.psi[-1] == pytest.approx(1.0, abs=1e-14)


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
        left = hardycore._f_hyper(0.5 * PI, sol.alpha)
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


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_func(0.0, 1.5 * PI)
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
# Series coefficients.

def test_series_coefficients_half():
    sub = solve_c_beta(1.2 * PI)
    a0, a1, a2 = series_coefficients(sub)
    assert (a0, a1) == (1.0, 0.0)
    assert a2 == pytest.approx(-1.0 / 48.0, rel=1e-14)


def test_series_a1_vanishes_for_every_alpha(sol_2pi):
    for beta in (1.3 * PI, 1.6 * PI, 2.0 * PI):
        assert series_coefficients(solve_c_beta(beta))[1] == 0.0


def test_series_residual_order(sol_2pi):
    # plugging theta^alpha (1 + a2 theta^2) into the equation leaves O(theta^(alpha+2))
    alpha = sol_2pi.alpha
    c = sol_2pi.c
    a2 = series_coefficients(sol_2pi)[2]
    for theta in (1e-2, 1e-3):
        psi_s = theta**alpha * (1.0 + a2 * theta**2)
        psi_s2 = alpha * (alpha - 1.0) * theta ** (alpha - 2.0) + (alpha + 2.0) * (
            alpha + 1.0
        ) * a2 * theta**alpha
        res = psi_s2 + c / math.sin(theta) ** 2 * psi_s
        assert abs(res) <= theta ** (alpha + 1.0)


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


@pytest.mark.parametrize("theta", [[0.0, 0.3], [-0.1, 0.3], [0.3, 0.5 * PI + 1e-9], [0.3, math.nan]])
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
