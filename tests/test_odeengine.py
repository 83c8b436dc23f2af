import math

import numpy as np
import pytest

from hardyconst import beta_for_constant, g_func, hardycore, odeengine, solve_c_beta
from hardyconst.odeengine import (
    BracketError,
    IntegrationError,
    g_upper_bound,
    g_upper_bound_derivative,
    h_family_half,
    h_family_half_point,
    shoot_c,
    shot_profile,
    solve_h,
)

PI = math.pi


# ---------------------------------------------------------------------------
# Shooting oracle.

def test_shoot_slit_plane(sol_2pi):
    res = shoot_c(2.0 * PI)
    assert res.c_estimate == pytest.approx(0.2054, abs=5e-4)
    assert abs(res.c_estimate - sol_2pi.c) < 1e-6
    assert abs(res.terminal_derivative) < 1e-9
    assert res.steps > 0


def test_shoot_near_critical():
    res = shoot_c(1.546 * PI)
    assert res.c_estimate == pytest.approx(0.25, abs=1e-3)


def test_shoot_cross_oracle_18pi():
    res = shoot_c(1.8 * PI)
    assert abs(res.c_estimate - solve_c_beta(1.8 * PI).c) < 1e-6


def test_shoot_matches_closed_form_tightly():
    factors = np.append(np.linspace(1.546, 2.0, 21), [1.55, 1.6, 1.7, 1.8, 1.9])
    gaps = [abs(shoot_c(f * PI).c_estimate - solve_c_beta(f * PI).c) for f in factors]
    assert max(gaps) <= 1e-10


_CLOSED_FORM = ("solve_c_beta", "equation_residual", "beta_for_constant", "beta_critical")


def test_shoot_is_independent_of_closed_form(monkeypatch):
    expected = solve_c_beta(1.8 * PI).c

    def forbidden(*args, **kwargs):
        raise AssertionError("shooting called the closed form")

    for name in _CLOSED_FORM:
        monkeypatch.setattr(hardycore, name, forbidden)
    assert abs(shoot_c(1.8 * PI).c_estimate - expected) < 1e-10
    assert not set(vars(odeengine)) & set(_CLOSED_FORM)
    assert not any(getattr(hardycore, name) in vars(odeengine).values() for name in _CLOSED_FORM)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_integration_raises(monkeypatch):
    # an infinite potential beyond theta = 1 makes the step size collapse there
    monkeypatch.setattr(
        odeengine, "potential_v", lambda theta, beta: math.inf if theta >= 1.0 else 1.0
    )
    with pytest.raises(IntegrationError):
        shoot_c(1.8 * PI)


@pytest.mark.parametrize("beta_factor", [1.6, 1.7, 1.9])
def test_shoot_terminal_condition_met(beta_factor):
    res = shoot_c(beta_factor * PI)
    assert abs(res.terminal_derivative) < 1e-9


def test_shoot_subcritical_has_no_bracket():
    with pytest.raises(BracketError):
        shoot_c(1.2 * PI)


def test_shoot_domain_error():
    with pytest.raises(ValueError):
        shoot_c(0.9 * PI)


def test_shot_stays_positive(sol_2pi):
    res = shoot_c(2.0 * PI)
    grid = np.geomspace(2e-6, PI, 300)
    psi_vals, _ = shot_profile(2.0 * PI, res.c_estimate, grid)
    assert np.all(psi_vals > 0.0)


# ---------------------------------------------------------------------------
# Singular IVP.

def test_h_launch_expansion_satisfies_equation():
    # residual of the quadratic launch h = 1 - theta^2/(2(2a+1)) at theta = 1e-4
    for alpha in (0.6, 0.8):
        theta = 1e-4
        h = 1.0 - theta**2 / (2.0 * (2.0 * alpha + 1.0))
        dh = -theta / (2.0 * alpha + 1.0)
        res = dh + (alpha * h * h - math.cos(theta) * h + 1.0 - alpha) / math.sin(theta)
        assert abs(res) < 1e-8


def test_h_profile_starts_at_launch_value():
    prof = solve_h(0.7)
    assert prof.grid[0] == pytest.approx(1e-4)
    assert prof.h[0] == pytest.approx(1.0 - 1e-8 / (2.0 * 2.4), abs=1e-10)


def test_h_bounded_between_zero_and_one():
    prof = solve_h(0.65)
    assert np.all(prof.h > 0.0)
    assert np.all(prof.h <= 1.0)


def test_h_monotone_in_alpha():
    grid = np.linspace(1e-4, 0.5 * PI, 200)
    lo = solve_h(0.6, grid=grid)
    hi = solve_h(0.8, grid=grid)
    assert np.all(lo.h[1:] < hi.h[1:])


def test_h_rejects_bad_alpha():
    for alpha in (0.5, 1.0, 0.2):
        with pytest.raises(ValueError):
            solve_h(alpha)


def test_h_step_collapse_at_absurd_tolerance():
    with pytest.raises(IntegrationError):
        solve_h(0.7, rtol=1e-16, atol=1e-18)


def test_h_matches_riccati_variable():
    # alpha h(alpha, theta) equals g(beta, theta) when alpha(1-alpha) = c(beta)
    for alpha in (0.6, 0.7112860085935853):
        beta = beta_for_constant(alpha * (1.0 - alpha))
        prof = solve_h(alpha)
        g_vals = np.array([g_func(float(t), beta) for t in prof.grid])
        assert np.max(np.abs(alpha * prof.h - g_vals)) < 1e-7


# ---------------------------------------------------------------------------
# Critical-exponent family.

def test_family_initial_value_maximal_member():
    prof = h_family_half(0.0)
    assert prof.h[0] == pytest.approx(1.0, abs=1e-6)
    assert prof.lam == 0.0


def test_family_rejects_negative_parameter():
    with pytest.raises(ValueError):
        h_family_half(-0.5)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_family_satisfies_critical_riccati(lam):
    # h' + (h^2 - 2 cos(theta) h + 1)/(2 sin(theta)) = 0, analytic derivative
    for theta in np.linspace(0.05, 0.5 * PI - 0.01, 40):
        theta = float(theta)
        h, dh = h_family_half_point(theta, lam)
        res = dh + (h * h - 2.0 * math.cos(theta) * h + 1.0) / (2.0 * math.sin(theta))
        assert abs(res) < 1e-7


def test_family_analytic_derivative_matches_finite_difference():
    for lam in (0.0, 1.0):
        for theta in (0.3, 0.9, 1.4):
            _, dh = h_family_half_point(theta, lam)
            step = 1e-5
            hp = (
                h_family_half_point(theta + step, lam)[0]
                - h_family_half_point(theta - step, lam)[0]
            ) / (2.0 * step)
            assert dh == pytest.approx(hp, abs=1e-6)


def test_family_decreasing_in_parameter():
    grid = np.linspace(1e-4, 0.5 * PI, 120)
    members = [h_family_half(lam, grid=grid).h for lam in (0.0, 0.5, 1.0, 2.0)]
    for hi, lo in zip(members[:-1], members[1:]):
        assert np.all(hi[1:] > lo[1:])


def test_family_maximal_member_is_twice_critical_riccati(bcr):
    grid = np.linspace(1e-3, 0.5 * PI, 150)
    prof = h_family_half(0.0, grid=grid)
    g_vals = np.array([g_func(float(t), bcr) for t in grid])
    assert np.max(np.abs(prof.h - 2.0 * g_vals)) < 1e-6


def test_backward_integration_agrees_with_family():
    # the subcritical backward path must reproduce the closed-form member
    # whose terminal value matches tan((beta - pi)/4)
    beta = 1.3 * PI
    target = math.tan(0.25 * (beta - PI))
    f_half_sq = h_family_half_point(0.5 * PI, 0.0)[0]  # h0(pi/2)
    from hardyconst.specfun import hyp2f1

    f_at_half = hyp2f1(0.5, 0.5, 1.0, 0.5)
    lam = f_at_half**2 * (f_half_sq - target) / 4.0
    assert lam > 0.0
    grid = np.linspace(0.01, 0.5 * PI, 120)
    member = h_family_half(lam, grid=grid)
    g_vals = np.array([g_func(float(t), beta) for t in grid])
    assert np.max(np.abs(member.h - 2.0 * g_vals)) < 1e-6


# ---------------------------------------------------------------------------
# Quartic upper bound.

def test_upper_bound_at_origin():
    for a in (0.5, 0.7):
        assert g_upper_bound(0.0, a) == a


def test_upper_bound_dominates_riccati_variable(bcr):
    thetas = np.linspace(1e-4, 0.5 * PI - 1e-9, 300)
    for beta in (bcr, 1.7 * PI, 2.0 * PI):
        a = solve_c_beta(beta).alpha
        g_vals = np.array([g_func(float(t), beta) for t in thetas])
        margin = g_upper_bound(thetas, a) - g_vals
        assert margin.min() >= -1e-9


def test_upper_solution_residual_nonnegative():
    # sin(theta) gbar' + gbar^2 - cos(theta) gbar + c >= 0 on (0, pi/2)
    thetas = np.linspace(1e-6, 0.5 * PI - 1e-9, 500)
    for beta in (1.7 * PI, 2.0 * PI):
        sol = solve_c_beta(beta)
        gb = g_upper_bound(thetas, sol.alpha)
        dgb = g_upper_bound_derivative(thetas, sol.alpha)
        res = np.sin(thetas) * dgb + gb**2 - np.cos(thetas) * gb + sol.c
        assert res.min() >= -1e-12


def test_upper_bound_dominates_comparison_solutions():
    for alpha in (0.55, 0.75):
        prof = solve_h(alpha)
        bound = g_upper_bound(np.minimum(prof.grid, 0.5 * PI), alpha) / alpha
        assert np.all(prof.h <= bound + 1e-9)


def test_upper_bound_validation():
    with pytest.raises(ValueError):
        g_upper_bound(0.3, 0.4)
    with pytest.raises(ValueError):
        g_upper_bound(2.0, 0.7)
