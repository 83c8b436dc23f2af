import math
import re
import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hardyconst import beta_for_constant, g_func, hardycore, odeengine, solve_c_beta
from hardyconst.odeengine import (
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
    batch = np.array([1.7, 1.8, 2.0]) * PI
    expected_batch = [solve_c_beta(b).c for b in batch]

    def forbidden(*args, **kwargs):
        raise AssertionError("shooting called the closed form")

    for name in _CLOSED_FORM:
        monkeypatch.setattr(hardycore, name, forbidden)
    assert abs(shoot_c(1.8 * PI).c_estimate - expected) < 1e-10
    assert np.max(np.abs(shoot_c(batch).c_estimate - expected_batch)) < 1e-10
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


def test_nan_at_launch_raises_instead_of_hanging(monkeypatch):
    # solve_ivp alone never returns here: the first step size comes out NaN
    # and every trial step is rejected; the alarm fails a regression
    # instead of letting it hang the suite
    monkeypatch.setattr(odeengine, "potential_v", lambda theta, beta: math.nan)

    def hung(signum, frame):
        raise TimeoutError("shoot_c did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(IntegrationError, match="not finite"):
            shoot_c(1.8 * PI)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("beta_factor", [1.6, 1.7, 1.9])
def test_shoot_terminal_condition_met(beta_factor):
    res = shoot_c(beta_factor * PI)
    assert abs(res.terminal_derivative) < 1e-9
    assert res.nfev > 0 and res.nfev >= res.steps


def test_shoot_subcritical_verdict(monkeypatch):
    # no sign change of psi'(beta/2) in (0, 1/4] is shooting's own verdict
    # c = 1/4, reached without the closed form; at beta = pi the second
    # piece has length 0
    def forbidden(*args, **kwargs):
        raise AssertionError("shooting called the closed form")

    for name in _CLOSED_FORM:
        monkeypatch.setattr(hardycore, name, forbidden)
    for beta in (PI, 1.2 * PI, 1.5 * PI):
        res = shoot_c(beta)
        assert res.no_sign_change is True
        assert res.c_estimate == 0.25
        assert res.terminal_derivative > 0.0
    assert shoot_c(2.0 * PI).no_sign_change is False
    batch = shoot_c(np.array([1.0, 1.2, 1.8, 2.0]) * PI)
    assert batch.no_sign_change.tolist() == [True, True, False, False]
    assert batch.c_estimate[:2].tolist() == [0.25, 0.25]
    assert np.all(batch.c_estimate[2:] < 0.25)


def test_shooting_seam_matches_beta_critical():
    # the opening where psi'(beta/2) at c = 1/4 changes sign, found from the
    # shot alone, against the closed-form critical opening; measured gap
    # 1.46e-10 (DOP853 at rtol 1e-10), gated at 3e-10
    def terminal_at_quarter(beta):
        return odeengine._shoot(np.array([beta]), np.array([0.25]))[-1].y[1]

    seam = brentq(terminal_at_quarter, 1.5 * PI, 1.6 * PI, xtol=1e-15)
    assert abs(seam - hardycore.beta_critical()) <= 3e-10


def test_shoot_domain_error():
    with pytest.raises(ValueError):
        shoot_c(0.9 * PI)
    with pytest.raises(ValueError):
        shoot_c(PI - 1e-9)


# the openings of test_shoot_matches_closed_form_tightly
_TIGHT_BETAS = np.append(np.linspace(1.546, 2.0, 21), [1.55, 1.6, 1.7, 1.8, 1.9]) * PI


@pytest.fixture(scope="module")
def tight_batch():
    return shoot_c(_TIGHT_BETAS)


def test_batch_matches_closed_form_tightly(tight_batch):
    assert isinstance(tight_batch.c_estimate, np.ndarray)
    assert np.array_equal(tight_batch.beta, _TIGHT_BETAS)
    gaps = np.abs(tight_batch.c_estimate - [solve_c_beta(b).c for b in _TIGHT_BETAS])
    assert gaps.max() <= 1e-10
    assert np.all(np.abs(tight_batch.terminal_derivative) < 1e-9)
    assert tight_batch.nfev >= tight_batch.steps > 0


def test_batch_matches_single_openings(tight_batch):
    single = [shoot_c(b) for b in _TIGHT_BETAS]
    assert all(isinstance(r.c_estimate, float) for r in single)
    assert np.max(np.abs(tight_batch.c_estimate - [r.c_estimate for r in single])) <= 1e-11


def test_chunked_batch_matches_unchunked(monkeypatch, tight_batch):
    betas = _TIGHT_BETAS[::4]
    monkeypatch.setattr(odeengine, "_CHUNK", 3)
    chunked = shoot_c(betas)
    assert np.max(np.abs(chunked.c_estimate - tight_batch.c_estimate[::4])) <= 1e-11


def test_batch_names_its_failing_opening():
    # a subcritical opening in a batch gets the verdict and stops nothing
    batch = shoot_c(np.array([1.8, 1.2, 2.0]) * PI)
    assert batch.no_sign_change.tolist() == [False, True, False]
    assert batch.c_estimate[1] == 0.25
    gaps = np.abs(batch.c_estimate[[0, 2]] - [solve_c_beta(b * PI).c for b in (1.8, 2.0)])
    assert gaps.max() <= 1e-10
    with pytest.raises(ValueError, match=re.escape(str(0.9 * PI))):
        shoot_c(np.array([1.8, 0.9, 2.0]) * PI)


def test_shot_profile_meets_neumann_condition():
    # the profile's second piece is interpolated in the rescaled variable
    beta = 1.7 * PI
    res = shoot_c(beta)
    psi_vals, dpsi_vals = shot_profile(beta, res.c_estimate, np.array([0.5 * PI, 0.5 * beta]))
    assert abs(dpsi_vals[1]) < 1e-9
    assert psi_vals[1] > psi_vals[0] > 0.0


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
    # closed-form subcritical g (a member of the alpha = 1/2 family) against
    # a DOP853 integration of its Riccati equation in s = log(theta), from
    # the terminal value at pi/2 down to 1e-8; worst gap measured 2.5e-13
    thetas = np.geomspace(1e-8, 0.5 * PI, 200)
    s_eval = np.log(thetas)[::-1]

    def rhs(s, g):
        t = math.exp(s)
        return -(g * g - g * math.cos(t) + 0.25) / math.sin(t) * t

    for factor in (1.0, 1.1, 1.2, 1.3, 1.4, 1.45, 1.5, 1.54, 1.5457):
        beta = factor * PI
        sol = solve_ivp(
            rhs,
            (s_eval[0], s_eval[-1]),
            [0.5 * math.tan(0.25 * (beta - PI))],
            method="DOP853",
            rtol=1e-13,
            atol=1e-15,
            t_eval=s_eval,
        )
        assert sol.success
        assert np.max(np.abs(g_func(thetas, beta) - sol.y[0][::-1])) < 5e-13


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
