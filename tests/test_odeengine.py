import math
import re
import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

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
    # measured worst gap 1.4e-16 (root solve to 1e-15 in alpha on the table
    # of the vertex series at pi/2), gated at 5e-16
    factors = np.append(np.linspace(1.546, 2.0, 21), [1.55, 1.6, 1.7, 1.8, 1.9])
    gaps = [abs(shoot_c(f * PI).c_estimate - solve_c_beta(f * PI).c) for f in factors]
    assert max(gaps) <= 5e-16


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


def test_shoot_calls_potential_with_floats(monkeypatch):
    # the run covers (0, pi/2] alone and calls V once per evaluation at one
    # angle and opening; the middle, where V = 1, is crossed without V
    calls = []

    def recording(theta, beta):
        v = hardycore.potential_v(theta, beta)
        calls.append((theta, beta, v))
        return v

    monkeypatch.setattr(odeengine, "potential_v", recording)
    shoot_c(np.array([1.0, 1.5, 2.0]) * PI)
    assert calls
    assert all(isinstance(theta, float) and isinstance(beta, float) for theta, beta, _ in calls)
    assert not [theta for theta, _, _ in calls if theta > 0.5 * PI]


def test_scan_is_shared_across_openings(monkeypatch):
    # the scan is the vertex series at pi/2, the same for every opening; the
    # one run of a call is the confirming run, which carries the supercritical
    # openings alone, and a call without one makes no run
    trials = []
    solve = odeengine._solve

    def recording(rhs, t0, t1, y0):
        trials.append(len(y0) // 2)
        return solve(rhs, t0, t1, y0)

    monkeypatch.setattr(odeengine, "_solve", recording)
    for betas in (np.array([1.8 * PI]), np.linspace(1.0, 2.0, 40) * PI, np.array([1.0, 1.5]) * PI):
        trials.clear()
        res = shoot_c(betas)
        supercritical = (~res.no_sign_change).sum()
        assert trials == ([supercritical] if supercritical else [])
    assert res.steps == res.nfev == 0


def test_shooting_cost(monkeypatch):
    # the roots are solved on the scan's Chebyshev table of the vertex series,
    # so a call makes one DOP853 run, the confirming one, which steps
    # [1/2, pi/2] in log theta (11 accepted steps and 182 right-hand-side
    # evaluations at rtol 1e-11).  Newton evaluates the table once per step,
    # at most _NEWTON steps (measured at most 5), and the confirm check once
    # more for its slope, however many openings share the call
    runs, tables = [], []
    solve, terminal = odeengine._solve, odeengine._Table.terminal

    def recording(rhs, t0, t1, y0):
        runs.append(solve(rhs, t0, t1, y0))
        return runs[-1]

    def counting(self, alpha, length):
        tables.append(np.size(alpha))
        return terminal(self, alpha, length)

    monkeypatch.setattr(odeengine, "_solve", recording)
    monkeypatch.setattr(odeengine._Table, "terminal", counting)
    res = shoot_c(1.8 * PI)
    assert len(runs) == 1
    assert runs[0].steps <= 14
    assert (res.steps, res.nfev) == (runs[0].steps, runs[0].nfev)
    assert len(tables) <= odeengine._NEWTON + 1
    for betas in (np.linspace(1.55, 2.0, 12) * PI, np.linspace(PI, 2.0 * PI, 600)):
        runs.clear()
        tables.clear()
        shoot_c(betas)
        assert len(runs) == 1
        assert len(tables) <= odeengine._NEWTON + 1


def test_unconverged_root_names_its_opening(monkeypatch):
    # one Newton step from the cell's midpoint does not reach _ROOT_XATOL;
    # the solve refuses the first supercritical opening instead of reporting it
    monkeypatch.setattr(odeengine, "_NEWTON", 1)
    with pytest.raises(BracketError, match=re.escape(str(1.8 * PI))):
        shoot_c(np.array([1.2, 1.8, 2.0]) * PI)


def test_newton_clamps_an_overshoot_onto_its_cell():
    # Newton on arctan from 1.5 steps to -1.69, past the cell's lower edge -1;
    # the iterate lands on the edge, and from there the iteration settles at 0
    seen = []

    def fdf(x):
        seen.extend(x.tolist())
        return np.arctan(x), 1.0 / (1.0 + x * x)

    root, bad = odeengine._newton(fdf, np.array([1.5]), np.array([-1.0]), np.array([1.5]))
    assert seen[:2] == [1.5, -1.0]
    assert all(-1.0 <= x <= 1.5 for x in seen)
    assert not bad.any() and abs(root[0]) <= 1e-15


def test_newton_returns_the_entries_that_do_not_settle():
    # entry 0 settles at 1/2, entry 1 takes a NaN step and entry 2 a step of
    # 1 every time, which the cell's edge stops but never settles
    kind = np.array([0, 1, 2])

    def fdf(x, kind):
        f = np.where(kind == 0, x - 0.5, np.where(kind == 1, np.nan, 1.0))
        return f, np.ones_like(x)

    start, lo, hi = np.zeros(3), np.full(3, -2.0), np.full(3, 2.0)
    root, bad = odeengine._newton(fdf, start, lo, hi, kind)
    assert bad.tolist() == [False, True, True]
    assert root[0] == 0.5 and root[2] == -2.0
    assert start.tolist() == [0.0, 0.0, 0.0]


def test_shot_root_that_leaves_its_cell_is_kept(monkeypatch):
    # at 1.5522 pi Newton's first step in alpha passes the cell's edge; the
    # iterate is clamped onto it and settles, where stopping it there would
    # refuse the opening.  Measured gap to the closed form 2.8e-17
    beta = 1.5522 * PI
    table, seen = odeengine._scan(), []
    terminal = odeengine._Table.terminal

    def recording(self, alpha, length):
        seen.extend(np.real(alpha).tolist())
        return terminal(self, alpha, length)

    monkeypatch.setattr(odeengine._Table, "terminal", recording)
    res = shoot_c(beta)
    assert set(seen) & set(table.alpha.tolist())
    assert abs(res.c_estimate - solve_c_beta(beta).c) <= 1e-15


def _reference_roots(betas):
    """psi'(beta/2) = 0 solved on DOP853 shots alone: a scan of 18 trials
    evenly spaced in (0, 1/4], then a Chandrupatla solve in c of each
    opening's rightmost sign-change cell, one shot per iterate."""
    middle = 0.5 * (betas - PI)

    def terminal(cs, length):
        run = odeengine._shoot_left(cs)
        return odeengine._across_middle(run.y[: cs.size], run.y[cs.size :], cs, length)[1]

    scan = np.linspace(1e-6, 0.25, 18)
    d_vals = terminal(scan, middle[:, None])
    change = d_vals[:, :-1] * d_vals[:, 1:] <= 0.0
    assert change.any(axis=1).all()
    i = scan.size - 2 - np.argmax(change[:, ::-1], axis=1)
    root = find_root(terminal, (scan[i], scan[i + 1]), args=(middle,), tolerances={"xatol": 1e-13})
    assert root.success.all()
    return root.x


def _table_roots(betas):
    """psi'(beta/2) = 0 solved in alpha on the scan's own table by scipy's
    Chandrupatla solve (find_root), in each opening's rightmost sign-change cell."""
    table = odeengine._scan()
    middle = 0.5 * (betas - PI)
    d_vals = odeengine._across_middle(table.ends[0], table.ends[1], table.cs, middle[:, None])[1]
    change = d_vals[:, :-1] * d_vals[:, 1:] <= 0.0
    assert change.any(axis=1).all()
    i = table.alpha.size - 2 - np.argmax(change[:, ::-1], axis=1)
    root = find_root(
        table.terminal, (table.alpha[i + 1], table.alpha[i]), args=(middle,),
        tolerances={"xatol": 1e-15},
    )
    assert root.success.all()
    return root.x


def test_newton_root_matches_scipys_root_on_the_table(monkeypatch):
    # shoot_c's Newton iteration against an independent solve of the same
    # table, over (beta_cr, 2pi] and from 1e-12 to 1e-3 above beta_cr;
    # measured worst gap in alpha 4.4e-16, gated at 1e-15
    bcr = hardycore.beta_critical()
    betas = np.concatenate([bcr + np.logspace(-12, -3, 28), np.linspace(bcr, 2.0 * PI, 401)[1:]])
    seen = []
    terminal = odeengine._Table.terminal

    def recording(self, alpha, length):
        seen.append(np.real(alpha))
        return terminal(self, alpha, length)

    monkeypatch.setattr(odeengine._Table, "terminal", recording)
    res = shoot_c(betas)
    assert not res.no_sign_change.any()
    alpha = seen[-1]  # the confirm check takes the table's slope at the roots
    monkeypatch.undo()
    assert np.abs(alpha - _table_roots(betas)).max() <= 1e-15


def test_table_root_matches_the_shots_root():
    # the root on the scan's Chebyshev interpolant against the root of the
    # shots themselves; measured worst gap 1.2e-14, gated at 1e-12
    betas = np.array([1.546, 1.6, 1.7, 1.8, 1.9, 2.0]) * PI
    gaps = np.abs(shoot_c(betas).c_estimate - _reference_roots(betas))
    assert gaps.max() <= 1e-12


def test_coarse_table_raises(monkeypatch):
    # 10 nodes leave trailing coefficients of 4e-9 of the largest, far above
    # the 1e-13 the table must resolve; 18 nodes leave 2.6e-16
    monkeypatch.setattr(odeengine, "_TABLE", 10)
    with pytest.raises(IntegrationError, match="Chebyshev"):
        shoot_c(1.8 * PI)


def test_confirming_shot_names_its_opening(monkeypatch):
    # the confirming shot at the table's root implies a correction to c;
    # past _CONFIRM the solve refuses the opening instead of reporting it
    monkeypatch.setattr(odeengine, "_CONFIRM", 0.0)
    with pytest.raises(BracketError, match=re.escape(str(1.8 * PI))):
        shoot_c(np.array([1.2, 1.8, 2.0]) * PI)


def test_series_a2_half():
    # a_2 = -c / (6 (1 + 2 alpha)), which is -1/48 at the critical exponent 1/2
    cs = np.array([0.25, 0.2, 0.1])
    alpha = odeengine._exponent(cs)
    a = odeengine._vertex_series(cs, alpha)
    assert a[0].tolist() == [1.0, 1.0, 1.0]
    assert a[1, 0] == pytest.approx(-1.0 / 48.0, rel=1e-14)
    np.testing.assert_allclose(a[1], -cs / (6.0 * (1.0 + 2.0 * alpha)), rtol=1e-14, atol=0.0)


def test_series_residual_order(sol_2pi):
    # the 27 terms of psi = theta^alpha sum_m a_2m theta^2m leave a residual
    # of sin^2(theta) psi'' + c psi at rounding level up to pi/2; measured at
    # most 3.5e-16 of c psi at 0.1 and 1/2, and 2.0e-15 at pi/2, where the
    # terms of psi'' cancel more
    alpha, c = sol_2pi.alpha, sol_2pi.c
    a = odeengine._vertex_series(np.array([c]), np.array([alpha]))[:, 0]
    assert a.size == 27
    m = np.arange(a.size)
    for theta, gate in ((0.1, 2e-15), (0.5, 2e-15), (0.5 * PI, 4e-15)):
        psi_s = np.sum(a * theta ** (alpha + 2 * m))
        psi_s2 = np.sum(a * (alpha + 2 * m) * (alpha + 2 * m - 1) * theta ** (alpha + 2 * m - 2))
        res = math.sin(theta) ** 2 * psi_s2 + c * psi_s
        assert abs(res) <= gate * c * psi_s


def test_short_vertex_series_raises(monkeypatch):
    # 6 terms leave a last term of phi_t up to 3.5e-4 of phi at pi/2, far above
    # the 1e-16 the scan must resolve; 27 terms leave 5.8e-17
    monkeypatch.setattr(odeengine, "_SERIES_TERMS", 6)
    with pytest.raises(IntegrationError, match="vertex series"):
        shoot_c(1.8 * PI)


@pytest.mark.parametrize("c", [0.1, 0.2, 0.2499])
def test_log_angle_shot_matches_a_shot_in_the_angle(c):
    # the same series start integrated in theta itself, at a tighter rtol:
    # checks the change of variables and the amplitude the log-angle run keeps
    alpha = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * c))
    a2 = -c / (6.0 * (1.0 + 2.0 * alpha))
    th0 = 1e-6
    y0 = [
        th0**alpha * (1.0 + a2 * th0**2),
        th0 ** (alpha - 1.0) * (alpha + (alpha + 2.0) * a2 * th0**2),
    ]
    reference = solve_ivp(
        lambda theta, y: [y[1], -c * y[0] / math.sin(theta) ** 2],
        (th0, 0.5 * PI),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-30,
        dense_output=True,
    )
    assert reference.success
    run = odeengine._shoot_left(np.array([c]))
    np.testing.assert_allclose(run.y, reference.y[:, -1], rtol=1e-9, atol=0.0)
    grid = np.array([1e-3, 0.7, 0.5 * PI])
    psi_vals, dpsi_vals = shot_profile(1.8 * PI, c, grid)
    np.testing.assert_allclose(psi_vals, reference.sol(grid)[0], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(dpsi_vals, reference.sol(grid)[1], rtol=1e-9, atol=0.0)


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
    # c = 1/4, reached without the closed form; at beta = pi the middle
    # [pi/2, beta/2] has length 0
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
    # 8.9e-16, one ulp, gated at 1e-15.  The vertex series at pi/2 is the same
    # for every opening; the middle is crossed exactly
    alpha = np.array([0.5])
    psi, dpsi = odeengine._to_angle(
        0.5 * PI, alpha, *odeengine._vertex(np.array([0.25]), alpha, 0.5 * PI)
    )

    def terminal_at_quarter(beta):
        return odeengine._across_middle(psi[0], dpsi[0], 0.25, 0.5 * (beta - PI))[1]

    seam = brentq(terminal_at_quarter, 1.5 * PI, 1.6 * PI, xtol=1e-15)
    assert abs(seam - hardycore.beta_critical()) <= 1e-15


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
    # measured worst gap 1.4e-16, gated at 5e-16
    assert isinstance(tight_batch.c_estimate, np.ndarray)
    assert np.array_equal(tight_batch.beta, _TIGHT_BETAS)
    gaps = np.abs(tight_batch.c_estimate - [solve_c_beta(b).c for b in _TIGHT_BETAS])
    assert gaps.max() <= 5e-16
    assert np.all(np.abs(tight_batch.terminal_derivative) < 1e-9)
    assert tight_batch.nfev >= tight_batch.steps > 0


def test_batch_matches_single_openings(tight_batch):
    single = [shoot_c(b) for b in _TIGHT_BETAS]
    assert all(isinstance(r.c_estimate, float) for r in single)
    # one table serves every call, and each opening's root solve is its own
    assert np.array_equal(tight_batch.c_estimate, [r.c_estimate for r in single])


def test_long_batch_takes_one_run(monkeypatch):
    # however many openings, a call makes one confirming run, and each
    # opening's root is solved on the same table as in any other batch
    betas = np.linspace(PI, 2.0 * PI, 600)
    runs = []
    solve = odeengine._solve

    def recording(rhs, t0, t1, y0):
        runs.append(len(y0) // 2)
        return solve(rhs, t0, t1, y0)

    monkeypatch.setattr(odeengine, "_solve", recording)
    batch = shoot_c(betas)
    assert runs == [(~batch.no_sign_change).sum()]
    assert np.array_equal(batch.c_estimate[::7], shoot_c(betas[::7]).c_estimate)


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
    # the profile crosses the middle [pi/2, beta/2] in closed form
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


def test_shot_profile_at_the_half_plane():
    # at beta = pi the middle has length 0 and the grid ends at pi/2
    psi_vals, dpsi_vals = shot_profile(PI, 0.25, np.linspace(1e-3, 0.5 * PI, 57))
    assert np.all(np.isfinite(psi_vals)) and np.all(np.isfinite(dpsi_vals))
    assert np.all(psi_vals > 0.0)


# ---------------------------------------------------------------------------
# Comparison family.

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
    # alpha h(alpha, theta) equals g(beta, theta) when alpha(1-alpha) = c(beta);
    # measured worst gap 3.3e-16, gated at 1e-15
    for alpha in (0.6, 0.7112860085935853):
        beta = beta_for_constant(alpha * (1.0 - alpha))
        prof = solve_h(alpha)
        g_vals = np.array([g_func(float(t), beta) for t in prof.grid])
        assert np.max(np.abs(alpha * prof.h - g_vals)) <= 1e-15


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
