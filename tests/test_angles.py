import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from hardyconst import angles, g_func, hardycore, odeengine, solve_c_beta
from hardyconst.cli import main
from hardyconst.hardycore import SEAM_SLACK, sector_constants
from hardyconst.angles import gamma_star, gamma_star_star
from hardyconst.odeengine import g_upper_bound, g_upper_bound_derivative

PI = math.pi


def test_anchor_straight_opening():
    assert gamma_star(PI).gamma_star / PI == pytest.approx(0.867, abs=0.003)


def test_anchor_critical_opening(bcr):
    assert gamma_star(bcr).gamma_star / PI == pytest.approx(0.701, abs=0.003)


def test_anchor_full_opening():
    assert gamma_star(2.0 * PI).gamma_star / PI == pytest.approx(0.673, abs=0.003)


def test_anchor_polynomial_bound(bcr):
    assert gamma_star_star(bcr) / PI == pytest.approx(0.700, abs=0.003)
    assert gamma_star_star(2.0 * PI) / PI == pytest.approx(0.672, abs=0.003)


def test_polynomial_bound_below_exact(bcr):
    for beta in (bcr, 1.7 * PI, 1.85 * PI, 2.0 * PI):
        crit = gamma_star(beta)
        assert crit.gamma_star_star is not None
        assert crit.gamma_star_star <= crit.gamma_star + 1e-9


def test_result_window_and_argmax(bcr):
    for beta in (PI, 1.3 * PI, bcr, 1.8 * PI, 2.0 * PI):
        crit = gamma_star(beta)
        assert 0.5 * PI < crit.gamma_star < PI
        assert 0.0 <= crit.argmax_theta <= 0.5 * PI


def test_no_polynomial_bound_subcritical():
    assert gamma_star(1.2 * PI).gamma_star_star is None
    with pytest.raises(ValueError):
        gamma_star_star(1.2 * PI)


def test_domain_errors():
    with pytest.raises(ValueError):
        gamma_star(0.9 * PI)
    with pytest.raises(ValueError):
        gamma_star(2.2 * PI)


def test_defining_inequality_certificate():
    # just below gamma*: the segment form stays non-negative everywhere;
    # beyond it: it fails exactly at the recorded argmax
    for beta in (1.2 * PI, 2.0 * PI):
        crit = gamma_star(beta)
        alpha = solve_c_beta(beta).alpha
        grid = np.linspace(1e-9, 0.5 * PI, 400)

        def form(gamma_val):
            return np.array(
                [
                    g_func(float(t), beta) * math.cos(t + 0.5 * gamma_val)
                    + alpha * math.cos(0.5 * gamma_val)
                    for t in grid
                ]
            )

        good = crit.gamma_star - 1e-6
        assert form(good).min() >= -1e-12
        bad = crit.gamma_star + 0.05
        t_star = crit.argmax_theta
        val_at_argmax = g_func(t_star, beta) * math.cos(t_star + 0.5 * bad) + alpha * math.cos(
            0.5 * bad
        )
        assert val_at_argmax < 0.0


def test_monotone_trend_non_increasing():
    betas = np.linspace(PI, 2.0 * PI, 41)
    values = [gamma_star(float(b)).gamma_star for b in betas]
    assert all(values[i] >= values[i + 1] - 1e-9 for i in range(len(values) - 1))


def test_continuity_across_the_regime_seam(bcr):
    below = gamma_star(bcr - 1e-7).gamma_star
    above = gamma_star(bcr + 1e-7).gamma_star
    assert abs(below - above) < 1e-4


@pytest.mark.parametrize("beta_factor", [1.0, 1.3, 1.5457304165079484, 1.8, 2.0])
def test_scan_matches_scalar_objective(beta_factor):
    # the dense scan is one array call; it must see the scalar path's floats
    beta = beta_factor * PI
    grid = np.linspace(0.0, 0.5 * PI, 400)
    sol = solve_c_beta(beta)
    objectives = [lambda t: angles._exact_objective(t, beta, sol.alpha, sol.c)]
    if beta_factor > 1.5:
        objectives.append(lambda t: angles._quartic_objective(t, beta, sol.alpha))
    for obj in objectives:
        assert np.array_equal(obj(grid), [obj(float(t)) for t in grid])


def _straddling_openings(bcr):
    # both regimes, the seam slack band and both ends, and a random spread
    spread = np.random.default_rng(16).uniform(PI, 2.0 * PI, 12)
    seam = [bcr - 1e-8, bcr - 0.5 * SEAM_SLACK, bcr, bcr + 1e-9]
    return np.concatenate([[PI, 1.2 * PI, 1.5 * PI], seam, [1.7 * PI, 2.0 * PI], spread])


def test_batch_matches_single_openings(bcr):
    # the scan and the Newton iteration work entry by entry: bit for bit equal
    betas = _straddling_openings(bcr)
    batch = gamma_star(betas)
    assert isinstance(batch.gamma_star, np.ndarray)
    assert np.array_equal(batch.beta, betas)
    for k, beta in enumerate(betas):
        single = gamma_star(float(beta))
        assert isinstance(single.gamma_star, float)
        assert batch.gamma_star[k] == single.gamma_star
        assert batch.argmax_theta[k] == single.argmax_theta
        if single.gamma_star_star is None:
            assert math.isnan(batch.gamma_star_star[k])
        else:
            assert batch.gamma_star_star[k] == single.gamma_star_star
    sup = ~np.isnan(batch.gamma_star_star)
    assert np.array_equal(sup, betas >= bcr - SEAM_SLACK)
    assert np.array_equal(gamma_star_star(betas[sup]), batch.gamma_star_star[sup])


def test_chunked_batch_matches_unchunked(monkeypatch, bcr):
    betas = _straddling_openings(bcr)
    whole = gamma_star(betas)
    monkeypatch.setattr(angles, "_CHUNK", 4)
    chunked = gamma_star(betas)
    for field in ("gamma_star", "gamma_star_star", "argmax_theta"):
        assert np.array_equal(getattr(chunked, field), getattr(whole, field), equal_nan=True)
    sup = betas >= bcr - SEAM_SLACK
    assert np.array_equal(gamma_star_star(betas[sup]), whole.gamma_star_star[sup])


def test_batch_domain_errors():
    with pytest.raises(ValueError, match=re.escape(f"opening angle {2.2 * PI}")):
        gamma_star(np.array([1.5, 2.2, 1.8]) * PI)
    with pytest.raises(ValueError, match=re.escape(f"opening angle {1.2 * PI}")):
        gamma_star_star(np.array([1.8, 1.2]) * PI)
    with pytest.raises(ValueError):
        gamma_star(np.full((2, 2), 1.5 * PI))


# offsets from beta_cr at which the first-order-condition oracles also run
_SEAM_OFFSETS = np.logspace(-12, -3, 10)


def test_argmax_meets_the_first_order_condition(bcr):
    # with g' = -(g^2 - g cos(theta) + c)/sin(theta), the derivative of
    # sin(theta)/(cos(theta) + alpha/g) vanishes where
    # N(theta) = (1 - alpha) + 2 alpha cos(theta)/g - alpha c/g^2 = 0
    theta_gaps, gamma_gaps = [], []
    sweep = np.linspace(PI, 2.0 * PI, 61)
    for beta in np.concatenate([sweep, bcr - _SEAM_OFFSETS, bcr + _SEAM_OFFSETS]):
        beta = float(beta)
        crit = gamma_star(beta)
        sol = solve_c_beta(beta)
        alpha, c = sol.alpha, sol.c

        def n_of(theta):
            g = g_func(theta, beta)
            return (1.0 - alpha) + 2.0 * alpha * math.cos(theta) / g - alpha * c / g**2

        t0 = crit.argmax_theta
        root = brentq(n_of, t0 - 0.01, min(t0 + 0.01, 0.5 * PI), xtol=1e-15)
        g = g_func(root, beta)
        gamma_root = PI - 2.0 * math.atan(math.sin(root) / (math.cos(root) + alpha / g))
        theta_gaps.append(abs(root - t0))
        gamma_gaps.append(abs(gamma_root - crit.gamma_star))
    assert max(theta_gaps) <= 1e-15
    assert max(gamma_gaps) <= 1e-15


def test_polynomial_bound_meets_its_first_order_condition(bcr):
    # with the quartic gbar in place of g, the derivative of
    # sin(theta)/(cos(theta) + alpha/gbar) vanishes where
    # 1 + alpha cos(theta)/gbar + alpha sin(theta) gbar'/gbar^2 = 0
    gaps = []
    for beta in np.concatenate([np.linspace(bcr, 2.0 * PI, 21), bcr + _SEAM_OFFSETS]):
        beta = float(beta)
        alpha = solve_c_beta(beta).alpha

        def obj(theta):
            return math.sin(theta) / (math.cos(theta) + alpha / g_upper_bound(theta, alpha))

        def n_of(theta):
            gb = g_upper_bound(theta, alpha)
            dgb = g_upper_bound_derivative(theta, alpha)
            return 1.0 + alpha * math.cos(theta) / gb + alpha * math.sin(theta) * dgb / gb**2

        grid = np.linspace(0.0, 0.5 * PI, 4001)
        t0 = grid[int(np.argmax([obj(float(t)) for t in grid]))]
        root = brentq(n_of, t0 - 1e-3, min(t0 + 1e-3, 0.5 * PI), xtol=1e-15)
        gaps.append(abs(PI - 2.0 * math.atan(obj(root)) - gamma_star_star(beta)))
    assert max(gaps) <= 1e-15


def test_objective_is_zero_where_g_is_not_positive():
    # g_of returns its second argument, so g is chosen freely; at g = 0 the
    # division by g must neither raise for floats nor warn for arrays
    given_g = lambda theta, g: g  # noqa: E731
    alpha = 0.6
    for g in (0.0, -0.0, -0.25, -alpha / math.cos(1.0), -math.inf):
        val = angles._objective(1.0, alpha, given_g, g)
        assert val.shape == () and val == 0.0 and not np.signbit(val)
    g = np.array([[0.0, -0.0, 0.3], [-alpha / math.cos(1.0), 2.0, -1e-300]])
    theta = np.array([1.0, 1.0, 0.4])
    vals = angles._objective(theta, alpha, given_g, g)
    assert vals.shape == (2, 3)
    assert np.array_equal(vals[g <= 0.0], np.zeros(4)) and not np.signbit(vals).any()
    assert vals[0, 2] == math.sin(0.4) / (math.cos(0.4) + alpha / 0.3)
    assert vals[1, 1] == math.sin(1.0) / (math.cos(1.0) + alpha / 2.0)


def test_unsettled_newton_names_the_first_opening(monkeypatch, tmp_path, capsys):
    # one step settles no opening: the first of the batch is named, and the
    # command exits as a numerical failure without writing its document
    monkeypatch.setattr(odeengine, "_NEWTON", 1)
    with pytest.raises(RuntimeError, match=re.escape(f"beta={1.2 * PI}")):
        gamma_star(np.array([1.2, 1.8, 2.0]) * PI)
    out = tmp_path / "g.json"
    assert main(["gamma-star", "--beta", "1.8pi", "-o", str(out)]) == 3
    assert "first-order condition" in capsys.readouterr().err
    assert not out.exists()


def test_each_opening_of_a_sweep_takes_its_own_newton_steps():
    # an entry that kept stepping after it settled, until the whole batch
    # had, would move by an ulp at a few openings of a sweep this long
    betas = np.linspace(PI, 2.0 * PI, 121)
    batch = gamma_star(betas)
    for k, beta in enumerate(betas):
        single = gamma_star(float(beta))
        assert batch.gamma_star[k] == single.gamma_star
        assert batch.argmax_theta[k] == single.argmax_theta
        gss = math.nan if single.gamma_star_star is None else single.gamma_star_star
        assert np.array_equal(batch.gamma_star_star[k], gss, equal_nan=True)


@pytest.mark.parametrize("count", [1, 120, 600])
def test_g_calls_per_chunk_are_bounded(monkeypatch, count):
    # per chunk: the scan, the two cell edges, at most _NEWTON Newton
    # iterates and the objective at the roots, whatever the chunk's size;
    # counted where the chunk evaluates g, at _g_of (g_func it no longer calls)
    calls = []
    g_of = angles._g_of

    def counted(theta, beta, alpha):
        calls.append(1)
        return g_of(theta, beta, alpha)

    monkeypatch.setattr(angles, "_g_of", counted)
    betas = np.linspace(1.05 * PI, 2.0 * PI, count)
    gamma_star(betas if count > 1 else float(betas[0]))
    chunks = -(-count // angles._CHUNK)
    assert len(calls) <= chunks * (1 + 2 + odeengine._NEWTON + 1)


def test_a_chunk_admits_each_opening_once(monkeypatch):
    # with the closed form's cache warm, the only range checks of a
    # 120-opening gamma_star are its own entry admission and that of the
    # gamma_star_star it calls: the scan, the cell edges and the Newton
    # iterates take g and the quartic bound at angles built inside [0, pi/2]
    betas = np.linspace(1.01 * PI, 1.99 * PI, 120)
    gamma_star(betas)
    calls, within = [], []
    in_range, star_star = hardycore._in_range, angles.gamma_star_star

    def counted(*args):
        calls.append(args[-1])
        return in_range(*args)

    def gss(beta):
        before = len(calls)
        result = star_star(beta)
        within.append(len(calls) - before)
        return result

    monkeypatch.setattr(hardycore, "_in_range", counted)
    monkeypatch.setattr(angles, "gamma_star_star", gss)
    gamma_star(betas)
    assert within == [1]
    assert calls == ["[pi, 2pi]", "[beta_cr, 2pi]"]


def test_slope_derivatives_match_central_differences(bcr):
    betas = _straddling_openings(bcr)[:, None]
    c, alpha = sector_constants(betas)
    theta = np.linspace(0.5, 1.5, 21)
    h = 1e-6
    slopes = [
        lambda t: angles._exact_slope(t, betas, alpha, c),
        lambda t: angles._quartic_slope(t, betas, alpha),
    ]
    for slope in slopes:
        central = (slope(theta + h)[0] - slope(theta - h)[0]) / (2.0 * h)
        np.testing.assert_allclose(slope(theta)[1], central, rtol=1e-7, atol=0.0)


def test_exact_slope_is_quiet_at_the_cell_ends(bcr):
    # g' is 0/0 at theta = 0, and g = 0 at theta = pi/2 when beta = pi
    betas = _straddling_openings(bcr)[:, None]
    c, alpha = sector_constants(betas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n, dn = angles._exact_slope(np.array([0.0, 0.5 * PI]), betas, alpha, c)
    np.testing.assert_allclose(n[:, 0], 2.0, rtol=1e-15)
    assert np.isfinite(n[1:, 1]).all() and np.isfinite(dn[1:, 1]).all()


def test_bounded_scan_keeps_the_whole_scan(bcr, monkeypatch):
    # the quartic objective bounds the exact one, so gamma*'s scan skips
    # angles without moving its argmax or maximum by a bit; g is evaluated
    # at far fewer supercritical entries than the whole scan's
    seam = np.linspace(bcr - SEAM_SLACK, bcr + 1e-6, 41)
    betas = np.concatenate([np.linspace(PI, 2.0 * PI, 215), seam, _straddling_openings(bcr)])
    c, alpha = sector_constants(betas)
    grid = np.linspace(0.0, 0.5 * PI, angles._SCAN_POINTS)
    rows = (betas[:, None], alpha[:, None], c[:, None])
    full = angles._exact_objective(grid, *rows)
    whole = angles._maximize(angles._exact_objective, angles._exact_slope, betas, alpha, c)
    entries = []
    g_of = angles._g_of

    def counted(theta, beta, alpha):
        entries.append(np.broadcast(theta, beta).size)
        return g_of(theta, beta, alpha)

    monkeypatch.setattr(angles, "_g_of", counted)
    upper = angles._exact_bound(grid, *rows)
    vals = angles._bounded_scan(angles._exact_objective, upper, grid, (betas, alpha, c))
    i, k = np.argmax(vals, axis=1), np.arange(betas.size)
    assert np.array_equal(i, np.argmax(full, axis=1)) and np.array_equal(vals[k, i], full[k, i])
    sub = int(np.isinf(upper).any(axis=1).sum())
    assert 0 < sub < betas.size
    assert sum(entries) < (sub + 0.1 * (betas.size - sub)) * grid.size
    bounded = angles._maximize(angles._exact_objective, angles._exact_slope, betas, alpha, c,
                               bound=angles._exact_bound)
    assert np.array_equal(bounded[0], whole[0]) and np.array_equal(bounded[1], whole[1])
