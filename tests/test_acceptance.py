"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  The grid-validation criterion runs the boundary-fitted grids of
`hardyconst.rayleigh`: for the slit disk, the 1-D log-polar pencil of the
infinite sector of opening 2pi; for the L-shape and the strip, Cartesian
grids graded toward the horizontal edges, the strip's solved as a 1-D
pencil too.  Their estimates are Rayleigh-Ritz upper estimates that
approach the constants algebraically in n, which a uniform lattice
(converging like 1/log^2(1/h)) cannot; see the README section on the
validator and tests/test_rayleigh.py for the machinery checks.
"""

import math
import time

import numpy as np
import pytest

from hardyconst import hardycore
from hardyconst.angles import gamma_star, gamma_star_star
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
    check_dbeta,
    check_ebg,
    check_one_reflex_polygon,
    check_sector_cap,
)
from hardyconst.hardycore import (
    beta_critical,
    f_func,
    g_func,
    potential_v,
    solve_c_beta,
)
from hardyconst.odeengine import (
    g_upper_bound,
    g_upper_bound_derivative,
    shoot_c,
    solve_h,
)
from hardyconst.rayleigh import build_grid, estimate_constant, strip_proxy

PI = math.pi


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_critical_angle():
    beta_critical.cache_clear()
    t0 = time.perf_counter()
    bcr = beta_critical()
    elapsed = time.perf_counter() - t0
    ok_val = abs(bcr / PI - 1.546) <= 0.001
    ok_time = elapsed < 0.1
    ok = report(
        "critical-angle",
        ok_val and ok_time,
        f"beta_cr = {bcr / PI:.6f} pi in 1.546 +/- 0.001, {elapsed * 1e3:.2f} ms",
    )
    assert ok


def test_criterion_2_slit_plane_constant():
    sol = solve_c_beta(2.0 * PI)
    shot = shoot_c(2.0 * PI)
    ok_val = abs(sol.c - 0.2054) <= 0.001
    ok_agree = abs(shot.c_estimate - sol.c) <= 1e-6
    ok = report(
        "slit-plane-constant",
        ok_val and ok_agree,
        f"c = {sol.c:.7f} (target 0.2054 +/- 0.001), |shoot - closed| = {abs(shot.c_estimate - sol.c):.2e}",
    )
    assert ok


def test_criterion_3_oracle_equivalence_sweep():
    bcr = beta_critical()
    t0 = time.perf_counter()
    betas = bcr + (2.0 * PI - bcr) * np.arange(1, 22) / 21.0
    errs = [abs(shoot_c(float(b)).c_estimate - solve_c_beta(float(b)).c) for b in betas]
    elapsed = time.perf_counter() - t0
    ok = report(
        "oracle-equivalence-sweep",
        max(errs) <= 1e-6 and elapsed < 30.0,
        f"max |shoot - closed| over 21 openings = {max(errs):.2e}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_4_critical_angle_table():
    bcr = beta_critical()
    anchors = [
        (gamma_star(PI).gamma_star / PI, 0.867, "gamma*(pi)"),
        (gamma_star(bcr).gamma_star / PI, 0.701, "gamma*(beta_cr)"),
        (gamma_star(2.0 * PI).gamma_star / PI, 0.673, "gamma*(2pi)"),
        (gamma_star_star(bcr) / PI, 0.700, "gamma**(beta_cr)"),
        (gamma_star_star(2.0 * PI) / PI, 0.672, "gamma**(2pi)"),
    ]
    bad = [f"{name}={got:.4f} (target {want})" for got, want, name in anchors if abs(got - want) > 0.003]
    ok = report(
        "critical-angle-table",
        not bad,
        "; ".join(f"{name} = {got:.4f} pi" for got, _, name in anchors) + (f"; OUT: {bad}" if bad else ""),
    )
    assert ok


def test_criterion_5_comparison_lemma_suite():
    bcr = beta_critical()
    problems = []
    thetas = np.linspace(1e-4, 0.5 * PI - 1e-9, 300)
    worst_margin = np.inf
    for beta in (bcr, 1.7 * PI, 2.0 * PI):
        a = solve_c_beta(beta).alpha
        g_vals = np.array([g_func(float(t), beta) for t in thetas])
        worst_margin = min(worst_margin, float((g_upper_bound(thetas, a) - g_vals).min()))
    if worst_margin < -1e-9:
        problems.append(f"upper bound fails by {worst_margin:.2e}")

    grid = np.linspace(1e-4, 0.5 * PI, 200)
    profiles = [solve_h(a, grid=grid).h for a in (0.55, 0.65, 0.75, 0.85)]
    for lo, hi in zip(profiles[:-1], profiles[1:]):
        if not np.all(lo[1:] < hi[1:]):
            problems.append("monotonicity in the exponent fails")
            break

    worst_res = np.inf
    dense = np.linspace(1e-6, 0.5 * PI - 1e-9, 500)
    for beta in (bcr, 1.7 * PI, 2.0 * PI):
        sol = solve_c_beta(beta)
        gb = g_upper_bound(dense, sol.alpha)
        dgb = g_upper_bound_derivative(dense, sol.alpha)
        res = np.sin(dense) * dgb + gb**2 - np.cos(dense) * gb + sol.c
        worst_res = min(worst_res, float(res.min()))
    if worst_res < -1e-12:
        problems.append(f"upper-solution residual dips to {worst_res:.2e}")

    ok = report(
        "comparison-suite",
        not problems,
        problems[0] if problems else f"bound margin >= {worst_margin:.1e}, residual >= {worst_res:.1e}",
    )
    assert ok


def test_criterion_6_certificate_suite():
    bcr = beta_critical()
    grid_half = np.linspace(0.0, 0.5 * PI, 400)
    worst = np.inf
    cases = 0

    for beta in (1.2 * PI, 1.5 * PI, bcr, 1.8 * PI, 2.0 * PI):
        for gamma in (0.5 * PI, gamma_star(beta).gamma_star - 1e-6):
            vals = [v for _, v in boundary_form_samples("line_segment", beta, gamma, grid_half)]
            worst = min(worst, min(vals))
            cases += 1

    for beta in (1.1 * PI, 1.3 * PI, bcr, 1.7 * PI, 2.0 * PI):
        for gamma in (0.0, 0.25 * (3.0 * PI - beta), 0.5 * (3.0 * PI - beta)):
            hi = min(beta - 0.5 * PI, 1.5 * PI - gamma)
            grid = np.linspace(0.5 * PI, hi, 400)
            vals = [v for _, v in boundary_form_samples("parabola", beta, gamma, grid)]
            worst = min(worst, min(vals))
            cases += 1

    for beta in (1.2 * PI, bcr, 1.8 * PI, 2.0 * PI):
        for gamma in (0.5 * PI, 0.8 * PI, PI):
            vals = [v for _, v in boundary_form_samples("two_sided", beta, gamma, grid_half)]
            worst = min(worst, min(vals))
            cases += 1

    for beta, gamma in ((1.3 * PI, 0.65 * PI), (1.2 * PI, 0.7 * PI), (1.3 * PI, 0.55 * PI)):
        grid = np.linspace(beta - 0.5 * PI, 0.5 * (beta + PI - gamma) - 1e-6, 400)
        vals = [v for _, v in boundary_form_samples("gamma3", beta, gamma, grid)]
        worst = min(worst, min(vals))
        cases += 1

    out_vals = [v for _, v in boundary_form_samples("line_segment", 2.0 * PI, 0.75 * PI, grid_half)]
    sanity_negative = min(out_vals) < 0.0

    ok = report(
        "certificate-suite",
        worst >= -1e-9 and sanity_negative,
        f"{cases} in-hypothesis combinations, worst margin {worst:.2e}; "
        f"out-of-hypothesis case goes negative: {sanity_negative}",
    )
    assert ok


def test_criterion_7_variational_validation():
    # Each window contains the constant the paper gives for its domain:
    # c(2pi) ~ 0.205358 for the slit disk, 1/4 for the L-shape and for the
    # half-plane the strip stands in for.  See the module docstring.
    results = []
    t0 = time.perf_counter()
    slit = estimate_constant(build_grid(Sector(2.0 * PI), 256)).lam
    t_slit = time.perf_counter() - t0
    results.append(("slit disk n=256", slit, 0.200, 0.235, t_slit))

    lshape = OneReflexPolygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)])
    t0 = time.perf_counter()
    lsh = estimate_constant(build_grid(lshape, 256)).lam
    t_lsh = time.perf_counter() - t0
    results.append(("L-shape n=256", lsh, 0.23, 0.27, t_lsh))

    t0 = time.perf_counter()
    strip = estimate_constant(strip_proxy(128)).lam
    t_strip = time.perf_counter() - t0
    results.append(("strip proxy n=128", strip, 0.23, 0.27, t_strip))

    ok_all = True
    details = []
    for name, lam, lo, hi, elapsed in results:
        in_window = lo <= lam <= hi
        in_time = elapsed < 60.0
        ok_all = ok_all and in_window and in_time
        details.append(f"{name}: {lam:.4f} vs [{lo}, {hi}] in {elapsed:.0f} s")
    ok = report("variational-validation", ok_all, "; ".join(details))
    assert ok, (
        "grid estimates outside their windows or over the time bound; "
        + "; ".join(details)
    )


def test_criterion_8_continuity_and_riccati():
    bcr = beta_critical()
    problems = []

    worst_joint = 0.0
    for beta in np.linspace(bcr, 2.0 * PI, 11):
        sol = solve_c_beta(float(beta))
        left = g_func(0.5 * PI, sol.beta)  # sin(pi/2) = 1, so g is f there
        right = math.sqrt(sol.c) * math.tan(math.sqrt(sol.c) * 0.5 * (sol.beta - PI))
        worst_joint = max(worst_joint, abs(left - right))
    if worst_joint > 1e-8:
        problems.append(f"joint mismatch {worst_joint:.2e}")

    def d5(fn, x, step):
        return (fn(x - 2 * step) - 8 * fn(x - step) + 8 * fn(x + step) - fn(x + 2 * step)) / (
            12.0 * step
        )

    worst_f = 0.0
    for beta in (1.7 * PI, 2.0 * PI):
        sol = solve_c_beta(beta)
        grid = np.concatenate(
            [
                np.linspace(0.02, 0.5 * PI - 5e-3, 70),
                np.linspace(0.5 * PI + 5e-3, beta - 0.5 * PI - 5e-3, 70),
                np.linspace(beta - 0.5 * PI + 5e-3, beta - 0.02, 70),
            ]
        )
        for theta in grid:
            theta = float(theta)
            fp = d5(lambda t: f_func(t, sol), theta, 2e-5)
            worst_f = max(worst_f, abs(fp + f_func(theta, sol) ** 2 + sol.c * potential_v(theta, beta)))
    if worst_f > 1e-6:
        problems.append(f"log-derivative residual {worst_f:.2e}")

    worst_g = 0.0
    for beta in (1.2 * PI, 1.8 * PI):
        c = solve_c_beta(beta).c
        for theta in np.linspace(0.02, 0.5 * PI - 1e-3, 150):
            theta = float(theta)
            gp = d5(lambda t: g_func(t, beta), theta, 1e-5)
            res = gp + (g_func(theta, beta) ** 2 - g_func(theta, beta) * math.cos(theta) + c) / math.sin(theta)
            worst_g = max(worst_g, abs(res))
    if worst_g > 1e-6:
        problems.append(f"Riccati-variable residual {worst_g:.2e}")

    ok = report(
        "continuity-normalization",
        not problems,
        problems[0]
        if problems
        else f"joint {worst_joint:.1e}, residuals f {worst_f:.1e} / g {worst_g:.1e}",
    )
    assert ok


def test_criterion_9_theorem_checkers(lshape_vertices, slitlike_vertices):
    problems = []

    rep = check_one_reflex_polygon(OneReflexPolygon(lshape_vertices))
    if rep.verdict != CERTIFIED or rep.constant != 0.25:
        problems.append("L-shaped hexagon")
    rep = check_one_reflex_polygon(OneReflexPolygon(slitlike_vertices))
    if rep.verdict != CONDITION_FAILED:
        problems.append("slit-like polygon")
    try:
        check_one_reflex_polygon(OneReflexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        problems.append("convex polygon accepted")
    except ShapeError:
        pass

    rep = check_sector_cap(SectorCapConvex(2.0 * PI, 0.0, 0.0, bounded=False))
    if rep.verdict != CERTIFIED or abs(rep.constant - 0.2054) > 1e-3:
        problems.append("unbounded cap")
    rep = check_sector_cap(SectorCapConvex(1.3 * PI, 0.65 * PI, 0.65 * PI, bounded=True))
    if rep.verdict != CERTIFIED or rep.constant != 0.25:
        problems.append("bounded cap 1.3pi")
    rep = check_sector_cap(SectorCapConvex(2.0 * PI, 0.75 * PI, 0.5 * PI, bounded=True))
    if rep.verdict != CONDITION_FAILED:
        problems.append("bounded cap 2pi")

    rep = check_ebg(Ebg(1.8 * PI, 0.5 * PI))
    if rep.verdict != CERTIFIED or abs(rep.constant - solve_c_beta(1.8 * PI).c) > 1e-12:
        problems.append("two-halfline single angle")
    rep = check_ebg(Ebg(1.5 * PI, 1.5 * PI))
    if rep.verdict != CERTIFIED or abs(rep.constant - 0.2054) > 1e-3:
        problems.append("two-halfline symmetric")
    rep = check_ebg(Ebg(2.0 * PI, PI))
    if rep.verdict != CERTIFIED or abs(rep.constant - 0.2054) > 1e-3:
        problems.append("two-halfline slit case")

    rep = check_dbeta(Dbeta.from_function(2.0 * PI, lambda t: 1.0))
    if rep.verdict != CERTIFIED or abs(rep.constant - 0.2054) > 1e-3:
        problems.append("mixed problem, constant profile")
    beta = 2.0 * PI
    rep = check_dbeta(Dbeta.from_function(beta, lambda t: 1.0 + (t - 0.5 * beta) ** 2))
    if rep.verdict != CERTIFIED:
        problems.append("mixed problem, vee profile")
    rep = check_dbeta(Dbeta.from_function(2.0 * PI, lambda t: 1.5 + math.sin(4.0 * t)))
    if rep.verdict != INCONCLUSIVE:
        problems.append("mixed problem, oscillating profile")

    ok = report(
        "domain-checkers",
        not problems,
        "all 12 worked examples reproduce their verdicts" if not problems else f"failed: {problems}",
    )
    assert ok
