"""The regime seam at beta_cr: one slack, and continuity on both sides.

Openings within SEAM_SLACK below beta_cr count as critical everywhere:
f and g take the closed form at beta_cr, psi is available, gamma* reports
gamma**, and the boundary forms use alpha = 1/2.  Below that window the
backward-Riccati table takes over.  Across the seam every quantity moves
by about its derivative times the distance, plus the table's own error
(measured: at most 1.4 d + 6e-10 for d = 1e-13 ... 1e-6).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyconst.angles import gamma_star, gamma_star_star
from hardyconst.certify import (
    CERTIFIED,
    Sector,
    SectorCapConvex,
    boundary_form_samples,
    certify_domain,
)
from hardyconst.hardycore import (
    SEAM_SLACK,
    beta_critical,
    f_func,
    g_func,
    is_subcritical,
    psi,
    solve_c_beta,
)

PI = math.pi

distances = st.floats(min_value=-13.0, max_value=-6.0).map(lambda e: 10.0**e)
angles = st.floats(min_value=-12.0, max_value=math.log10(0.5 * PI)).map(lambda e: 10.0**e)


def _jump_bound(d: float) -> float:
    return 4.0 * d + 1e-9


def test_inside_the_slack_is_the_critical_opening(bcr):
    beta = bcr - 0.5 * SEAM_SLACK
    assert not is_subcritical(beta)
    thetas = np.linspace(1e-6, 0.5 * PI, 50)
    assert np.array_equal(g_func(thetas, beta), g_func(thetas, bcr))
    assert gamma_star(beta).gamma_star == gamma_star(bcr).gamma_star
    assert gamma_star(beta).gamma_star_star == gamma_star_star(beta) == gamma_star_star(bcr)
    assert psi(0.3, solve_c_beta(beta)) > 0.0


def test_below_the_slack_is_subcritical(bcr):
    beta = bcr - 2.0 * SEAM_SLACK
    assert is_subcritical(beta)
    assert gamma_star(beta).gamma_star_star is None
    with pytest.raises(ValueError):
        gamma_star_star(beta)
    with pytest.raises(ValueError):
        psi(0.3, solve_c_beta(beta))


@given(d=distances, theta=angles)
def test_g_continuous_across_the_seam(bcr, d, theta):
    below, above = g_func(theta, bcr - d), g_func(theta, bcr + d)
    assert abs(below - above) <= _jump_bound(d)
    for beta, value in ((bcr - d, below), (bcr + d, above)):
        assert g_func(np.array([theta, 0.5 * PI]), beta)[0] == value


@given(d=distances, theta=angles)
def test_f_continuous_across_the_seam(bcr, d, theta):
    below = f_func(theta, solve_c_beta(bcr - d))
    above = f_func(theta, solve_c_beta(bcr + d))
    assert abs(below - above) <= _jump_bound(d) * abs(above)


@given(d=distances)
def test_gamma_star_continuous_across_the_seam(bcr, d):
    below, above = gamma_star(bcr - d), gamma_star(bcr + d)
    assert abs(below.gamma_star - above.gamma_star) <= _jump_bound(d)
    assert above.gamma_star_star is not None
    assert (below.gamma_star_star is None) == (d > SEAM_SLACK)


@given(
    d=distances,
    gamma_plus=st.floats(min_value=0.1 * PI, max_value=0.65 * PI),
    gamma_minus=st.floats(min_value=0.1 * PI, max_value=0.65 * PI),
)
def test_certificates_agree_across_the_seam(bcr, d, gamma_plus, gamma_minus):
    # caps well inside gamma* ~ 0.70 pi: both sides certify c = 1/4 with
    # margins that differ only by the move of gamma*
    for beta in (bcr - d, bcr + d):
        rep = certify_domain(Sector(beta))
        assert rep.verdict == CERTIFIED
        assert rep.constant == pytest.approx(0.25, abs=1e-12)
    below = certify_domain(SectorCapConvex(bcr - d, gamma_plus, gamma_minus))
    above = certify_domain(SectorCapConvex(bcr + d, gamma_plus, gamma_minus))
    assert below.verdict == above.verdict == CERTIFIED
    for lo, hi in zip(below.checks, above.checks):
        assert abs(lo.margin - hi.margin) <= _jump_bound(d)


@given(d=distances, gamma=st.floats(min_value=0.0, max_value=0.65 * PI))
def test_boundary_form_continuous_across_the_seam(bcr, d, gamma):
    thetas = np.linspace(0.0, 0.5 * PI, 41)
    below = boundary_form_samples("line_segment", bcr - d, gamma, thetas)
    above = boundary_form_samples("line_segment", bcr + d, gamma, thetas)
    for (_, lo), (_, hi) in zip(below, above):
        assert abs(lo - hi) <= _jump_bound(d)
