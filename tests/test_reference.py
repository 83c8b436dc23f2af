"""The closed-form layer against an mpmath reference at 40 digits.

Every gate sits at about twice the worst error measured when it was set
(numpy 2.4, scipy 1.17, x86-64), so a change that costs digits fails here
first.  Measured worst errors: Gamma 5.2e-16 relative, 2F1 1.3e-15
relative on every parameter set below (floats and arrays alike), beta_cr
7.8e-16, c(beta) 5.1e-17 and alpha 1.9e-16 on the supercritical sweep,
alpha from 1e-9 to 1e-4 above beta_cr 1.7e-16, gamma* there and at 1.8pi
and 2pi 4.1e-16, beta_for_constant 3.0e-15, and round trips 8.3e-17 in c
and 5.3e-15 in beta.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hardyconst.angles import gamma_star
from hardyconst.hardycore import beta_critical, beta_for_constant, solve_c_beta
from hardyconst.specfun import gamma, hyp2f1

PI = math.pi
# The package evaluates 2F1(1/2, 1/2, alpha + 1/2) and its contiguous
# derivative 2F1(3/2, 3/2, alpha + 3/2) for exponents alpha in [1/2, 1),
# and 2F1(5/2, 5/2, 3) in h_family_half_point.
ALPHA_GRID = (0.55, 0.6, 0.65, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)
HYP_PARAMS = [
    (0.5, 0.5, 1.0),
    (0.5, 0.5, 1.21),
    (0.5, 0.5, 1.5),
    (1.5, 1.5, 2.0),
    (1.5, 1.5, 2.21),
    (0.3, 1.7, 0.6),
    (2.0, 1.0, 3.0),
    (2.5, 2.5, 3.0),
    *[(0.5, 0.5, alpha + 0.5) for alpha in ALPHA_GRID],
    *[(1.5, 1.5, alpha + 1.5) for alpha in ALPHA_GRID],
]


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


def _rel(value: float, ref) -> float:
    return float(abs((mp.mpf(float(value)) - ref) / ref))


def _c_ref(beta: float):
    """Root of the defining equation in (0, 1/4) at 40 digits."""
    b = mp.mpf(beta)

    def residual(c):
        s = mp.sqrt(1 - 4 * c)
        lhs = mp.sqrt(c) * mp.tan(mp.sqrt(c) * (b - mp.pi) / 2)
        return lhs - 2 * (mp.gamma((3 + s) / 4) / mp.gamma((1 + s) / 4)) ** 2

    return mp.findroot(residual, (mp.mpf("1e-6"), mp.mpf("0.25") - mp.mpf("1e-30")), solver="anderson")


def _alpha_ref(beta: float):
    """Exponent (1 + s)/2 from the root s = sqrt(1 - 4c) in (0, 1) at 40 digits."""
    b = mp.mpf(beta)

    def residual(s):
        c = (1 - s * s) / 4
        lhs = mp.sqrt(c) * mp.tan(mp.sqrt(c) * (b - mp.pi) / 2)
        return lhs - 2 * (mp.gamma((3 + s) / 4) / mp.gamma((1 + s) / 4)) ** 2

    s = mp.findroot(residual, (mp.mpf(0), 1 - mp.mpf("1e-6")), solver="anderson")
    return (1 + s) / 2


def _beta_ref(c: float):
    c = mp.mpf(c)
    s = mp.sqrt(1 - 4 * c)
    rhs = 2 * (mp.gamma((3 + s) / 4) / mp.gamma((1 + s) / 4)) ** 2
    return mp.pi + 2 / mp.sqrt(c) * mp.atan(rhs / mp.sqrt(c))


def _supercritical_sweep() -> list:
    return [float(b) for b in np.linspace(beta_critical(), 2.0 * PI, 26)[1:]]


def test_gamma_against_reference():
    xs = np.concatenate([np.linspace(0.01, 30.0, 300), [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]])
    worst = max(_rel(gamma(float(x)), mp.gamma(mp.mpf(float(x)))) for x in xs)
    assert worst <= 1e-15


@pytest.mark.parametrize("a,b,c", HYP_PARAMS)
def test_hyp2f1_against_reference(a, b, c):
    zs = np.linspace(0.0, 0.5, 51)
    refs = [mp.hyp2f1(a, b, c, mp.mpf(float(z))) for z in zs]
    scalar = max(_rel(hyp2f1(a, b, c, float(z)), ref) for z, ref in zip(zs, refs))
    array = max(_rel(v, ref) for v, ref in zip(hyp2f1(a, b, c, zs), refs))
    assert scalar <= 2.5e-15
    assert array <= 2.5e-15


def test_beta_critical_against_reference():
    ref = mp.pi + 4 * mp.atan(4 * (mp.gamma(mp.mpf(3) / 4) / mp.gamma(mp.mpf(1) / 4)) ** 2)
    assert float(abs(beta_critical() - ref)) <= 2e-15


def test_constant_sweep_against_reference():
    sols = [solve_c_beta(b) for b in _supercritical_sweep()]
    worst_c = max(float(abs(sol.c - _c_ref(sol.beta))) for sol in sols)
    worst_alpha = max(float(abs(sol.alpha - _alpha_ref(sol.beta))) for sol in sols)
    assert worst_c <= 1e-16
    assert worst_alpha <= 4e-16


def test_exponent_just_above_the_critical_opening():
    # alpha - 1/2 grows linearly in beta - beta_cr, c - 1/4 only quadratically
    bcr = beta_critical()
    offsets = (1e-9, 1e-7, 1e-6, 1e-5, 1e-4)
    worst = max(float(abs(solve_c_beta(bcr + d).alpha - _alpha_ref(bcr + d))) for d in offsets)
    assert worst <= 3.5e-16


def _gamma_star_ref(beta: float, theta0: float):
    """gamma* from the root of the first-order condition near theta0, with mpmath's g."""
    a = _alpha_ref(beta)
    c = a * (1 - a)

    def g(t):
        z = mp.sin(t / 2) ** 2
        f_val = mp.hyp2f1(0.5, 0.5, a + 0.5, z)
        df_val = mp.hyp2f1(1.5, 1.5, a + 1.5, z) / (4 * a + 2)
        f = (a / mp.tan(t / 2) - (1 - a) * mp.tan(t / 2)) / 2 + mp.sin(t) * df_val / f_val / 2
        return f * mp.sin(t)

    theta = mp.findroot(lambda t: (1 - a) + 2 * a * mp.cos(t) / g(t) - a * c / g(t) ** 2, theta0)
    return mp.pi - 2 * mp.atan(mp.sin(theta) / (mp.cos(theta) + a / g(theta)))


def test_gamma_star_against_reference():
    # just above beta_cr gamma* inherits alpha's digits
    bcr = beta_critical()
    betas = [bcr + d for d in (1e-9, 1e-7, 1e-6, 1e-4)] + [1.8 * PI, 2.0 * PI]
    crits = [gamma_star(b) for b in betas]
    worst = max(
        float(abs(crit.gamma_star - _gamma_star_ref(crit.beta, crit.argmax_theta))) for crit in crits
    )
    assert worst <= 9e-16


def test_beta_for_constant_against_reference():
    cs = [float(c) for c in np.linspace(0.2, 0.25, 26)[:-1]]
    worst = max(float(abs(beta_for_constant(c) - _beta_ref(c))) for c in cs)
    assert worst <= 6e-15


def test_round_trips_through_beta_for_constant():
    betas = _supercritical_sweep()
    beta_trip = max(abs(beta_for_constant(solve_c_beta(b).c) - b) for b in betas)
    cs = [float(c) for c in np.linspace(0.2054, 0.25, 26)[:-1]]
    c_trip = max(abs(solve_c_beta(beta_for_constant(c)).c - c) for c in cs)
    assert beta_trip <= 1e-14
    assert c_trip <= 2e-16
