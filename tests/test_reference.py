"""The closed-form layer against an mpmath reference at 40 digits.

Every gate sits at about twice the worst error measured when it was set
(numpy 2.4, x86-64), so a change that costs digits fails here first.
Measured worst errors: Gamma 6.5e-15 relative, 2F1 1.3e-15 relative (the
array path gives the same floats), beta_cr 7.8e-16, c(beta) 2.1e-14,
beta_for_constant 7.1e-15, and round trips 2.3e-14 in c and 5.0e-13 in
beta.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hardyconst.hardycore import beta_critical, beta_for_constant, solve_c_beta
from hardyconst.specfun import gamma, hyp2f1

PI = math.pi
HYP_PARAMS = [
    (0.5, 0.5, 1.0),
    (0.5, 0.5, 1.21),
    (0.5, 0.5, 1.5),
    (1.5, 1.5, 2.0),
    (1.5, 1.5, 2.21),
    (0.3, 1.7, 0.6),
    (2.0, 1.0, 3.0),
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
    assert worst <= 1.5e-14


@pytest.mark.parametrize("a,b,c", HYP_PARAMS)
def test_hyp2f1_against_reference(a, b, c):
    zs = np.linspace(0.0, 0.5, 51)
    refs = [mp.hyp2f1(a, b, c, mp.mpf(float(z))) for z in zs]
    scalar = max(_rel(hyp2f1(a, b, c, float(z)), ref) for z, ref in zip(zs, refs))
    array = max(_rel(v, ref) for v, ref in zip(hyp2f1(a, b, c, zs), refs))
    assert scalar <= 3e-15
    assert array <= 3e-15


def test_beta_critical_against_reference():
    ref = mp.pi + 4 * mp.atan(4 * (mp.gamma(mp.mpf(3) / 4) / mp.gamma(mp.mpf(1) / 4)) ** 2)
    assert float(abs(beta_critical() - ref)) <= 2e-15


def test_constant_sweep_against_reference():
    worst = max(float(abs(solve_c_beta(b).c - _c_ref(b))) for b in _supercritical_sweep())
    assert worst <= 5e-14


def test_beta_for_constant_against_reference():
    cs = [float(c) for c in np.linspace(0.2, 0.25, 26)[:-1]]
    worst = max(float(abs(beta_for_constant(c) - _beta_ref(c))) for c in cs)
    assert worst <= 1.5e-14


def test_round_trips_through_beta_for_constant():
    betas = _supercritical_sweep()
    beta_trip = max(abs(beta_for_constant(solve_c_beta(b).c) - b) for b in betas)
    cs = [float(c) for c in np.linspace(0.2054, 0.25, 26)[:-1]]
    c_trip = max(abs(solve_c_beta(beta_for_constant(c)).c - c) for c in cs)
    assert beta_trip <= 1e-12
    assert c_trip <= 5e-14
