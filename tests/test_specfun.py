import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyconst.specfun import gamma, hyp2f1, hyp2f1_dz

# Frozen oracle values (mpmath at 40 digits).
GAMMA_RATIO_3Q_1Q = 0.3379891200336424  # Gamma(3/4) / Gamma(1/4)
F_HALF_HALF_ONE_AT_HALF = 1.1803405990160962  # 2F1(1/2,1/2,1; 1/2) = (2/pi) K(1/sqrt(2))
F_AT_ALPHA_071 = 1.1432932401301594  # 2F1(1/2,1/2,1.21; 1/2)


def test_gamma_at_one():
    assert gamma(1.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_at_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_matches_reference_implementation():
    for x in np.linspace(0.05, 30.0, 241):
        ref = math.gamma(x)
        assert abs(gamma(float(x)) - ref) <= 1e-12 * abs(ref)


def test_gamma_ratio_against_high_precision_oracle():
    assert gamma(0.75) / gamma(0.25) == pytest.approx(GAMMA_RATIO_3Q_1Q, abs=1e-13)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma(0.0)
    with pytest.raises(ValueError):
        gamma(-1.5)


@pytest.mark.parametrize("x", [0.25, 0.5, 0.85])
def test_gamma_recurrence_pinned_points(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=12.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_series_at_zero_is_one():
    assert hyp2f1(0.5, 0.5, 1.0, 0.0) == 1.0


def _elliptic_k_quadrature(k2: float, n: int = 4000) -> float:
    # composite Simpson for K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t)
    ts = np.linspace(0.0, 0.5 * math.pi, 2 * n + 1)
    f = 1.0 / np.sqrt(1.0 - k2 * np.sin(ts) ** 2)
    h = ts[1] - ts[0]
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def test_elliptic_integral_identity():
    expected = 2.0 / math.pi * _elliptic_k_quadrature(0.5)
    assert expected == pytest.approx(F_HALF_HALF_ONE_AT_HALF, abs=1e-12)
    assert hyp2f1(0.5, 0.5, 1.0, 0.5) == pytest.approx(expected, abs=1e-10)


def test_direct_partial_sum_oracle():
    # independent O(n^2) evaluation: each term built from scratch
    a = b = 0.5
    c, z = 1.21, 0.5
    total = 0.0
    for n in range(200):
        term = z**n
        for j in range(n):
            term *= (a + j) * (b + j) / ((c + j) * (1.0 + j))
        total += term
    assert total == pytest.approx(F_AT_ALPHA_071, abs=1e-13)
    assert hyp2f1(a, b, c, z) == pytest.approx(total, abs=1e-13)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, -2.0, 0.3)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.0, 0.6)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.0, -0.1)


@pytest.mark.parametrize("c", [1.0, 1.21, 1.5])
def test_contiguous_derivative_identity(c):
    for z in np.arange(0.05, 0.451, 0.05):
        z = float(z)
        fd = (hyp2f1(0.5, 0.5, c, z + 1e-6) - hyp2f1(0.5, 0.5, c, z - 1e-6)) / 2e-6
        assert abs(fd - 0.25 / c * hyp2f1(1.5, 1.5, c + 1.0, z)) <= 1e-8
        assert hyp2f1_dz(0.5, 0.5, c, z) == pytest.approx(
            0.25 / c * hyp2f1(1.5, 1.5, c + 1.0, z), rel=1e-14
        )


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.6, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_series_converges_and_positive(a, b, c, z):
    val = hyp2f1(a, b, c, z)
    assert val >= 1.0  # positive parameters: every term is non-negative


@pytest.mark.parametrize("a,b,c", [(0.5, 0.5, 1.0), (0.5, 0.5, 1.21), (1.5, 1.5, 2.21), (0.3, 1.7, 0.6)])
def test_array_series_matches_scalar_calls(a, b, c):
    # same recurrence, same float operations: equal bit for bit, element by element
    z = np.concatenate([[0.0, 1e-300, 1e-8, 0.5], np.random.default_rng(3).uniform(0.0, 0.5, 200)])
    assert np.array_equal(hyp2f1(a, b, c, z), [hyp2f1(a, b, c, float(v)) for v in z])
    assert np.array_equal(hyp2f1_dz(a, b, c, z), [hyp2f1_dz(a, b, c, float(v)) for v in z])


def test_array_series_keeps_shape():
    z = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert hyp2f1(0.5, 0.5, 1.0, z).shape == (2, 2)
    assert hyp2f1(0.5, 0.5, 1.0, np.array([])).shape == (0,)


@pytest.mark.parametrize("z", [[0.1, 0.6], [-0.1, 0.2], [0.3, math.nan]])
def test_array_out_of_range_rejected(z):
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.0, np.array(z))


def test_array_pole_rejected():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, -2.0, np.array([0.1, 0.2]))
