"""Special-function kernel: Gamma on the positive axis, 2F1 and K on [0, 1/2].

Everything downstream needs three primitives: Gamma(x) for x > 0 (it
enters the transcendental equations through ratios like
Gamma(3/4)/Gamma(1/4)), the hypergeometric function 2F1(a, b, c; z) for z
in [0, 1/2], where the defining power series converges absolutely and
quickly, and the integral J(z) of the critical-exponent family, a ratio of
complete elliptic integrals K.  No analytic continuation, no complex
arguments.

All are scipy.special's, behind the domain checks the callers rely on.
2F1 and J take a float or an array of z and return the same kind; scipy
gives the same floats for a value alone as inside an array.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "NonConvergenceError",
    "gamma",
    "hyp2f1",
    "hyp2f1_dz",
    "family_integral",
]


class NonConvergenceError(RuntimeError):
    """A special-function evaluation returned a non-finite value."""


def _half_interval(z, name: str) -> np.ndarray:
    """z as an array; ValueError if any entry, NaN included, lies outside [0, 1/2]."""
    zs = np.asarray(z, dtype=float)
    inside = (zs >= 0.0) & (zs <= 0.5)
    if not inside.all():
        raise ValueError(f"{name} argument z={zs[~inside].flat[0]} outside [0, 1/2]")
    return zs


def gamma(x: float) -> float:
    """Gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"gamma requires a positive argument, got {x!r}")
    return float(special.gamma(x))


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function 2F1(a, b, c; z) for z in [0, 1/2].

    z is a float or an array, and the result is of the same kind.  Poles
    of the series (c a non-positive integer) and z outside [0, 1/2],
    including NaN, raise ValueError; a non-finite value raises
    NonConvergenceError, which signals invalid parameters.
    """
    if c <= 0.0 and c == round(c):
        raise ValueError(f"hypergeometric parameter c={c} is a pole of the series")
    val = special.hyp2f1(a, b, c, _half_interval(z, "hypergeometric"))
    if not np.isfinite(val).all():
        raise NonConvergenceError(f"2F1 is not finite at a={a}, b={b}, c={c}")
    return val if np.ndim(z) else float(val)


def hyp2f1_dz(a: float, b: float, c: float, z):
    """d/dz 2F1(a, b, c; z) via the contiguous identity (ab/c) 2F1(a+1, b+1, c+1; z).

    Used instead of finite differences: the logarithmic derivative of the
    sector eigenfunction must stay accurate to ~1e-10 near the branch joint.
    Like hyp2f1, it takes a float or an array z.
    """
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)


def family_integral(z):
    """J(z) = int_z^{1/2} dt / (t (1 - t) F(t)^2), F = 2F1(1/2, 1/2, 1; t), for z in [0, 1/2].

    F = (2/pi) K(t), with K the complete elliptic integral of parameter t,
    and Legendre's relation (DLMF 19.7) gives the closed form
    J(z) = pi (K(1 - z)/K(z) - 1).  scipy's ellipkm1 evaluates K(1 - z)
    without forming 1 - z, so small z keep their digits.  J(1/2) = 0, J
    grows like log(16/z) - pi as z -> 0, and J(0) = inf.  Like hyp2f1, it
    takes a float or an array z and raises ValueError outside [0, 1/2].
    """
    zs = _half_interval(z, "elliptic")
    val = np.pi * (special.ellipkm1(zs) / special.ellipk(zs) - 1.0)
    return val if np.ndim(z) else float(val)
