"""Special-function kernel: Gamma on the positive axis and 2F1 on [0, 1/2].

Everything downstream needs exactly two primitives: Gamma(x) for x > 0
(it enters the transcendental equations through ratios like
Gamma(3/4)/Gamma(1/4)) and the hypergeometric function 2F1(a, b, c; z)
for z in [0, 1/2], where the defining power series converges absolutely
and quickly.  No analytic continuation, no complex arguments.

Both are scipy.special's, behind the domain checks the callers rely on.
2F1 takes a float or an array of z and returns the same kind; scipy gives
the same floats for a value alone as inside an array.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "NonConvergenceError",
    "gamma",
    "hyp2f1",
    "hyp2f1_dz",
]


class NonConvergenceError(RuntimeError):
    """A special-function evaluation returned a non-finite value."""


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
    zs = np.asarray(z, dtype=float)
    inside = (zs >= 0.0) & (zs <= 0.5)
    if not inside.all():
        raise ValueError(f"hypergeometric argument z={zs[~inside].flat[0]} outside [0, 1/2]")
    val = special.hyp2f1(a, b, c, zs)
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
