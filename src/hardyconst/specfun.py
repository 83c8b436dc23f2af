"""Special-function kernel: Gamma on the positive axis and the Gauss series.

Everything downstream needs exactly two primitives: Gamma(x) for x > 0
(it enters the transcendental equations through ratios like
Gamma(3/4)/Gamma(1/4)) and the hypergeometric function 2F1(a, b, c; z)
for z in [0, 1/2], where the defining power series converges absolutely
and quickly.  No analytic continuation, no complex arguments.
"""

from __future__ import annotations

import math

__all__ = [
    "NonConvergenceError",
    "gamma",
    "hyp2f1",
    "hyp2f1_dz",
]

MAX_TERMS = 10_000
_REL_TOL = 1e-15

# Lanczos approximation, g = 7, 9 coefficients (Godfrey's tabulation).
# Valid on the whole positive axis; relative error ~1e-14 in double precision.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class NonConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance."""


def gamma(x: float) -> float:
    """Gamma function for x > 0 via a fixed-coefficient Lanczos sum.

    Arguments below 1/2 are lifted once through Gamma(x) = Gamma(x+1)/x,
    so the reflection formula is never needed.
    """
    if not x > 0.0:
        raise ValueError(f"gamma requires a positive argument, got {x!r}")
    if x < 0.5:
        return gamma(x + 1.0) / x
    xa = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (xa + i)
    t = xa + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (xa + 0.5) * math.exp(-t) * acc


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Partial sum of sum_n (a)_n (b)_n / ((c)_n n!) z^n.

    Terms are accumulated until one drops below 1e-15 of the running sum;
    for z <= 1/2 this takes a few dozen terms.  Raises NonConvergenceError
    after 10,000 terms, which signals invalid parameters rather than a
    tolerance problem.
    """
    if c <= 0.0 and c == round(c):
        raise ValueError(f"hypergeometric parameter c={c} is a pole of the series")
    if not 0.0 <= z <= 0.5:
        raise ValueError(f"hypergeometric argument z={z} outside [0, 1/2]")
    total = 1.0
    term = 1.0
    for n in range(MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            return total
    raise NonConvergenceError(
        f"2F1 series did not converge in {MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def hyp2f1_dz(a: float, b: float, c: float, z: float) -> float:
    """d/dz 2F1(a, b, c; z) via the contiguous identity (ab/c) 2F1(a+1, b+1, c+1; z).

    Used instead of finite differences: the logarithmic derivative of the
    sector eigenfunction must stay accurate to ~1e-10 near the branch joint.
    """
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
