"""Every public function that takes a polar angle admits it by one rule.

hardycore.admit_angles is the one check of a polar angle, and it applies
the range rule of the openings' door: a closed end admits 1e-12 of slack
and is clamped onto the end for evaluation, except the end 0, which is
exact; an open end is strict; NaN lies outside.  ANGLE_TAKERS holds each
taker to its range, and the coverage tests keep every public function
with an angle or an opening argument in that table or in
test_openings.CALLERS, unless it is a named exception.
"""

import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest
from test_openings import CALLERS

import hardyconst
from hardyconst.certify import boundary_form_samples, theta1_two_sided
from hardyconst.hardycore import (
    critical_family,
    dpsi,
    f_func,
    g_func,
    potential_v,
    psi,
    solve_c_beta,
)
from hardyconst.odeengine import (
    g_upper_bound,
    g_upper_bound_derivative,
    h_family_half,
    h_family_half_point,
    shot_profile,
    solve_h,
)

PI = math.pi
SOL = solve_c_beta(1.8 * PI)


def _form(kind, beta, gamma):
    return lambda t: [v for _, v in boundary_form_samples(kind, beta, gamma, np.atleast_1d(t))]


# name: (call on one angle or an array of them, lower end, upper end, the
# interval the message names, whether the call takes an array).  A
# boundary form's kinds each have their own range.
ANGLE_TAKERS = {
    "g_func": (lambda t: g_func(t, 1.7 * PI), 0.0, 0.5 * PI, "[0, pi/2]", True),
    "critical_family": (lambda t: critical_family(t, 0.1), 0.0, 0.5 * PI, "[0, pi/2]", True),
    "f_func": (lambda t: f_func(t, SOL), 0.0, SOL.beta, "(0, beta)", True),
    "psi": (lambda t: psi(t, SOL), 0.0, 0.5 * SOL.beta, "(0, beta/2]", False),
    "dpsi": (lambda t: dpsi(t, SOL), 0.0, 0.5 * SOL.beta, "(0, beta/2]", False),
    "g_upper_bound": (lambda t: g_upper_bound(t, 0.7), 0.0, 0.5 * PI, "[0, pi/2]", True),
    "g_upper_bound_derivative": (
        lambda t: g_upper_bound_derivative(t, 0.7), 0.0, 0.5 * PI, "[0, pi/2]", True,
    ),
    "solve_h": (
        lambda t: solve_h(0.7, grid=np.atleast_1d(t)).h, 0.0, 0.5 * PI, "(0, pi/2]", True,
    ),
    "h_family_half": (
        lambda t: h_family_half(0.1, np.atleast_1d(t)).h, 0.0, 0.5 * PI, "[0, pi/2]", True,
    ),
    "h_family_half_point": (
        lambda t: h_family_half_point(t, 0.1), 0.0, 0.5 * PI, "(0, pi/2]", False,
    ),
    "shot_profile": (
        lambda t: np.stack(shot_profile(1.8 * PI, 0.2, np.atleast_1d(t))),
        0.0, 0.5 * (1.8 * PI), "(0, beta/2]", True,
    ),
    "theta1_two_sided": (
        lambda t: theta1_two_sided(t, 0.7 * PI), 0.0, 0.5 * PI, "[0, pi/2]", False,
    ),
    "boundary_form_samples/line_segment": (
        _form("line_segment", 1.7 * PI, 0.4 * PI), 0.0, 0.5 * PI, "[0, pi/2]", True,
    ),
    "boundary_form_samples/parabola": (
        _form("parabola", 1.8 * PI, 0.4 * PI),
        0.5 * PI, min(1.8 * PI - 0.5 * PI, 1.5 * PI - 0.4 * PI),
        "[pi/2, min(beta - pi/2, 3pi/2 - gamma)]", True,
    ),
    "boundary_form_samples/two_sided": (
        _form("two_sided", 1.7 * PI, 0.7 * PI), 0.0, 0.5 * PI, "[0, pi/2]", True,
    ),
    "boundary_form_samples/gamma3": (
        _form("gamma3", 1.2 * PI, 0.6 * PI),
        1.2 * PI - 0.5 * PI, 0.5 * (1.2 * PI + PI - 0.6 * PI) - 1e-9,
        "[beta - pi/2, (beta + pi - gamma)/2 - 1e-9]", True,
    ),
}


def _refused(call, bad, interval):
    with pytest.raises(ValueError, match=re.escape(f"theta={bad} outside {interval}")):
        call(bad)


@pytest.mark.parametrize("name", sorted(ANGLE_TAKERS))
def test_every_angle_taker_admits_its_range_by_one_rule(name):
    call, lo, hi, interval, _ = ANGLE_TAKERS[name]
    for end, out in ((lo, -1.0), (hi, 1.0)):
        closed = interval[0 if out < 0 else -1] in "[]"
        if not closed:
            _refused(call, end, interval)
        elif end == 0.0:
            call(0.0)
            _refused(call, -1e-300, interval)
            _refused(call, -5e-13, interval)
        else:
            # the slack is clamped onto the end
            assert np.array_equal(np.asarray(call(end + out * 5e-13)), np.asarray(call(end)))
            _refused(call, end + out * 1e-9, interval)
            _refused(call, end + out * 2e-12, interval)
    _refused(call, math.nan, interval)


@pytest.mark.parametrize("name", sorted(k for k, v in ANGLE_TAKERS.items() if v[4]))
def test_an_array_of_angles_names_its_first_angle_outside(name):
    call, lo, hi, interval, _ = ANGLE_TAKERS[name]
    bad = hi + 1e-9
    with pytest.raises(ValueError, match=re.escape(f"theta={bad} outside {interval}")):
        call(np.array([0.5 * (lo + hi), bad, lo - 1.0]))


def test_angles_are_returned_as_given():
    # evaluated at the end they are clamped onto, reported as passed in
    edge = 0.5 * PI + 5e-13
    pairs = boundary_form_samples("line_segment", 1.7 * PI, 0.4 * PI, [0.3, edge])
    assert [t for t, _ in pairs] == [0.3, edge]
    end = boundary_form_samples("line_segment", 1.7 * PI, 0.4 * PI, [0.5 * PI])
    assert pairs[1][1] == end[0][1]
    grid = [1e-4, 0.3, edge]
    prof = solve_h(0.7, grid=grid)
    assert prof.grid.tolist() == grid
    assert np.array_equal(prof.h, solve_h(0.7, grid=[1e-4, 0.3, 0.5 * PI]).h)
    assert h_family_half(0.1, grid).grid.tolist() == grid


def test_family_parameter_nan_is_refused():
    with pytest.raises(ValueError, match="lam=nan"):
        h_family_half(math.nan)
    with pytest.raises(ValueError, match="lam=nan"):
        h_family_half_point(0.3, math.nan)


@pytest.mark.parametrize("c", [0.0, -0.1, 0.3, math.nan])
def test_shot_profile_refuses_a_trial_constant_outside_its_range(c):
    with pytest.raises(ValueError, match=re.escape(f"c={c} outside (0, 1/4]")):
        shot_profile(1.8 * PI, c, [0.3])


def test_potential_refuses_openings_above_two_pi():
    assert potential_v(1.0, 2.0 * PI + 5e-13) == potential_v(1.0, 2.0 * PI)
    with pytest.raises(ValueError, match=re.escape("opening angle 7.0 above 2pi")):
        potential_v(1.0, 7.0)


# Public functions that take an opening without the door's range, and why.
OPENING_EXCEPTIONS = {
    "hardycore.admit_openings": "the door itself",
    "hardycore.admit_opening": "the door itself",
    "hardycore.is_subcritical": (
        "a comparison with the regime seam, on openings its callers admitted"
    ),
    "hardycore.potential_v": (
        "a float path, since shooting calls it on every right-hand-side evaluation; "
        "it refuses openings below pi and above 2pi + 1e-12 with its own comparisons"
    ),
    "certify.theta1_gamma3": (
        "the companion-angle formula, evaluated by boundary_form_samples "
        "on the opening and the angles it admitted"
    ),
}
# Public functions that take a polar angle or a grid without the door, and why.
ANGLE_EXCEPTIONS = {
    "hardycore.admit_angles": "the door itself",
    "hardycore.potential_v": OPENING_EXCEPTIONS["hardycore.potential_v"],
    "certify.theta1_gamma3": OPENING_EXCEPTIONS["certify.theta1_gamma3"],
    "rayleigh.estimate_constant": "its grid is a GridProblem, not polar angles",
}


def _public_functions(params):
    """module.name of every public function of the package with one of these parameters."""
    found = set()
    for info in pkgutil.iter_modules(hardyconst.__path__):
        mod = importlib.import_module(f"hardyconst.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__ and params & set(inspect.signature(obj).parameters):
                found.add(f"{info.name}.{name}")
    return found


def test_every_opening_taker_is_held_to_the_range():
    takers = _public_functions({"beta"})
    assert set(OPENING_EXCEPTIONS) <= takers
    missing = {t for t in takers - set(OPENING_EXCEPTIONS) if t.split(".")[1] not in CALLERS}
    assert not missing, f"add to test_openings.CALLERS or name the exception: {sorted(missing)}"


def test_every_angle_taker_is_held_to_the_rule():
    takers = _public_functions({"theta", "grid", "theta_grid"})
    assert set(ANGLE_EXCEPTIONS) <= takers
    covered = {name.split("/")[0] for name in ANGLE_TAKERS}
    missing = {t for t in takers - set(ANGLE_EXCEPTIONS) if t.split(".")[1] not in covered}
    assert not missing, f"add to ANGLE_TAKERS or name the exception: {sorted(missing)}"
