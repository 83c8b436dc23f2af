"""Every public function that takes an opening admits the same range.

hardycore.admit_openings is the one check; these tests hold each caller to
its lower end: [pi with 1e-12 of slack, (pi strict, or [beta_cr -
SEAM_SLACK with the same slack, and 2pi with 1e-12 of slack above.
"""

import json
import math
import re

import numpy as np
import pytest

from hardyconst import cli
from hardyconst.angles import gamma_star, gamma_star_star
from hardyconst.certify import (
    Dbeta,
    Ebg,
    Sector,
    SectorCapConvex,
    boundary_form_samples,
    certify_domain,
    check_dbeta,
    check_ebg,
    check_sector_cap,
    dbeta_samples,
)
from hardyconst.hardycore import (
    SEAM_SLACK,
    admit_opening,
    admit_openings,
    beta_critical,
    equation_residual,
    g_func,
    solve_c_beta,
)
from hardyconst.odeengine import shoot_c, shot_profile
from hardyconst.rayleigh import build_grid

PI = math.pi
TWO_D = np.full((2, 2), 1.5 * PI)


def _dbeta(beta):
    return dbeta_samples(Dbeta(beta, [(0.0, 1.0), (beta, 1.0)]))


# (caller, lower end, closed, what a 2-D array of openings raises).  g_func
# takes openings of any shape that broadcast against its angles, so it has
# no 2-D case; solve_c_beta's cache and Dbeta's float fields refuse an array
# before the check sees it.
CALLERS = {
    "solve_c_beta": (solve_c_beta, PI, True, (TypeError, "unhashable")),
    "g_func": (lambda b: g_func(0.3, b), PI, True, None),
    "shoot_c": (shoot_c, PI, True, (ValueError, "1-D array")),
    "shot_profile": (lambda b: shot_profile(b, 0.2, [0.3]), PI, True, (ValueError, "1-D array")),
    "equation_residual": (
        lambda b: equation_residual(b, 0.2), PI, True, (ValueError, "1-D array"),
    ),
    "gamma_star": (gamma_star, PI, True, (ValueError, "1-D array")),
    "certify_domain": (lambda b: certify_domain(Sector(b)), PI, True, (ValueError, "1-D array")),
    "boundary_form_samples": (
        lambda b: boundary_form_samples("line_segment", b, 0.5 * PI, [0.3]),
        PI, True, (ValueError, "1-D array"),
    ),
    "check_sector_cap": (
        lambda b: check_sector_cap(SectorCapConvex(b, 0.6 * PI, 0.6 * PI)),
        PI, False, (ValueError, "1-D array"),
    ),
    "check_ebg": (lambda b: check_ebg(Ebg(b, 0.5 * PI)), PI, False, (ValueError, "1-D array")),
    "dbeta_samples": (_dbeta, PI, False, (TypeError, "converted")),
    "build_grid": (lambda b: build_grid(Sector(b), 16), PI, False, (ValueError, "1-D array")),
    "gamma_star_star": (
        gamma_star_star, beta_critical() - SEAM_SLACK, True, (ValueError, "1-D array"),
    ),
}


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_every_caller_admits_the_same_range(name):
    call, lower, closed, two_d = CALLERS[name]
    call(2.0 * PI + 5e-13)
    if closed:
        call(lower - 5e-13)
    else:
        with pytest.raises(ValueError, match=re.escape(f"opening angle {lower}")):
            call(lower)
    for bad in (2.0 * PI + 1e-9, lower - 1e-9):
        with pytest.raises(ValueError, match=re.escape(f"opening angle {bad} outside")):
            call(bad)
    if two_d is not None:
        exc, pattern = two_d
        with pytest.raises(exc, match=pattern):
            call(TWO_D)


def test_openings_in_the_slack_are_clamped():
    assert solve_c_beta(2.0 * PI + 5e-13).beta == 2.0 * PI
    assert solve_c_beta(PI - 5e-13).beta == PI
    assert gamma_star(np.array([PI - 5e-13, 2.0 * PI + 5e-13])).beta.tolist() == [PI, 2.0 * PI]
    assert g_func(0.3, PI - 5e-13) == g_func(0.3, PI)
    assert g_func(0.3, 2.0 * PI + 5e-13) == g_func(0.3, 2.0 * PI)


@pytest.mark.parametrize("lower", ["[pi", "(pi", "[beta_cr"])
def test_one_opening_is_admitted_as_the_array_door_admits_it(lower):
    # a float takes admit_opening's own path; it must return the value, or
    # raise the message, that admit_openings gives, as np.float64 and 0-d
    # arrays (which go through admit_openings) do
    bcr = beta_critical() - SEAM_SLACK
    ends = [PI, bcr, 2.0 * PI]
    edges = [x + d for x in ends for d in (-2e-12, -1e-12, 0.0, 1e-12, 2e-12)]
    for beta in edges + [1.5 * PI, math.nan, math.inf, -math.inf, -0.0]:
        try:
            expected = float(admit_openings(np.array([beta]), lower)[0][0])
        except ValueError as err:
            expected = str(err)
        for kind in (float, np.float64, np.array):
            try:
                got = admit_opening(kind(beta), lower)
                assert type(got) is float
            except ValueError as err:
                got = str(err)
            assert got == expected, (kind, beta)
    with pytest.raises(ValueError, match="expected one opening angle"):
        admit_opening(np.array([2.0 * PI]), lower)


def test_shooting_gives_its_verdict_just_below_pi():
    res = shoot_c(PI - 5e-13)
    assert res.c_estimate == 0.25 and res.no_sign_change
    assert res.beta == PI


def test_reflex_domains_reject_the_half_plane():
    samples = [(0.5 * PI * k / 4, 1.0) for k in range(5)]
    with pytest.raises(ValueError, match=re.escape(f"opening angle {PI} outside (pi, 2pi]")):
        check_sector_cap(SectorCapConvex(PI, 0.6 * PI, 0.6 * PI, bounded=False))
    for gamma in (0.5 * PI, PI):
        with pytest.raises(ValueError, match=re.escape(f"opening angle {PI} outside")):
            check_ebg(Ebg(PI, gamma))
    with pytest.raises(ValueError, match=re.escape(f"opening angle {PI} outside")):
        check_dbeta(Dbeta(PI, [(t * 2.0, r) for t, r in samples]))
    with pytest.raises(ValueError, match=re.escape(f"opening angle {PI} outside")):
        build_grid(Sector(PI), 16)


def test_two_halfline_domain_rejects_a_nan_angle():
    for beta, gamma in ((1.5 * PI, math.nan), (math.nan, 1.5 * PI)):
        with pytest.raises(ValueError, match="opening angle nan"):
            check_ebg(Ebg(beta, gamma))


def test_validate_rejects_a_half_plane_sector(tmp_path, capsys):
    f = tmp_path / "sector.json"
    f.write_text(json.dumps({"type": "sector", "beta": 1.0}))
    assert cli.main(["validate", str(f), "--n", "16"]) == 2
    assert "outside (pi, 2pi]" in capsys.readouterr().err
