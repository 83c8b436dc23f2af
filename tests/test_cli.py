import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyconst import cli, odeengine, rayleigh
from hardyconst.certify import OneReflexPolygon
from hardyconst.cli import main, parse_angle
from hardyconst.hardycore import solve_c_beta

PI = math.pi

# the BLAS and OpenMP thread counts perfbench sets to 1 in its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run(args):
    return main(args)


def test_parse_angle_forms():
    assert parse_angle("2pi") == pytest.approx(2.0 * PI)
    assert parse_angle("1.5pi") == pytest.approx(1.5 * PI)
    assert parse_angle("pi") == pytest.approx(PI)
    assert parse_angle("3.14") == pytest.approx(3.14)
    with pytest.raises(ValueError):
        parse_angle("two pies")


def test_cbeta_single(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["cbeta", "--beta", "2pi", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert row["c"] == pytest.approx(0.2054, abs=1e-3)
    assert row["beta_pi"] == pytest.approx(2.0)
    assert row["shoot_c"] is None
    assert "0.2053582" in capsys.readouterr().out


def test_cbeta_with_shooting_check(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cbeta", "--beta", "1.8pi", "--check", "-o", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert abs(row["shoot_c"] - row["c"]) < 1e-6


def test_cbeta_sweep_check_matches_single_openings(tmp_path):
    # the sweep shoots all its rows in one batch
    out = tmp_path / "sweep.json"
    assert run(["cbeta", "--sweep", "1.6pi:2pi:5", "--check", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 5
    for beta, row in zip(cli._parse_sweep("1.6pi:2pi:5"), rows):
        single = tmp_path / "single.json"
        assert run(["cbeta", "--beta", repr(beta), "--check", "-o", str(single)]) == 0
        assert abs(row["shoot_c"] - json.loads(single.read_text())["rows"][0]["shoot_c"]) <= 1e-11


def test_cbeta_full_sweep_check_agrees_with_the_closed_form(tmp_path):
    # the documented sweep: shooting prints the closed form's own 12 digits
    # in every one of its 101 rows
    out = tmp_path / "sweep.json"
    assert run(["cbeta", "--sweep", "pi:2pi:101", "--check", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 101
    assert [r["shoot_c"] for r in rows] == [r["c"] for r in rows]


def test_cbeta_sweep_check_exit_codes(tmp_path, capsys):
    # the whole range passes: beta = pi and the subcritical rows get
    # shooting's verdict c = 1/4; an opening below pi is an input error
    out = tmp_path / "c.json"
    assert run(["cbeta", "--sweep", "pi:2pi:5", "--check", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["shoot_c"] for r in rows[:3]] == [0.25, 0.25, 0.25]
    assert all(abs(r["shoot_c"] - r["c"]) <= 1e-11 for r in rows)
    assert run(["cbeta", "--sweep", "0.9pi:2pi:5", "--check"]) == 2
    assert "outside [pi, 2pi]" in capsys.readouterr().err


def test_cbeta_sweep_monotone(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["cbeta", "--sweep", "1.01pi:2pi:25", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    cs = [r["c"] for r in rows]
    assert len(cs) == 25
    assert all(cs[i] >= cs[i + 1] - 1e-12 for i in range(len(cs) - 1))
    assert cs[0] == 0.25


def test_cbeta_subcritical_quarter(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cbeta", "--beta", "1.2pi", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["rows"][0]["c"] == 0.25


def test_output_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gamma-star", "--sweep", "pi:2pi:5", "-o", str(a)])
    run(["gamma-star", "--sweep", "pi:2pi:5", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_count_must_be_an_integer(capsys):
    assert run(["cbeta", "--sweep", "pi:2pi:3.5"]) == 2
    err = capsys.readouterr().err
    assert "sweep 'pi:2pi:3.5'" in err and "integer >= 2" in err


@pytest.mark.parametrize(
    "sweep, message",
    [
        ("pi:2pi", "sweep 'pi:2pi' must look like start:stop:count"),
        ("pi:2pi:3:4", "sweep 'pi:2pi:3:4' must look like start:stop:count"),
        ("2pi:pi:5", "sweep '2pi:pi:5' needs an increasing range and count >= 2"),
        ("pi:2pi:1", "sweep 'pi:2pi:1' needs an increasing range and count >= 2"),
    ],
)
def test_malformed_sweep_is_bad_input(capsys, sweep, message):
    assert run(["cbeta", "--sweep", sweep]) == 2
    assert message in capsys.readouterr().err


def test_sweep_count_is_bounded(capsys):
    assert run(["cbeta", "--sweep", "1.6pi:2pi:100001"]) == 2
    assert run(["gamma-star", "--sweep", "1.6pi:2pi:1000000000000"]) == 2
    assert "more than 100000 rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cbeta", "gamma-star"])
def test_empty_beta_is_refused_as_bad_input(capsys, command):
    # an empty --beta is given, so it is parsed, not taken for a missing one
    assert run([command, "--beta", ""]) == 2
    assert "cannot parse angle ''" in capsys.readouterr().err


def test_json_round_trip(tmp_path):
    out = tmp_path / "c.json"
    run(["cbeta", "--sweep", "1.6pi:2pi:3", "-o", str(out)])
    doc = json.loads(out.read_text())
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_csv_output(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["cbeta", "--sweep", "1.6pi:2pi:3", "--format", "csv", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["beta_rad", "beta_pi", "c"]
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["certify", "validate"])
def test_documents_refuse_csv(tmp_path, capsys, command):
    # certify and validate write one JSON document and have no table to write as CSV
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "sector", "beta": 1.5}))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run([command, str(f), "--format", "csv", "-o", str(out)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_cbeta_full_range_csv_sweep(tmp_path):
    # the documented sweep starts at the half-plane, beta = pi
    out = tmp_path / "c.csv"
    assert run(["cbeta", "--sweep", "pi:2pi:101", "-o", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 102
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["beta_pi"]) == 1.0
    assert float(first["c"]) == 0.25


def test_betacr_report(tmp_path):
    out = tmp_path / "bcr.json"
    assert run(["betacr", "-o", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["beta_cr_pi"] == pytest.approx(1.546, abs=1e-3)
    assert abs(row["residual_at_quarter"]) < 1e-10
    assert row["tan_rhs"] == pytest.approx(0.45694658, abs=1e-8)


def test_gamma_star_table(tmp_path):
    out = tmp_path / "gs.json"
    assert run(["gamma-star", "--beta", "2pi", "-o", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["gamma_star_pi"] == pytest.approx(0.673, abs=0.003)
    assert row["gamma_star_star_pi"] == pytest.approx(0.672, abs=0.003)
    assert row["gamma_star_star_pi"] <= row["gamma_star_pi"]


def test_gamma_star_sweep_pinned_rows(tmp_path):
    # three rows of the documented sweep, at the documents' 12 digits
    out = tmp_path / "gs.json"
    assert run(["gamma-star", "--sweep", "pi:2pi:41", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    pinned = {
        0: (0.867295124701, None, 0.862827150501),
        20: (0.718409035985, None, 1.27777748584),
        40: (0.673176886528, 0.672221645024, 1.427106452),
    }
    for k, (gs, gss, argmax) in pinned.items():
        row = rows[k]
        assert (row["gamma_star_pi"], row["gamma_star_star_pi"], row["argmax_theta"]) == (gs, gss, argmax)


def test_gamma_star_sweep_matches_single_openings(tmp_path):
    # one batched solve of the sweep writes the rows of one run per opening
    out = tmp_path / "sweep.json"
    assert run(["gamma-star", "--sweep", "1.5pi:1.6pi:6", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["gamma_star_star_pi"] is None for r in rows] == [True] * 3 + [False] * 3
    for beta, row in zip(cli._parse_sweep("1.5pi:1.6pi:6"), rows):
        single = tmp_path / "single.json"
        assert run(["gamma-star", "--beta", repr(beta), "-o", str(single)]) == 0
        assert json.loads(single.read_text())["rows"] == [row]


def test_gamma_star_subcritical_has_no_polynomial_column(tmp_path):
    out = tmp_path / "gs.json"
    assert run(["gamma-star", "--beta", "1.2pi", "-o", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["gamma_star_star_pi"] is None


def test_certify_polygon_file(tmp_path):
    doc = {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]}
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["verdict"] == "certified"
    assert rep["constant"] == 0.25


@pytest.mark.parametrize("shift, scale", [(1e5, 1.0), (0.0, 1e-9)], ids=["shifted", "scaled"])
def test_certify_moved_polygon_file(tmp_path, lshape_vertices, shift, scale):
    vertices = [[shift + scale * x, shift + scale * y] for x, y in lshape_vertices]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["verdict"] == "certified"
    assert rep["constant"] == 0.25


def test_certify_ebg_file(tmp_path):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "ebg", "beta": 1.5, "gamma": 1.5}))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["verdict"] == "certified"
    assert rep["constant"] == pytest.approx(0.2054, abs=1e-3)


def test_openings_within_the_slack_of_pi_pass_every_command(tmp_path):
    # 3.14159265358979 lies 3.2e-15 below pi, inside the 1e-12 slack
    out = tmp_path / "c.json"
    assert run(["cbeta", "--beta", "3.14159265358979", "--check", "-o", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["c"] == 0.25 and row["shoot_c"] == 0.25
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "sector", "beta": 0.99999999999999}))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["verdict"] == "certified" and rep["constant"] == 0.25


def test_certify_dbeta_oscillating_inconclusive(tmp_path):
    samples = [[t / 100.0 * 2.0, 1.5 + math.sin(4.0 * math.pi * t / 100.0 * 2.0)] for t in range(101)]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "dbeta", "beta": 2.0, "r_samples": samples}))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["verdict"] == "inconclusive"
    assert report["failed_condition"] == report["checks"][0]["name"]


def test_polygon_of_5001_vertices(tmp_path, notched_disk_vertices):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": notched_disk_vertices}))
    assert run(["certify", str(f), "-o", str(tmp_path / "report.json")]) == 0
    assert run(["validate", str(f), "--n", "64", "-o", str(tmp_path / "est.json")]) == 0
    swapped = list(notched_disk_vertices)
    swapped[2000], swapped[2001] = swapped[2001], swapped[2000]
    f.write_text(json.dumps({"type": "polygon", "vertices": swapped}))
    assert run(["certify", str(f)]) == 2
    assert run(["validate", str(f), "--n", "64"]) == 2


def test_validate_strip_like_polygon(tmp_path):
    doc = {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "48", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"]["lambda"] > 0.25
    assert doc["estimate"]["iterations"] >= 1
    assert 0.0 <= doc["estimate"]["residual_bound"] < 1e-3


@pytest.mark.parametrize("x_notch, kind", [(0.5, "lattice"), (0.437, "lattice")])
def test_validate_names_its_grid(tmp_path, capsys, x_notch, kind):
    # every polygon takes the lattice, wherever its vertices sit, and the
    # sector pencil of its reflex corner, which holds lambda
    vertices = [[0, 0], [1, 0], [1, 0.5], [x_notch, 0.5], [x_notch, 1], [0, 1]]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "48", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["grid"] == kind
    assert doc["patch"] == {"vertex": [x_notch, 0.5], "beta": 1.5} and doc["attained_by"] == "patch"
    printed = capsys.readouterr().out
    assert f"{kind} grid and a 1.5pi sector patch at ({x_notch}, 0.5), lambda on the patch" in printed


def test_validate_reports_dropped_unknowns(tmp_path, capsys):
    # the dumbbell's corridor is narrower than h at n = 64: the lattice
    # keeps the left box and drops the right one, which ties with it.  The
    # count is printed, after the 1,674 lattice unknowns and the 63 of the
    # widest corner's pencil; the byte-stable document does not carry it
    vertices = [[0, 0], [0.45, 0], [0.45, 0.498], [0.55, 0.499], [0.55, 0], [1, 0], [1, 1],
                [0.55, 1], [0.55, 0.503], [0.45, 0.502], [0.45, 1], [0, 1]]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "64", "-o", str(out)]) == 0
    assert "1737 nodes, 1674 dropped)" in capsys.readouterr().out
    assert "dropped" not in out.read_text()
    f.write_text(json.dumps({"type": "sector", "beta": 2.0}))
    assert run(["validate", str(f), "--n", "64"]) == 0
    assert "0 dropped)" in capsys.readouterr().out


def test_validate_refuses_an_estimate_below_ancona(tmp_path, capsys, monkeypatch):
    # every validate domain is simply connected, so its constant is at least
    # Ancona's 1/16: a grid estimate below it is a numerical failure
    low = rayleigh.RayleighEstimate(lam=0.05, residual_bound=1e-9, iterations=20, h=0.01)
    monkeypatch.setattr(rayleigh, "estimate_constant", lambda grid, return_vector: (low, None))
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "sector", "beta": 2.0}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "64", "-o", str(out)]) == 3
    assert "lambda_min = 0.05 at n=64 lies below Ancona's 1/16" in capsys.readouterr().err
    assert not out.exists()


def test_validate_closes_the_links_across_a_notch_one_ulp_wide(tmp_path):
    # the notch of test_lattice_links_are_decided_once, cut in from the top
    # between the lattice columns xs[12] and xs[13] at n = 40, whose nodes
    # are unknowns; every link across it meets its walls and closes (when
    # midpoint tests decided the links, lambda read 0.0284)
    xs = np.linspace(0.0, 1.0, 40)
    h = xs[1] - xs[0]
    m1, m2 = 0.5 * (xs[12] + (xs[12] + h)), 0.5 * (xs[13] + (xs[13] - h))
    vertices = [[0, 0], [1, 0], [1, 0.9], [0.95, 1], [m1, 1], [m1, 0.5], [m2, 0.5], [m2, 1], [0, 1]]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "40", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["grid"] == "lattice" and doc["estimate"]["lambda"] > 0.25
    grid = rayleigh.build_grid(OneReflexPolygon(vertices), 40)
    number = np.full(grid.mask.shape, -1)
    number[grid.mask] = np.arange(np.count_nonzero(grid.mask))
    beside = grid.ys > 0.5
    left, right = number[12, beside], number[13, beside]
    both = (left >= 0) & (right >= 0)
    assert np.count_nonzero(both) >= 15
    assert np.all(grid.matrix[left[both], right[both]] == 0.0)


def test_validate_refuses_non_simple_polygon(tmp_path, capsys):
    # the same check as certify's: crossing edges are bad input
    vertices = [[0, 0], [2, 0], [2, 1], [0, 1.5], [2, 2], [0, 2.2]]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    assert run(["validate", str(f), "--n", "64"]) == 2
    assert "not simple" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "ebg", "beta": 0.2, "gamma": 0.3},  # the halflines converge
        {"type": "ebg", "beta": 1.9, "gamma": 1.9},  # beta + gamma > 3pi
        {"type": "ebg", "beta": -0.5, "gamma": 1.5},
    ],
    ids=["converging", "above-3pi", "negative-gamma"],
)
def test_validate_refuses_ebg_that_certify_refuses(tmp_path, capsys, doc):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    assert run(["certify", str(f)]) == 2
    refusal = capsys.readouterr().err
    assert refusal.startswith("error: ")
    assert run(["validate", str(f), "--n", "64"]) == 2
    assert capsys.readouterr().err == refusal


@pytest.mark.parametrize("extra", [[1.9, 3.0], [-0.4, 3.0]], ids=["beyond-beta", "below-0"])
def test_dbeta_samples_outside_the_opening_are_refused(tmp_path, capsys, extra):
    samples = [[0.25 * k, 1.0] for k in range(7)] + [extra]  # cover [0, 1.5pi], and one more
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "dbeta", "beta": 1.5, "r_samples": samples}))
    for argv in (["certify", str(f)], ["validate", str(f), "--n", "96"]):
        assert run(argv) == 2
        assert "sample angles must lie in [0, beta]" in capsys.readouterr().err


def test_bounded_sector_cap_needs_positive_contact_angles(tmp_path, capsys):
    f = tmp_path / "dom.json"
    doc = {"type": "sector_cap", "beta": 1.5, "gamma_plus": -1, "gamma_minus": -3}
    f.write_text(json.dumps(doc))
    assert run(["certify", str(f)]) == 2
    assert "must be positive" in capsys.readouterr().err
    f.write_text(json.dumps(doc | {"bounded": False}))
    assert run(["certify", str(f)]) == 0


def test_exit_code_domain_error(capsys):
    assert run(["cbeta", "--beta", "0.5pi"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_numerical_failure(tmp_path, capsys, monkeypatch):
    # an infinite potential beyond theta = 1 makes the shot's step size collapse
    monkeypatch.setattr(odeengine, "potential_v", lambda theta, beta: math.inf if theta >= 1.0 else 1.0)
    f = tmp_path / "x.json"
    assert run(["cbeta", "--beta", "1.8pi", "--check", "-o", str(f)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_bad_file(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert run(["certify", str(f)]) == 2
    f.write_text(json.dumps({"type": "hexagon"}))
    assert run(["certify", str(f)]) == 2


BAD_DOMAIN_FILES = {
    "ebg-nan-gamma": '{"type": "ebg", "beta": 1.5, "gamma": NaN}',
    "dbeta-nan-radius": '{"type": "dbeta", "beta": 1.5, "r_samples": [%s]}'
    % ", ".join(f"[{0.075 * k}, {'NaN' if k == 10 else 1}]" for k in range(21)),
    "sector_cap-nan-angle":
        '{"type": "sector_cap", "beta": 1.5, "gamma_plus": NaN, "gamma_minus": 0.5}',
    "string-bounded": '{"type": "sector_cap", "beta": 1.3, "gamma_plus": 0.65, '
    '"gamma_minus": 0.65, "bounded": "false"}',
    "infinity": '{"type": "sector", "beta": Infinity}',
    "minus-infinity": '{"type": "sector", "beta": -Infinity}',
    "overflowing-literal": '{"type": "sector", "beta": 1e999}',
    "string-angle": '{"type": "sector", "beta": "2"}',
    "top-level-list": '[{"type": "sector", "beta": 2}]',
    "flat-vertices": '{"type": "polygon", "vertices": [0, 0, 1, 0, 1, 1, 0, 1]}',
    "vertex-triple": '{"type": "polygon", "vertices": [[0, 0], [1, 0, 2], [1, 1], [0, 1]]}',
    "flat-r_samples": '{"type": "dbeta", "beta": 1.5, "r_samples": [0, 1, 1.5, 1]}',
    "dbeta-no-samples": '{"type": "dbeta", "beta": 1.5, "r_samples": []}',
    "dbeta-uncovered": '{"type": "dbeta", "beta": 1.5, "r_samples": [[0, 1], [0.5, 1]]}',
    "dbeta-convex-opening":
        '{"type": "dbeta", "beta": 0.9, "r_samples": [[0, 1], [0.3, 1], [0.6, 1], [0.9, 1]]}',
    "dbeta-repeated-angle": '{"type": "dbeta", "beta": 2, "r_samples": '
    '[[0, 1], [0.5, 1], [0.5, 1], [1, 1], [1.5, 1], [2, 1]]}',
    "dbeta-radial-jump": '{"type": "dbeta", "beta": 2, "r_samples": '
    '[[0, 1], [0.5, 1], [0.5, 0.8], [1, 1], [1.5, 1], [2, 1]]}',
}


@pytest.mark.parametrize("case", BAD_DOMAIN_FILES)
def test_exit_code_malformed_domain_file(tmp_path, capsys, case):
    # non-finite or overflowing numbers and misshapen lists are input errors,
    # reported without a traceback, never computed with
    f = tmp_path / "bad.json"
    f.write_text(BAD_DOMAIN_FILES[case])
    for command in ("certify", "validate"):
        assert run([command, str(f)]) == 2  # an uncaught exception would raise here
        assert capsys.readouterr().err.startswith("error: ")


BAD_RADII = [
    (kind, radius) for kind in ("sector", "ebg") for radius in ("nan", "inf", "0", "-1")
] + [("ebg", "0.5")]


@pytest.mark.parametrize("kind, radius", BAD_RADII)
def test_validate_rejects_bad_radius(tmp_path, capsys, kind, radius):
    # a non-finite radius used to reach the solver (exit 3), a negative one a
    # mirrored arc (exit 0), and an ebg arc that misses the unit segment a
    # bare math domain error
    doc = {"type": kind, "beta": 1.5} | ({"gamma": 1.5} if kind == "ebg" else {})
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    assert run(["validate", str(f), "--n", "32", f"--radius={radius}"]) == 2
    assert "truncation radius" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_validate_refuses_a_radius_past_the_largest_without_a_warning(tmp_path, capsys):
    # at 1e200 the arc's r^2 overflowed: numpy warned twice and the command
    # exited 2 with "only 0 interior nodes"; the largest radius admitted
    # still builds, and every warning here is an error
    f = tmp_path / "dom.json"
    f.write_text(EBG_FILE)
    assert run(["validate", str(f), "--n", "16", "--radius=1e200"]) == 2
    err = capsys.readouterr().err
    assert "truncation radius 1e+200" in err and "at most 1e+150" in err
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "16", "--radius=1e150", "-o", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["radius"] == 1e150 and got["grid"] == "lattice"


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]},
        {"type": "dbeta", "beta": 1.5, "r_samples": [[0.0, 1.0], [0.75, 1.0], [1.5, 1.0]]},
        {"type": "sector", "beta": 1.5},
    ],
    ids=["polygon", "dbeta", "sector"],
)
@pytest.mark.parametrize("radius", ["5", "1e-3"])
def test_validate_rejects_radius_for_bounded_domain(tmp_path, capsys, doc, radius):
    # a bounded domain has nothing to truncate, nor has the infinite sector's
    # pencil; the radius used to be dropped without a word, and every radius
    # gave the same lambda
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    assert run(["validate", str(f), "--n", "32", f"--radius={radius}"]) == 2
    assert "truncation radius does not apply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, args, radius",
    [
        ({"type": "sector", "beta": 1.5}, [], None),
        ({"type": "ebg", "beta": 1.5, "gamma": 1.5}, [], 8.0),
        ({"type": "ebg", "beta": 1.5, "gamma": 1.5}, ["--radius=3"], 3.0),
        ({"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, [], None),
    ],
    ids=["sector-default", "ebg-default", "ebg-given", "polygon"],
)
def test_validate_records_its_radius(tmp_path, doc, args, radius):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "32", "-o", str(out)] + args) == 0
    assert json.loads(out.read_text())["radius"] == radius


def polar_samples(beta, amplitude, n=721):
    """Vee-shaped profile r = 1 + amplitude (theta - beta/2)^2 in pi-unit angles."""
    thetas = [beta * k / (n - 1) for k in range(n)]
    return [[t / PI, 1.0 + amplitude * (t - 0.5 * beta) ** 2] for t in thetas]


@pytest.mark.parametrize(
    "doc, estimate",
    [
        (
            {"type": "dbeta", "beta": 2.0, "r_samples": polar_samples(2.0 * PI, 0.1)},
            {"h": 0.0316036227482, "iterations": 14, "lambda": 0.234460404036,
             "residual_bound": 2.73500927239e-09},
        ),
        (
            {"type": "ebg", "beta": 1.5, "gamma": 1.5},
            {"h": 0.125980972589, "iterations": 18, "lambda": 0.348836929341,
             "residual_bound": 4.72605188074e-08},
        ),
        (
            {"type": "ebg", "beta": 1.3, "gamma": 0.8},
            {"h": 0.115278984376, "iterations": 18, "lambda": 0.488531795242,
             "residual_bound": 4.56092667958e-07},
        ),
    ],
    ids=["dbeta", "ebg", "ebg-asymmetric"],
)
def test_validate_lattice_lambda_is_pinned(tmp_path, doc, estimate):
    # the two lattice domains of perfbench's validate-curved workload at its
    # n = 128, and an asymmetric two-halfline domain: a faster lattice must
    # write the same estimate block, solve count and residual bound included
    got = validate_in_child(tmp_path, doc, 128)
    assert got["grid"] == "lattice"
    assert got["estimate"] == estimate


@pytest.mark.parametrize(
    "vertices, n, estimate",
    [
        (
            [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]],
            129,
            {"h": 0.0078125, "iterations": 26, "lambda": 0.25717139858,
             "residual_bound": 3.41225367922e-08},
        ),
        (
            [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [0, 2]],
            129,
            {"h": 0.0234375, "iterations": 26, "lambda": 0.25717139858,
             "residual_bound": 1.28425461396e-07},
        ),
        (
            [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]],
            256,
            {"h": 0.00392156862745, "iterations": 26, "lambda": 0.254640564856,
             "residual_bound": 4.3200132738e-07},
        ),
    ],
    ids=["L-shape", "3x2-with-2x1-notch", "L-shape-n256"],
)
def test_validate_polygon_lambda_is_pinned(tmp_path, vertices, n, estimate):
    # polygons on the lattice with their reflex corner's sector pencil
    # stacked after it, the L-shape also at validate-lattice's n = 256: a
    # faster build of either part or of their solve must write the same
    # estimate block, solve count and residual bound included.  Both
    # notches are 1.5pi corners, so both read the pencil's lambda
    got = validate_in_child(tmp_path, {"type": "polygon", "vertices": vertices}, n)
    assert got["grid"] == "lattice" and got["attained_by"] == "patch"
    assert got["patch"]["beta"] == 1.5
    assert got["estimate"] == estimate


def test_validate_reads_the_same_wherever_the_lshape_sits(tmp_path):
    # the L-shape at n = 256 shifted by amounts exact in binary and rotated
    # about the origin: its 1.5pi corner's pencil holds lambda, whose 12
    # digits do not move.  The graded grid this replaced read 0.276940 at
    # the 1e6 shift, and the lattice alone 0.33 to 0.43 rotated
    base = np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]], dtype=float)
    moved = [base] + [base + shift for shift in (1.0, 10.0, 1e3, 1e6)]
    for angle in (1e-12, 0.1, 0.3, 0.25 * PI):
        c, s = math.cos(angle), math.sin(angle)
        moved.append(base @ np.array([[c, s], [-s, c]]))
    argvs = []
    for k, vertices in enumerate(moved):
        f = tmp_path / f"dom{k}.json"
        f.write_text(json.dumps({"type": "polygon", "vertices": vertices.tolist()}))
        argvs.append(["validate", str(f), "--n", "256", "-o", str(tmp_path / f"est{k}.json")])
    run_in_child(argvs)
    docs = [json.loads((tmp_path / f"est{k}.json").read_text()) for k in range(len(moved))]
    lams = [doc["estimate"]["lambda"] for doc in docs]
    assert 0.23 <= lams[0] <= 0.27
    assert lams == [lams[0]] * len(moved), lams
    assert all(doc["patch"]["beta"] == 1.5 and doc["attained_by"] == "patch" for doc in docs)


def validate_in_child(tmp_path, doc, n):
    """The document `validate --n n` writes for doc, run as perfbench runs it."""
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    return json.loads(document_in_child(tmp_path, ["validate", str(f), "--n", str(n)]))


def document_in_child(tmp_path, argv):
    """The bytes of the document the command argv writes, run in a child with one BLAS thread."""
    out = tmp_path / "out.json"
    run_in_child([[*argv, "-o", str(out)]])
    return out.read_bytes()


def run_in_child(argvs):
    """Run each command of argvs through main, in turn, in one child with one BLAS thread.

    The BLAS thread count moves the printed residual bound (on the n = 256
    L-shape 4.3200132738e-07 with one OpenBLAS thread, 4.32001326998e-07
    with two) and the last bits of lambda, so validate runs in a child
    process with one BLAS thread.
    """
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import json, sys; from hardyconst.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n")
    child = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr


LSHAPE_FILE = '{"type": "polygon", "vertices": [[0,0],[1,0],[1,0.5],[0.5,0.5],[0.5,1],[0,1]]}'
EBG_FILE = '{"type": "ebg", "beta": 1.5, "gamma": 1.5}'
SECTOR_FILE = '{"type": "sector", "beta": 2}'
# the slit disk of perfbench's validate-curved: r = 1 + 0.1 (theta - pi)^2 at 721 angles
DBETA_FILE = json.dumps({"type": "dbeta", "beta": 2.0, "r_samples": [
    [t / PI, 1.0 + 0.1 * (t - PI) ** 2] for t in (2.0 * PI * k / 720 for k in range(721))]})


@pytest.mark.parametrize(
    "argv, domain, stream, digest",
    [
        (["cbeta", "--sweep", "pi:2pi:101", "--check"], None, "document",
         "0cdda617529089a510b9992fa167af5566bf5e3b2018aaaa3bab8df57dc9f60d"),
        (["cbeta", "--sweep", "pi:2pi:101", "--check", "--format", "csv"], None, "document",
         "7f5cd4992871af287a60f2577e6951c021159fa7492413051464de9582d59d13"),
        (["gamma-star", "--sweep", "pi:2pi:41"], None, "document",
         "72c0e8af3a32b035c562bafe6c8320194934ca77fc01500646c0f03e7a646c19"),
        (["certify"], LSHAPE_FILE, "document",
         "6c4e2e649ad69ab08f693cdd149ac78e4e7b57c13ebead0cf059b495f22f13e0"),
        (["validate", "--n", "64"], EBG_FILE, "document",
         "a1666fe1590824e7dc733d1f54af96162a76f66c4cf9972a8de6273d7e57fc19"),
        (["gamma-star", "--sweep", "pi:2pi:41"], None, "stdout",
         "16370150483d0e2bde0aba71058283545859130f402ea34120ac80fbfe4a6895"),
        (["cbeta", "--sweep", "pi:2pi:101", "--check"], None, "stdout",
         "65ee0f40b740282c721c448903840e047e7159bfed290241c5b5233ff42d1740"),
        (["validate", "--n", "64"], DBETA_FILE, "document",
         "67cd6496309db2ba86233e56411e980694743d2b23164cf92e120c0540dd62c7"),
        # perfbench validate-curved's own Ebg operation, whose nodal distance
        # stops per point
        (["validate", "--n", "128"], EBG_FILE, "document",
         "943f826abf3fc0d01750f731590324d1f129fbddf102ed37dbb73c4fa1ebadef"),
        # perfbench validate-lattice's two operations: the 2pi sector's
        # pencil, and the L-shape, whose lambda sits in its 1.5pi patch
        (["validate", "--n", "256"], SECTOR_FILE, "document",
         "00b5298e64dc56e2ea88b726ef879a89d2e8d137caef114a8472b0750c9c8c0d"),
        (["validate", "--n", "256"], LSHAPE_FILE, "document",
         "7b4f4d0bd7bc42ce0801d71a545b7411c05dfaddd814a5e88c8734c584d1206a"),
    ],
    ids=["cbeta-check-json", "cbeta-check-csv", "gamma-star-41", "certify-lshape", "validate-ebg-64",
         "gamma-star-41-stdout", "cbeta-check-stdout", "validate-dbeta-721-64", "validate-ebg-128",
         "validate-sector-2pi-256", "validate-lshape-256"],
)
def test_documents_are_byte_pinned(tmp_path, capsys, argv, domain, stream, digest):
    # the whole document, as json.dumps(indent=2, sort_keys=True) and the
    # csv module wrote it (numpy 2.4, scipy 1.17, x86-64), or the table the
    # command prints: the writers and every value they carry must
    # reproduce each byte
    if domain is not None:
        f = tmp_path / "domain.json"
        f.write_text(domain)
        argv = argv[:1] + [str(f)] + argv[1:]
    if argv[0] == "validate":
        written = document_in_child(tmp_path, argv)
    elif stream == "stdout":
        capsys.readouterr()
        assert run(argv) == 0
        written = capsys.readouterr().out.encode()
    else:
        out = tmp_path / "out"
        assert run(argv + ["-o", str(out)]) == 0
        written = out.read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest


def _round_tree(obj):
    """Every float of obj rounded to 12 significant digits, tuples made lists."""
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return float(f"{obj:.12g}") if isinstance(obj, float) else obj


@pytest.mark.parametrize(
    "obj",
    [
        {"a": None, "b": np.float64(1.0) / 3.0, "c": [], "d": {}, "e": [[0.1, 0.2], [1.0, -0.0]]},
        {"rows": [{"x": np.float64(2.0) / 3.0, "y": None, "z": "s"}, {}], "params": {"n": 3, "ok": True}},
        [np.float64(1e22), math.nan, math.inf, -math.inf, 1e-300, 10**20, "\u00e9\n\""],
        [[], {}, [[]], [{}], (1.5, (2.5,)), [None]],
        {"k": {"nested": {"deep": [np.float64(0.1234567890123456)]}}},
        [],
        {},
        np.float64(0.1234567890123456),
        None,
    ],
)
def test_writer_matches_json_dumps(obj):
    # the C-encoder writer reproduces json.dumps(indent=2, sort_keys=True)
    # of the 12-digit rounded document, numpy float64 included
    assert cli._json_text(obj) == json.dumps(_round_tree(obj), indent=2, sort_keys=True)


# strings made of the characters a writer that splits json's text could trip on
_TEXT = st.text(alphabet=st.sampled_from(list('ab{}[],: \n"\\\u00e9')), max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(), _TEXT)
_FLAT = st.one_of(st.lists(_SCALARS, max_size=4), st.dictionaries(_TEXT, _SCALARS, max_size=4))
_TREES = st.recursive(
    st.one_of(_SCALARS, _FLAT, st.lists(st.lists(_SCALARS, max_size=3), max_size=5),
              st.lists(st.dictionaries(_TEXT, _SCALARS, max_size=3), max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40,
)


@given(tree=_TREES, block=st.sampled_from([1, 2, cli._BLOCK]))
def test_writer_matches_json_dumps_on_any_tree(tree, block):
    # lists of flat lists and of flat dicts go through the block writer,
    # whose item boundaries are re-indented by string replacement; NaN,
    # infinities, empty containers and strings holding brackets, commas and
    # newlines must come out as json.dumps writes them, block by block
    with mock.patch.object(cli, "_BLOCK", block):
        assert cli._json_text(tree) == json.dumps(_round_tree(tree), indent=2, sort_keys=True)


@pytest.mark.parametrize("n", ["49", "65"])
def test_validate_sparse_slit_disk_stays_above_the_constant(tmp_path, n):
    # a three-sample polar graph passes validate's input checks; its
    # estimate is an upper one, like that of a densely sampled graph
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "dbeta", "beta": 2.0,
                             "r_samples": [[0, 1], [1, 1], [2, 1]]}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", n, "-o", str(out)]) == 0
    lam = json.loads(out.read_text())["estimate"]["lambda"]
    assert lam >= solve_c_beta(2.0 * PI).c


def test_validate_resolution_is_bounded(tmp_path, capsys, monkeypatch):
    # checked before any grid is built: n = 100000 would ask for a 9.3 GiB mask
    def reached(*args, **kwargs):
        raise ValueError("build_grid reached")

    monkeypatch.setattr(cli.rayleigh, "build_grid", reached)
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "sector", "beta": 2.0}))
    for n in ("513", "100000", "1", "0", "-5"):
        assert run(["validate", str(f), f"--n={n}"]) == 2
        assert "outside [2, 512]" in capsys.readouterr().err
    assert run(["validate", str(f), "--n=512"]) == 2
    assert "build_grid reached" in capsys.readouterr().err


@pytest.mark.parametrize("failure", ["eigsh", "splu"])
def test_validate_exit_code_solver_failure(tmp_path, capsys, break_solver, failure):
    # the x = 0.437 notch falls back to the lattice, whose energy splu factors,
    # as it does the sector's pencil
    vertices = [[0, 0], [1, 0], [1, 0.5], [0.437, 0.5], [0.437, 1], [0, 1]]
    f = tmp_path / "dom.json"
    break_solver(failure)
    for doc in ({"type": "polygon", "vertices": vertices}, {"type": "sector", "beta": 2.0}):
        f.write_text(json.dumps(doc))
        assert run(["validate", str(f), "--n", "48"]) == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cbeta", "betacr", "gamma-star", "certify", "validate"])
def test_a_subcommand_built_alone_reads_as_in_the_whole_parser(capsys, command):
    # main builds only the subcommand its arguments name; its usage, its
    # help and its errors must read as those of the parser of every one
    outputs = []
    for parser in (cli._build_parser(), cli._build_parser(command)):
        for argv in ([command, "--help"], [command, "--no-such-option"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        outputs.append((parser.format_usage(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    argv = [command] + (["domain.json"] if command in ("certify", "validate") else [])
    handler = getattr(cli, "_cmd_" + command.replace("-", "_"))
    assert cli._build_parser(command).parse_args(argv).func is handler


def test_mutually_exclusive_inputs():
    for command in ("cbeta", "gamma-star"):
        assert run([command]) == 2
        assert run([command, "--beta", "1.5pi", "--sweep", "pi:2pi:3"]) == 2
