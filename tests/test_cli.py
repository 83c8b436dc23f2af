import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hardyconst import cli, odeengine
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


def test_sweep_count_is_bounded(capsys):
    assert run(["cbeta", "--sweep", "1.6pi:2pi:100001"]) == 2
    assert run(["gamma-star", "--sweep", "1.6pi:2pi:1000000000000"]) == 2
    assert "more than 100000 rows" in capsys.readouterr().err


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


def test_certify_ebg_file(tmp_path):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "ebg", "beta": 1.5, "gamma": 1.5}))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["verdict"] == "certified"
    assert rep["constant"] == pytest.approx(0.2054, abs=1e-3)


def test_certify_dbeta_oscillating_inconclusive(tmp_path):
    samples = [[t / 100.0 * 2.0, 1.5 + math.sin(4.0 * math.pi * t / 100.0 * 2.0)] for t in range(101)]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "dbeta", "beta": 2.0, "r_samples": samples}))
    out = tmp_path / "report.json"
    assert run(["certify", str(f), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["verdict"] == "inconclusive"


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


@pytest.mark.parametrize("x_notch, kind", [(0.5, "graded"), (0.437, "lattice")])
def test_validate_names_its_grid(tmp_path, capsys, x_notch, kind):
    # an L-shape is graded; a notch at x = 0.437 fits no uniform x spacing
    # of n/2..n elements, so it falls back to the lattice
    vertices = [[0, 0], [1, 0], [1, 0.5], [x_notch, 0.5], [x_notch, 1], [0, 1]]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "48", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["grid"] == kind
    assert f"{kind} grid" in capsys.readouterr().out


def test_validate_reports_dropped_unknowns(tmp_path, capsys):
    # the dumbbell's corridor is narrower than h at n = 64: the lattice
    # keeps the left box and drops the right one, which ties with it.  The
    # count is printed; the byte-stable document does not carry it
    vertices = [[0, 0], [0.45, 0], [0.45, 0.498], [0.55, 0.499], [0.55, 0], [1, 0], [1, 1],
                [0.55, 1], [0.55, 0.503], [0.45, 0.502], [0.45, 1], [0, 1]]
    f = tmp_path / "dom.json"
    f.write_text(json.dumps({"type": "polygon", "vertices": vertices}))
    out = tmp_path / "est.json"
    assert run(["validate", str(f), "--n", "64", "-o", str(out)]) == 0
    assert "1674 nodes, 1674 dropped)" in capsys.readouterr().out
    assert "dropped" not in out.read_text()
    f.write_text(json.dumps({"type": "sector", "beta": 2.0}))
    assert run(["validate", str(f), "--n", "64"]) == 0
    assert "0 dropped)" in capsys.readouterr().out


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
            {"h": 0.125980972589, "iterations": 18, "lambda": 0.348836920356,
             "residual_bound": 4.72605827429e-08},
        ),
        (
            {"type": "ebg", "beta": 1.3, "gamma": 0.8},
            {"h": 0.115278984376, "iterations": 18, "lambda": 0.488531798646,
             "residual_bound": 4.56092705982e-07},
        ),
    ],
    ids=["dbeta", "ebg", "ebg-asymmetric"],
)
def test_validate_lattice_lambda_is_pinned(tmp_path, doc, estimate):
    # the two lattice domains of perfbench's validate-curved workload at its
    # n = 128, and an asymmetric two-halfline domain: a faster lattice must
    # write the same estimate block, solve count and residual bound included.
    # The Lanczos vector's last bits, and so the residual bound's, depend on
    # the BLAS thread count, so validate runs as perfbench runs it: in a child
    # process with one BLAS thread
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "est.json"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from hardyconst.cli import main; sys.exit(main())",
         "validate", str(f), "--n", "128", "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(out.read_text())
    assert got["grid"] == "lattice"
    assert got["estimate"] == estimate


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


def test_mutually_exclusive_inputs():
    for command in ("cbeta", "gamma-star"):
        assert run([command]) == 2
        assert run([command, "--beta", "1.5pi", "--sweep", "pi:2pi:3"]) == 2
