import json
import math

import pytest

from hardyconst import cli
from hardyconst.cli import main, parse_angle

PI = math.pi


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


def test_worker_fanout_matches_serial(tmp_path, monkeypatch):
    serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
    run(["cbeta", "--sweep", "1.6pi:2pi:4", "-o", str(serial)])
    monkeypatch.setenv("HARDY_WORKERS", "2")
    run(["cbeta", "--sweep", "1.6pi:2pi:4", "-o", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("HARDY_WORKERS", "100000")
    assert cli._workers(1000) == 4
    assert cli._workers(3) == 3
    assert cli._workers(1) == 1
    monkeypatch.setenv("HARDY_WORKERS", "not a number")
    assert cli._workers(1000) == 1
    monkeypatch.setenv("HARDY_WORKERS", "-3")
    assert cli._workers(1000) == 1

    class RecordingPool:
        # stands in for the process pool so no worker is started
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("HARDY_WORKERS", "100000")
    assert cli._map_ordered(abs, list(range(-10, 0))) == list(range(10, 0, -1))
    assert cli._map_ordered(abs, [-2, -1]) == [2, 1]
    assert RecordingPool.sizes == [4, 2]


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


def test_exit_code_domain_error(capsys):
    assert run(["cbeta", "--beta", "0.5pi"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    # shooting has no bracket below the critical opening
    f = tmp_path / "x.json"
    assert run(["cbeta", "--beta", "1.2pi", "--check", "-o", str(f)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_bad_file(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert run(["certify", str(f)]) == 2
    f.write_text(json.dumps({"type": "hexagon"}))
    assert run(["certify", str(f)]) == 2


def test_mutually_exclusive_inputs():
    assert run(["cbeta"]) == 2
    assert run(["cbeta", "--beta", "1.5pi", "--sweep", "pi:2pi:3"]) == 2
