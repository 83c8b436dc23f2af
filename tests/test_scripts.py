import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hardyconst import solve_c_beta

ROOT = Path(__file__).resolve().parents[1]


def test_grid_refinement_study_prints_one_row_per_size():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "grid_refinement_study.py"), "--sizes", "32", "64"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    exact = solve_c_beta(2.0 * math.pi).c
    assert lines[0] == f"opening 2.0 pi, exact constant {exact:.6f}"
    assert lines[1].split()[:4] == ["n", "decades", "r", "decades"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows] == ["32", "64"]
    assert len(rows[0]) == 9 and len(rows[1]) == 10  # the first row has no order
    for n, r in zip((32, 64), rows):
        assert float(r[1]) == n / 16  # decades of radius
        assert int(r[3]) > 0  # unknowns of the angular pencil
        lam, excess = float(r[4]), float(r[5])
        assert lam > exact and excess > 0.0 and abs(excess - (lam - exact)) <= 1e-5
    assert float(rows[1][5]) < float(rows[0][5])
    assert float(rows[1][6]) > 0.0  # observed order of convergence


def test_bench_writes_one_pair_of_runs(tmp_path):
    # both sides are this tree: one pair of one-second sweep-check runs
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--parent", str(ROOT),
         "--workload", "sweep-check", "--pairs", "1", "--seconds", "1",
         "--seed", "1", "--label", "test", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert doc["pairs"] == 1 and doc["seconds"] == 1.0 and doc["seed"] == 1
    entry = doc["workloads"]["sweep-check"]
    assert [(r["pair"], r["side"]) for r in entry["runs"]] == [(0, "parent"), (0, "change")]
    for run in entry["runs"]:
        assert run["facts"]["workload"] == "sweep-check" and run["facts"]["seconds"] == 1.0
        assert run["result"]["correct"] and run["result"]["failed"] == 0
        # the run's accuracy next to its timings: shoot_c against c as printed
        assert 0.0 <= run["accuracy"]["oracle_gap_max"] <= 1e-12
    metrics = entry["metrics"]
    assert set(metrics) == {"setup_s", "ok_share", "peak_rss_mb", "rows_per_s"}
    for name, m in metrics.items():
        assert m["better"] in ("lower", "higher")
        for side in ("parent", "change"):
            (value,) = m[side]["values"]
            assert m[side]["median"] == m[side]["q1"] == m[side]["q3"] == value
        assert sum(m["wins"].values()) <= 1
    assert metrics["ok_share"]["parent"]["median"] == 1.0
    assert metrics["ok_share"]["wins"] == {"parent": 0, "change": 0}
    for name, m in metrics.items():
        ratio = m["change"]["values"][0] / m["parent"]["values"][0]
        assert m["ratio"] == {"values": [ratio], "median": ratio, "q1": ratio, "q3": ratio}
        assert f"sweep-check {name}: " in proc.stdout and f"ratio {ratio:.4g} [" in proc.stdout
    # a metric the parent never touched (value 0) has a null ratio in that pair
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.ratios([0.0, 2.0, 4.0], [1.0, 3.0, 2.0]) == {
        "values": [None, 1.5, 0.5], "median": 1.0, "q1": 0.75, "q3": 1.25}
    assert bench.ratios([0.0], [0.0]) == {"values": [None], "median": None, "q1": None, "q3": None}


def test_bench_keeps_each_seed_apart(tmp_path):
    # two seeds, one pair of one-second sweep-check runs each; both sides
    # are this tree
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--parent", str(ROOT),
         "--workload", "sweep-check", "--pairs", "1", "--seconds", "1",
         "--seed", "1", "--seed", "2", "--label", "test", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert doc["seed"] == [1, 2]
    entry = doc["workloads"]["sweep-check"]
    assert set(entry) == {"seeds"} and set(entry["seeds"]) == {"1", "2"}
    for seed, per_seed in entry["seeds"].items():
        runs = per_seed["runs"]
        assert [(r["pair"], r["side"]) for r in runs] == [(0, "parent"), (0, "change")]
        assert all(r["facts"]["seed"] == int(seed) for r in runs)
        metrics = per_seed["metrics"]
        assert set(metrics) == {"setup_s", "ok_share", "peak_rss_mb", "rows_per_s"}
        for m in metrics.values():
            assert [len(m[side]["values"]) for side in ("parent", "change")] == [1, 1]
            assert sum(m["wins"].values()) <= 1
        assert f"sweep-check seed {seed} rows_per_s: parent " in proc.stdout
