"""Tests of the benchmark's own code: span arithmetic, counting, checks, spec."""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
PI = math.pi


def test_self_time_subtracts_direct_children_only():
    labels = [("layer.a", "layer"), ("layer.b", "other"), ("layer.c", "layer")]
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
    name_ids = [0, 1, 2, 1]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    out = spans.self_times(labels, name_ids, parents, starts, ends)
    assert out["layer.a"]["self_s"] == pytest.approx(6.0)
    assert out["layer.b"]["self_s"] == pytest.approx(3.0)
    assert out["layer.b"]["total_s"] == pytest.approx(4.0)
    assert out["layer.c"]["self_s"] == pytest.approx(1.0)
    assert out["layer.b"]["calls"] == 2
    assert out["layer.b"]["sites"] == {"other": 2}


def test_recorder_nests_spans_and_survives_exceptions():
    rec = spans.Recorder()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    wrapped_leaf = rec.wrap("m.leaf", "m", leaf)
    outer = rec.wrap("m.outer", "m", lambda: wrapped_leaf(1) + wrapped_leaf(2))
    assert outer() == 3
    with pytest.raises(ValueError):
        wrapped_leaf(-1)
    assert list(rec.parents) == [-1, 0, 0, -1]
    assert all(e >= s for s, e in zip(rec.starts, rec.ends))
    out = spans.self_times(rec.labels, rec.name_ids, rec.parents, rec.starts, rec.ends)
    assert out["m.leaf"]["calls"] == 3 and out["m.outer"]["calls"] == 1


def test_sampled_clock_takes_its_reference_units_out_of_the_time():
    previous = signal.getsignal(signal.SIGPROF)
    try:
        clock = child.SampledClock()
        with clock:
            deadline = time.process_time() + 0.3
            while time.process_time() < deadline:
                pass
        with child.SampledClock() as short:
            pass
    finally:
        signal.signal(signal.SIGPROF, previous)
    units_s = sum(c for c, _ in clock.units)
    assert clock.sampled >= 3 and units_s > 0.0
    assert clock.cpu_s + units_s == pytest.approx(0.3, abs=0.03)
    assert clock.scaled_s == pytest.approx(clock.cpu_s * child.REF_UNIT_NOMINAL_S / clock.unit_s)
    # a stretch too short for the timer is scaled by units taken right after it
    assert short.sampled == 0 and len(short.units) == child.MIN_UNITS and short.unit_s > 0.0


def _outcome(op_id, rows, work, error=None, rate="pass"):
    report = {"setup_s": 0.5, "work_s": work}
    return run.Outcome(op_id, 0 if error is None else 2, work + 0.6, report, error,
                       rows=rows, rate=rate)


def test_ok_share_and_rows_per_s_from_synthetic_outcomes():
    outcomes = [
        _outcome("a", rows=10, work=2.0),
        _outcome("b", rows=0, work=0.5, error="exit 2: bad input"),
        _outcome("c", rows=5, work=3.0, rate=None),
        _outcome("d", rows=6, work=2.0),
    ]
    values = run.end_to_end([outcomes], peak_rss_kb=2048)
    assert values["ok_share"] == pytest.approx(0.75)
    # rows of succeeded rate operations over the work of all rate operations
    assert values["rows_per_s"] == pytest.approx(16 / 4.5)
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["peak_rss_mb"] == pytest.approx(2.0)
    assert set(values) == {name for name, *_ in run.END_TO_END}


def test_rows_per_s_is_the_median_over_rate_samples():
    passes = [[_outcome("a", rows=10, work=w)] for w in (1.0, 2.0, 10.0)]
    passes[1].append(_outcome("b", rows=0, work=0.5, error="exit 2: bad input"))
    values = run.end_to_end(passes, peak_rss_kb=1024)
    assert values["rows_per_s"] == pytest.approx(10 / 2.5)
    assert values["ok_share"] == pytest.approx(0.75)
    # one sample per rate key and pass: rates 1, 2, 3, 4, 8 and 16 rows/s
    chunks = [[_outcome(f"c{k}", rows=r, work=1.0, rate=f"c{k}") for k, r in enumerate(rows)]
              for rows in ((1, 2, 16), (3, 4, 8))]
    assert run.end_to_end(chunks, peak_rss_kb=1024)["rows_per_s"] == pytest.approx(3.5)


def test_failing_child_is_counted_not_raised():
    rc, wall, report, error = run.run_child(
        [sys.executable, "-c", "import sys; print('partial'); sys.exit(3)"], {}, timeout=60
    )
    assert rc == 3 and report is None and "exit 3" in error and wall > 0.0

    reported = 'import json, sys; print(json.dumps({"error": "boom", "work_s": 0.1})); sys.exit(2)'
    rc, _, report, error = run.run_child([sys.executable, "-c", reported], {}, timeout=60)
    assert rc == 2 and report["error"] == "boom" and error.startswith("exit 2")


def test_failed_operation_skips_its_output_check(monkeypatch):
    def fake_child(cmd, env, timeout):
        return 2, 0.8, {"setup_s": 0.6, "work_s": 0.001, "error": "bad angle"}, "exit 2: bad angle"

    def check(op):
        raise AssertionError("a failed operation must not be checked")

    monkeypatch.setattr(run, "run_child", fake_child)
    op = workloads.Op("op", {"kind": "cli", "argv": []}, check)
    out = run.run_op(op, {}, deadline=float("inf"))
    assert out.failed and not out.check_failed and out.rc == 2
    assert run.end_to_end([[out]], 1024)["ok_share"] == 0.0


def test_reference_constant():
    assert abs(workloads.ref_c(2.0 * PI) - workloads.C_2PI) < 1e-12
    bcr = workloads.ref_beta_critical()
    assert abs(bcr / PI - 1.5457304165) < 1e-9
    assert workloads.ref_c(bcr) == 0.25 and 0.25 - workloads.ref_c(bcr + 1e-6) < 1e-5


def _cbeta_op(tmp_path, rows, check=True):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"rows": rows}))
    return workloads.Op("c", {}, workloads.check_cbeta, out=str(path),
                        expect={"rows": len(rows), "check": check})


def test_cbeta_check_accepts_good_rows_and_rejects_bad_ones(tmp_path):
    betas = [1.8 * PI, 2.0 * PI]
    rows = [{"beta_rad": b, "c": workloads.ref_c(b), "shoot_c": workloads.ref_c(b) + 2e-10}
            for b in betas]
    n, acc = workloads.check_cbeta(_cbeta_op(tmp_path, rows))
    assert n == 2 and acc["oracle_gap_max"] == pytest.approx(2e-10)

    far = [dict(rows[0]), dict(rows[1], shoot_c=rows[1]["c"] + 2e-6)]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_cbeta(_cbeta_op(tmp_path, far))
    rising = [dict(rows[0]), dict(rows[1], c=rows[0]["c"] + 1e-3)]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_cbeta(_cbeta_op(tmp_path, rising))


def test_validate_check_requires_an_upper_estimate(tmp_path):
    path = tmp_path / "v.json"
    op = workloads.Op("v", {}, workloads.check_validate, out=str(path), expect={"certified": 0.25})
    path.write_text(json.dumps({"estimate": {"lambda": 0.3}}))
    assert workloads.check_validate(op)[1]["lambda_excess_max"] == pytest.approx(0.05)
    path.write_text(json.dumps({"estimate": {"lambda": 0.2499}}))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_validate(op)


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        runs = []
        for copy in ("a", "b"):
            d = tmp_path / name / copy
            d.mkdir(parents=True)
            specs = json.dumps([op.spec for op in workloads.build(name, 7, d)])
            files = {p.name: p.read_text() for p in sorted(d.iterdir())}
            runs.append((specs.replace(str(d), ""), files))
        assert runs[0] == runs[1]


def test_patch_reaches_every_binding_site():
    script = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import hardyconst, hardyconst.cli
from spans import Recorder, TRACED
rec = Recorder()
originals = rec.patch(hardyconst)
mods = [hardyconst] + [getattr(hardyconst, m) for m, _ in TRACED]
stale = [f"{m.__name__}.{k}" for m in mods for k, v in vars(m).items()
         if any(v is fn for fn in originals.values())]
sites = {"hardycore": ["gamma", "hyp2f1", "hyp2f1_dz"], "odeengine": ["potential_v", "hyp2f1"],
         "angles": ["g_func", "solve_c_beta", "beta_critical", "g_upper_bound"],
         "certify": ["gamma_star", "g_func", "f_func", "solve_c_beta"]}
home = {q.rpartition(".")[2]: fn for q, fn in originals.items()}
unwrapped = [f"{m}.{f}" for m, fs in sites.items() for f in fs
             if getattr(getattr(getattr(hardyconst, m), f), "__wrapped__", None) is not home[f]]
hardyconst.certify_domain(hardyconst.Sector(6.0))
labels = {rec.labels[i] for i in rec.name_ids}
print(json.dumps({"stale": stale, "unwrapped": unwrapped, "labels": sorted(map(list, labels))}))
"""
    env = run.child_env()
    proc = subprocess.run([sys.executable, "-c", script, str(HERE)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["stale"] == [] and out["unwrapped"] == []
    assert ["hardycore.solve_c_beta", "certify"] in out["labels"]
    assert ["certify.certify_domain", "hardyconst"] in out["labels"]


def test_benchmark_json_is_generated_from_the_tables():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc == run.spec_document()
    names = [m["name"] for m in doc["end_to_end"]] + [m["name"] for m in doc["per_layer"]]
    assert len(names) == len(set(names)) and "setup_s" in names


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout
