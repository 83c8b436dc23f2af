#!/usr/bin/env python3
"""Benchmark of the hardyconst command line, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload sweep-check --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Each operation of a workload runs in a fresh interpreter (child.py), one
at a time, with HARDY_WORKERS unset, so every run pays the import and
cold caches a `hardyconst ...` user pays.  Passes over the workload's
operations repeat until --seconds have elapsed (at least one pass).
Every output is checked in this process, outside the timed regions.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes; the traced children wrap each layer function in spans
(spans.py) and the run prints the per-layer metrics plus the tracing
overhead, the traced work time over the untraced one.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 10
RUN_DEADLINE_S = 170.0  # no child may still run after this, so a run ends within 180 s

# name, unit, better, bound, meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import of hardyconst in a fresh interpreter, median over the run's children"),
    ("ok_share", "share", "higher", 0.02,
     "operations that exited 0 and passed their output check, over operations attempted"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "largest ru_maxrss of any child"),
    ("rows_per_s", "1/s", "higher", 0.25,
     "output rows per second of in-child work over the run (sweep-check: shooting-checked rows per second of --check work)"),
)

# name, unit, better
PER_LAYER = (
    ("odeengine.shoot_c.calls", "count", "lower"),
    ("odeengine.shoot_c.self_s", "s", "lower"),
    ("odeengine.shoot_c.steps", "count", "lower"),
    ("odeengine.rhs_evals", "count", "lower"),
    ("odeengine.oracle_gap_max", "1", "lower"),
    ("hardycore.solve_c_beta.calls", "count", "lower"),
    ("hardycore.solve_c_beta.self_s", "s", "lower"),
    ("hardycore.solve_c_beta.cache_hit_ratio", "share", "higher"),
    ("hardycore.g_func.calls", "count", "lower"),
    ("hardycore.g_func.self_s", "s", "lower"),
    ("hardycore.f_func.calls", "count", "lower"),
    ("hardycore.f_func.self_s", "s", "lower"),
    ("specfun.gamma.calls", "count", "lower"),
    ("specfun.hyp2f1.calls", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("angles.gamma_star.self_s", "s", "lower"),
    ("angles.gamma_star_star.self_s", "s", "lower"),
    ("certify.certify_domain.self_s", "s", "lower"),
    ("certify.boundary_form_samples.self_s", "s", "lower"),
    ("rayleigh.estimate_constant.self_s", "s", "lower"),
    ("rayleigh.estimate_constant.outer_iterations", "count", "lower"),
    ("rayleigh.build_grid.self_s", "s", "lower"),
    ("rayleigh.build_grid.nodes", "count", "lower"),
    ("rayleigh.build_grid.nnz", "count", "lower"),
    ("rayleigh.lambda_excess_max", "1", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

# Functions that must record calls in a traced run of each workload.
REQUIRED_CALLS = {
    "sweep-check": ("odeengine.shoot_c", "hardycore.potential_v", "hardycore.solve_c_beta",
                    "cli.main"),
    "tables": ("hardycore.solve_c_beta", "specfun.gamma", "specfun.hyp2f1", "hardycore.g_func",
               "hardycore.f_func", "angles.gamma_star", "angles.gamma_star_star",
               "certify.certify_domain", "certify.boundary_form_samples", "cli.main"),
    "validate-lattice": ("rayleigh.build_grid", "rayleigh.estimate_constant", "cli.main"),
    "validate-curved": ("rayleigh.build_grid", "rayleigh.estimate_constant", "cli.main"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Outcome:
    """One operation as run: the child's report and what the check found."""

    op_id: str
    rc: Optional[int]
    wall_s: float
    report: Optional[dict]
    error: Optional[str] = None
    check_failed: bool = False
    rows: int = 0
    accuracy: dict = field(default_factory=dict)
    rate: Optional[str] = "pass"
    trace_path: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def work_s(self) -> float:
        return self.report["work_s"] if self.report else 0.0


def run_child(cmd: list, env: dict, timeout: float) -> tuple:
    """Run one child to completion: (exit code, wall seconds, report, error).

    A child that crashes, times out or prints no report is an error to
    count, never an exception; a timed-out child is killed and reaped.
    """
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, None, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if not isinstance(report, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return proc.returncode, wall, None, f"exit {proc.returncode}, no report: {tail[0]}"
    if proc.returncode != 0 or report.get("error"):
        return proc.returncode, wall, report, f"exit {proc.returncode}: {report.get('error')}"
    return proc.returncode, wall, report, None


def child_env() -> dict:
    """The parent's environment without HARDY_WORKERS, with one BLAS/OpenMP thread
    and a fixed hash seed.

    Children run one at a time on a machine of few cores; a second BLAS
    thread would make the work time measure the scheduler (on 2 vCPUs it
    doubled the CPU time of validate and slowed it by a fifth).
    """
    env = dict(os.environ)
    env.pop("HARDY_WORKERS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every child
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_op(op, env: dict, deadline: float, trace_path: Optional[str] = None) -> Outcome:
    if op.out:
        Path(op.out).unlink(missing_ok=True)
    spec = dict(op.spec, src=str(ROOT / "src"))
    if trace_path:
        spec["trace"] = trace_path
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    rc, wall, report, error = run_child(cmd, env, max(1.0, deadline - time.monotonic()))
    out = Outcome(op.id, rc, wall, report, error, rate=op.rate,
                  trace_path=trace_path)
    if error is None:
        try:
            out.rows, out.accuracy = op.check(op)
        except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            out.error = f"output check: {type(exc).__name__}: {exc}"
            out.check_failed = True
    return out


def run_pass(ops: list, env: dict, deadline: float, trace_dir: Optional[str] = None) -> list:
    return [
        run_op(op, env, deadline, trace_path=(f"{trace_dir}/spans-{op.id}.bin" if trace_dir else None))
        for op in ops
    ]


# ---------------------------------------------------------------------------
# Metrics.

def rate_samples(outcomes: list) -> list:
    """Rows per second of work of each rate sample of one pass.

    Operations with the same rate key pool their rows (of those that
    succeeded) and their work; operations without a key are left out.
    """
    pools = {}
    for o in outcomes:
        if o.rate is not None:
            rows, work = pools.get(o.rate, (0, 0.0))
            pools[o.rate] = (rows + (0 if o.failed else o.rows), work + o.work_s)
    return [rows / work for rows, work in pools.values() if work > 0]


def end_to_end(passes: list, peak_rss_kb: int) -> dict:
    """The END_TO_END metrics of a run's untraced passes; the rate is a median over samples."""
    outcomes = [o for p in passes for o in p]
    setups = [o.report["setup_s"] for o in outcomes if o.report]
    samples = [r for p in passes for r in rate_samples(p)]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "ok_share": sum(not o.failed for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "rows_per_s": statistics.median(samples) if samples else 0.0,
    }


def accuracy(outcomes: list) -> dict:
    """Largest value of each accuracy figure the output checks measured."""
    out = {}
    for o in outcomes:
        for name, value in o.accuracy.items():
            out[name] = max(out.get(name, 0.0), value)
    return out


def trace_totals(outcomes: list) -> tuple:
    """Merge the span files of one traced pass: (per-function totals, counters, cache)."""
    funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "sites": defaultdict(int)})
    counters = defaultdict(int)
    cache = [0, 0]
    for o in outcomes:
        trace = (o.report or {}).get("trace")
        if trace is None:
            continue
        arrays = spans.load(o.trace_path, trace["spans"])
        for name, rec in spans.self_times([tuple(x) for x in trace["labels"]], *arrays).items():
            funcs[name]["calls"] += rec["calls"]
            funcs[name]["self_s"] += rec["self_s"]
            for site, calls in rec["sites"].items():
                funcs[name]["sites"][site] += calls
        for name, value in trace["counters"].items():
            counters[name] += value
        cache[0] += trace["cache_hits"]
        cache[1] += trace["cache_misses"]
    return funcs, counters, cache


def layer_values(funcs: dict, counters: dict, cache: list, acc: dict, overhead: float) -> dict:
    """Every PER_LAYER metric of one traced pass."""

    def calls(name):
        return funcs[name]["calls"] if name in funcs else 0

    def self_s(name):
        return funcs[name]["self_s"] if name in funcs else 0.0

    hits, misses = cache
    rhs_sites = funcs["hardycore.potential_v"]["sites"] if "hardycore.potential_v" in funcs else {}
    values = {
        "odeengine.rhs_evals": rhs_sites.get("odeengine", 0),
        "odeengine.oracle_gap_max": acc.get("oracle_gap_max", 0.0),
        "hardycore.solve_c_beta.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "specfun.self_s": sum(self_s(name) for name in funcs if name.startswith("specfun.")),
        "rayleigh.lambda_excess_max": acc.get("lambda_excess_max", 0.0),
        "trace.overhead_share": overhead,
    }
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in values:
            continue
        if stat == "calls":
            values[name] = calls(base)
        elif stat == "self_s":
            values[name] = self_s(base)
        else:
            values[name] = counters.get(name, 0)
    return {name: values[name] for name, _, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Output.

def machine_facts(args, env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "child_threads_env": {var: env.get(var) for var in THREAD_VARS},
    }


def print_pass(label: str, outcomes: list) -> None:
    for o in outcomes:
        rep = o.report or {}
        line = (f"{label} op {o.op_id:<24s} exit={o.rc} wall={o.wall_s:.3f}s "
                f"rows={o.rows}")
        for part in ("setup", "work"):
            if f"{part}_cpu_s" in rep:
                line += (f" {part}={rep[part + '_s']:.3f}s (cpu {rep[part + '_cpu_s']:.3f}s, "
                         f"wall {rep[part + '_wall_s']:.3f}s, "
                         f"{rep[part + '_ref_units']} units of {1e3 * rep[part + '_ref_unit_s']:.3f}ms)")
        if o.failed:
            line += f"  FAILED {o.error}"
        counters = (rep.get("trace") or {}).get("counters")
        if counters:
            line += f"  counters={json.dumps(counters, sort_keys=True)}"
        print(line)


def spec_document() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (why, _) in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if not args.write_spec and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec_document(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "hardyconst" / "__init__.py").is_file():
        print(f"error: no hardyconst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    env = child_env()
    print("facts " + json.dumps(machine_facts(args, env), sort_keys=True))
    plain, traced, totals = [], [], []
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        ops = workloads.build(args.workload, args.seed, Path(tmp))
        while True:
            t_pass = time.monotonic()
            plain.append(run_pass(ops, env, deadline))
            print_pass(f"pass {len(plain)}", plain[-1])
            if args.trace:
                traced.append(run_pass(ops, env, deadline, trace_dir=tmp))
                print_pass(f"traced {len(traced)}", traced[-1])
                totals.append(trace_totals(traced[-1]))  # span files are rewritten next pass
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - t_pass) > deadline:
                break

    outcomes = [o for p in plain + traced for o in p]
    failed = [o for o in outcomes if o.failed]
    correct = not any(o.check_failed for o in outcomes)
    for op_id in dict.fromkeys(o.op_id for o in failed):
        errors = [o.error for o in failed if o.op_id == op_id]
        attempts = sum(o.op_id == op_id for o in outcomes)
        print(f"failed {op_id} ({len(errors)} of {attempts} attempts): {errors[0]}")
    acc = accuracy(outcomes)
    for name, value in sorted(acc.items()):
        print(f"accuracy {name} = {value:.6g}")

    if args.trace:
        work = statistics.median(sum(o.work_s for o in p) for p in plain)
        traced_work = statistics.median(sum(o.work_s for o in p) for p in traced)
        overhead = traced_work / work - 1.0 if work > 0 else 0.0
        print(f"tracing overhead: traced work {traced_work:.3f}s against untraced {work:.3f}s "
              f"per pass ({100.0 * overhead:+.1f}%)")
        per_pass = [layer_values(*t, acc, overhead) for t in totals]
        values = {name: statistics.median_low(v[name] for v in per_pass) for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        funcs = totals[0][0]
        silent = [f for f in REQUIRED_CALLS[args.workload] if funcs.get(f, {}).get("calls", 0) == 0]
        if silent:
            print(f"error: traced run recorded no calls of {', '.join(silent)}", file=sys.stderr)
            return 1
    else:
        values = end_to_end(plain, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        units = {name: unit for name, unit, _, _, _ in END_TO_END}
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
