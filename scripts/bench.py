#!/usr/bin/env python3
"""Compare a parent tree and this tree on perfbench workloads, in alternating pairs.

For each named workload and each --seed the script runs
`perfbench/run.py` of each tree --pairs times, the two sides alternating
(the parent first in even pairs, this tree first in odd ones), and writes
BENCH_<label>.json with, per workload and seed:
  - every run's last-line metrics, its `facts` line and, as `accuracy`,
    the values its `accuracy <name> = <value>` lines report (the worst
    gap to the oracle on sweep-check, the worst lambda excess on the
    validate workloads), so that each timing sits next to what it produced;
  - per metric and side: the values, median and quartiles;
  - per metric: the change/parent ratio of every pair, with its median and
    quartiles (a ratio is null where the parent's value is 0, as for a
    per-layer metric the workload never touches); the host drifts between
    pairs, and the ratio within a pair cancels most of that drift;
  - per metric: the pairs each side won, by the metric's direction in
    BENCHMARK.json (ties count for neither).
With one seed a workload's entry holds its "runs" and "metrics"
directly and "seed" is that seed; with several, "seed" lists them and the
entry holds one such record per seed under "seeds", keyed by the seed.
Bytecode is compiled in both trees first, so that import time and memory
do not depend on whether a tree has been run before.

The parent tree is any checkout of the commit to compare against, such as
a worktree:

  git worktree add ../parent HEAD~1
  python scripts/bench.py --parent ../parent --workload validate-lattice \\
      --pairs 10 --seconds 10 --seed 4242 --seed 7 --label 23
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600.0  # run.py ends its own runs within 180 s


def directions() -> dict:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def revision(tree: Path) -> dict:
    """The commit a tree has checked out, and whether its tracked files differ from it."""

    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    changed = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": bool(changed) if commit else None}


def compile_tree(tree: Path) -> None:
    for part in ("src", "perfbench"):
        if not compileall.compile_dir(str(tree / part), quiet=1):
            raise SystemExit(f"error: bytecode compilation failed under {tree / part}")


def run_once(tree: Path, workload: str, seed: int, args) -> dict:
    """One perfbench run in tree: its facts line, its accuracy lines and its last-line result."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    facts = next((json.loads(line[len("facts "):]) for line in lines if line.startswith("facts ")),
                 None)
    accuracy = dict(line[len("accuracy "):].split(" = ") for line in lines
                    if line.startswith("accuracy "))
    return {"facts": facts, "accuracy": {k: float(v) for k, v in accuracy.items()},
            "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def ratios(parent: list, change: list) -> dict:
    """change/parent of each pair, null where parent is 0, and the summary of the rest."""
    values = [c / p if p else None for p, c in zip(parent, change)]
    known = [r for r in values if r is not None]
    if not known:
        return {"values": values, "median": None, "q1": None, "q3": None}
    return {**summary(known), "values": values}


def compare(runs: list, better: dict) -> dict:
    """Per metric: each side's summary, the pairs each side won and the paired ratios."""
    pairs = max(r["pair"] for r in runs) + 1
    by = {(r["pair"], r["side"]): r["result"]["metrics"] for r in runs}
    out = {}
    for name in by[(0, "parent")]:
        vals = {side: [by[(i, side)][name]["value"] for i in range(pairs)] for side in SIDES}
        sign = -1.0 if better.get(name) == "lower" else 1.0
        wins = dict.fromkeys(SIDES, 0)
        for p, c in zip(vals["parent"], vals["change"]):
            if sign * (c - p) > 0:
                wins["change"] += 1
            elif sign * (p - c) > 0:
                wins["parent"] += 1
        out[name] = {
            "unit": by[(0, "parent")][name]["unit"],
            "better": better.get(name),
            **{side: summary(vals[side]) for side in SIDES},
            "wins": wins,
            "ratio": ratios(vals["parent"], vals["change"]),
        }
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, action="append",
                    help="workload seed; repeat for several (default 4242)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    args.seed = args.seed or [4242]
    if len(set(args.seed)) < len(args.seed):
        ap.error("each --seed may be given once")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {tree}", file=sys.stderr)
            return 2
        compile_tree(tree)
    better = directions()
    doc = {
        "label": args.label,
        "trees": {side: revision(tree) for side, tree in trees.items()},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed[0] if len(args.seed) == 1 else args.seed,
        "trace": args.trace,
        "workloads": {},
    }
    summaries = []  # (workload, and seed when several; its metrics)
    for workload in args.workload:
        entries = {}
        for seed in args.seed:
            tag = workload if len(args.seed) == 1 else f"{workload} seed {seed}"
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(trees[side], workload, seed, args)
                    runs.append({"pair": pair, "side": side, **run})
                    values = {k: round(v["value"], 6) for k, v in run["result"]["metrics"].items()}
                    print(f"{tag} pair {pair} {side}: {json.dumps(values)}", flush=True)
            entries[str(seed)] = {"runs": runs, "metrics": compare(runs, better)}
            summaries.append((tag, entries[str(seed)]["metrics"]))
        doc["workloads"][workload] = (
            entries[str(args.seed[0])] if len(args.seed) == 1 else {"seeds": entries}
        )
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for tag, metrics in summaries:
        for name, m in metrics.items():
            r = m["ratio"]
            ratio = ("null" if r["median"] is None else
                     f"{r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}]")
            print(f"{tag} {name}: parent {m['parent']['median']:.6g} "
                  f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}], change "
                  f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                  f"{m['change']['q3']:.6g}], wins {m['wins']['change']} of {args.pairs}, "
                  f"ratio {ratio}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
