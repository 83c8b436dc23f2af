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
