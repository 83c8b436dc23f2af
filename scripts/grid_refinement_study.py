#!/usr/bin/env python3
"""Refinement study of the grid validator on an infinite sector.

Prints the discrete minimum against the exact constant c(beta) (~0.205358
for the slit disk) for a sequence of resolutions n.  Sectors are gridded in
log-polar coordinates, and each n resolves n/16 decades of radius (the
angle is graded toward both edges as well), so the table lists decades
beside n.  The weight depends on the angle alone, so the grid is the 1-D
pencil of its lowest radial mode, and `nodes` counts that pencil's
unknowns, one per interior angle node.  The excess over the constant falls
algebraically in n; the `order` column is the observed exponent p in
excess ~ n^-p between consecutive rows, `bound` the relative residual
bound eta of the eigen-solve (some eigenvalue of the discrete problem lies
in [lambda/(1 + eta), lambda/(1 - eta)]), and `solves` its linear solves.
A uniform lattice, which resolves only about log10(n) decades, approaches
the constant only like 1/log^2(1/h).

Example:
  python scripts/grid_refinement_study.py --sizes 32 64 128 256 512
"""

import argparse
import math
import sys
import time

from hardyconst import Sector, build_grid, estimate_constant, solve_c_beta

PI = math.pi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128, 256])
    ap.add_argument("--beta", type=float, default=2.0, help="opening angle in pi units")
    args = ap.parse_args()

    beta = args.beta * PI
    exact = solve_c_beta(beta).c
    print(f"opening {args.beta} pi, exact constant {exact:.6f}")
    print(
        f"{'n':>6s} {'decades r':>9s} {'decades th':>10s} {'nodes':>8s} "
        f"{'lambda':>10s} {'excess':>10s} {'order':>6s} {'bound':>8s} {'solves':>6s} {'seconds':>8s}"
    )
    previous = None
    for n in args.sizes:
        t0 = time.perf_counter()
        grid = build_grid(Sector(beta), n)
        est = estimate_constant(grid)
        dt = time.perf_counter() - t0
        radial = (grid.xs[-1] - grid.xs[0]) / math.log(10.0)
        half = len(grid.ys) // 2
        angular = math.log10((grid.ys[half] - grid.ys[0]) / (grid.ys[1] - grid.ys[0]))
        excess = est.lam - exact
        order = ""
        if previous is not None:
            order = f"{math.log(previous[1] / excess) / math.log(n / previous[0]):6.2f}"
        print(
            f"{n:6d} {radial:9.1f} {angular:10.1f} {grid.interior_count:8d} "
            f"{est.lam:10.5f} {excess:10.5f} {order:>6s} {est.residual_bound:8.1e} "
            f"{est.iterations:6d} {dt:8.3f}"
        )
        previous = (n, excess)
    return 0


if __name__ == "__main__":
    sys.exit(main())
