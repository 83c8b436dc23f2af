#!/usr/bin/env python3
"""Sweep the sector constant and the critical adjacent angles to CSV.

Example:
  python scripts/constants_sweep.py --count 41 --out constants.csv --check
"""

import argparse
import csv
import math
import sys

import numpy as np

from hardyconst import beta_critical, gamma_star, shoot_c, solve_c_beta

PI = math.pi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=41)
    ap.add_argument("--out", default="constants.csv")
    ap.add_argument("--check", action="store_true", help="add the shooting cross-check column")
    args = ap.parse_args()

    bcr = beta_critical()
    betas = np.linspace(PI, 2.0 * PI, args.count)
    shots = {}
    if args.check:
        checked = betas[betas > bcr]
        shots = dict(zip(checked.tolist(), shoot_c(checked).c_estimate.tolist()))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["beta_pi", "c", "alpha", "gamma_star_pi", "gamma_star_star_pi", "shoot_c"]
        )
        for beta in betas:
            beta = float(beta)
            sol = solve_c_beta(beta)
            crit = gamma_star(beta)
            shoot = f"{shots[beta]:.12g}" if beta in shots else ""
            writer.writerow(
                [
                    f"{beta / PI:.12g}",
                    f"{sol.c:.12g}",
                    f"{sol.alpha:.12g}",
                    f"{crit.gamma_star / PI:.12g}",
                    "" if crit.gamma_star_star is None else f"{crit.gamma_star_star / PI:.12g}",
                    shoot,
                ]
            )
    print(f"wrote {args.count} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
