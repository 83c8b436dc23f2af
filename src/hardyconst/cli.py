"""Command-line surface: constants, angle tables, certification, validation.

Angles are written as multiples of pi ("1.5pi") or as plain radians;
tables carry both units and hold one row per opening, computed in order
in this process.  Output documents are JSON (default) or, for the tables
of cbeta, betacr and gamma-star, CSV, with floats fixed to 12 significant
digits, so identical invocations produce byte-identical files.
Exit codes: 0 success, 2 input or domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

from . import angles as angles_mod
from . import certify as certify_mod
from . import hardycore, odeengine, rayleigh, specfun
from .certify import Dbeta, Ebg, OneReflexPolygon, Sector, SectorCapConvex

__all__ = ["main", "parse_angle", "parse_domain_file"]

PI = math.pi

_MAX_SWEEP_COUNT = 100_000  # a sweep's rows are all held in memory
# validate --n: 2-D grid memory grows like n^2, and the fill of a lattice's
# sparse LU factors a little faster; a sector's pencil has only n/2 - 1
# unknowns.  Peak RSS of one validate run at n = 512 (x86-64, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread): slit disk 86 MB (the import
# floor, in 0.01 s), L-shape 177 MB, Ebg(1.5pi, 1.5pi) 293 MB (in 1.7 s of
# CPU, half of it the LU factorization and the eigen-solve), a 2pi Dbeta
# 176 MB.
_MAX_RESOLUTION = 512


def parse_angle(text: str) -> float:
    """Angle from '1.5pi' (multiples of pi) or a plain radian literal."""
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2]
            return (float(head) if head not in ("", "+", "-") else float(head + "1")) * PI
        return float(t)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}; use e.g. '1.5pi' or a radian value")


def _parse_sweep(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep {text!r} must look like start:stop:count")
    lo, hi = parse_angle(parts[0]), parse_angle(parts[1])
    count = int(parts[2])
    if count < 2 or not hi > lo:
        raise ValueError(f"sweep {text!r} needs an increasing range and count >= 2")
    if count > _MAX_SWEEP_COUNT:
        raise ValueError(f"sweep {text!r} asks for more than {_MAX_SWEEP_COUNT} rows")
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return _round12(obj)


def _emit(document: dict, rows: Optional[list], out: Optional[str], fmt: str) -> None:
    document = _round_tree(document)
    if out is None:
        return
    if fmt == "json":
        payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        rows = _round_tree(rows)
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else f"{v:.12g}" if isinstance(v, float) else v) for k, v in row.items()})
        payload = buf.getvalue()
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(payload)


def _print_table(rows: list) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    print("  ".join(f"{k:>16s}" for k in keys))
    for row in rows:
        cells = []
        for k in keys:
            v = row[k]
            cells.append(f"{'':>16s}" if v is None else f"{v:>16.10g}" if isinstance(v, float) else f"{str(v):>16s}")
        print("  ".join(cells))


def _cbeta_row(beta: float) -> dict:
    sol = hardycore.solve_c_beta(beta)
    return {
        "beta_rad": beta,
        "beta_pi": beta / PI,
        "c": sol.c,
        "alpha": sol.alpha,
        "residual": sol.residual,
        "shoot_c": None,
    }


def _gamma_rows(betas: list) -> list:
    """One gamma-star row per opening, from one batched solve of the sweep."""
    crit = angles_mod.gamma_star(betas)
    rows = []
    for beta, gs, gss, argmax in zip(
        betas, crit.gamma_star.tolist(), crit.gamma_star_star.tolist(), crit.argmax_theta.tolist()
    ):
        gss = None if math.isnan(gss) else gss
        rows.append(
            {
                "beta_rad": beta,
                "beta_pi": beta / PI,
                "gamma_star_rad": gs,
                "gamma_star_pi": gs / PI,
                "gamma_star_star_rad": gss,
                "gamma_star_star_pi": None if gss is None else gss / PI,
                "argmax_theta": argmax,
            }
        )
    return rows


def _finite(text: str) -> float:
    """A JSON number literal as a finite float; literals such as 1e999 overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _non_finite(name: str):
    raise ValueError(f"non-finite number {name} in domain file")


def _number(doc: dict, key: str) -> float:
    value = doc[key]
    if type(value) is not float:  # every JSON number was parsed by _finite
        raise ValueError(f"{key!r} must be a number, not {value!r}")
    return value


def _pairs(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(c) is float for c in p) for p in value
    ):
        raise ValueError(f"{key!r} must be a list of [number, number] pairs")
    return value


def parse_domain_file(path: str):
    """Domain description from a JSON document; angles are in pi-units.

    Every number must be finite, bounded a boolean, and vertices and
    r_samples lists of number pairs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_finite, parse_int=_finite, parse_constant=_non_finite)
    if not isinstance(doc, dict):
        raise ValueError("a domain file holds one JSON object")
    kind = doc.get("type")
    if kind == "sector":
        return Sector(beta=_number(doc, "beta") * PI)
    if kind == "sector_cap":
        bounded = doc.get("bounded", True)
        if not isinstance(bounded, bool):
            raise ValueError(f"'bounded' must be true or false, not {bounded!r}")
        return SectorCapConvex(
            beta=_number(doc, "beta") * PI,
            gamma_plus=_number(doc, "gamma_plus") * PI,
            gamma_minus=_number(doc, "gamma_minus") * PI,
            bounded=bounded,
        )
    if kind == "polygon":
        return OneReflexPolygon(_pairs(doc, "vertices"))
    if kind == "ebg":
        return Ebg(beta=_number(doc, "beta") * PI, gamma=_number(doc, "gamma") * PI)
    if kind == "dbeta":
        return Dbeta(_number(doc, "beta") * PI, [(t * PI, r) for t, r in _pairs(doc, "r_samples")])
    raise ValueError(f"unknown domain type {kind!r}")


def _domain_to_dict(domain) -> dict:
    if isinstance(domain, Sector):
        return {"type": "sector", "beta": domain.beta / PI}
    if isinstance(domain, SectorCapConvex):
        return {
            "type": "sector_cap",
            "beta": domain.beta / PI,
            "gamma_plus": domain.gamma_plus / PI,
            "gamma_minus": domain.gamma_minus / PI,
            "bounded": domain.bounded,
        }
    if isinstance(domain, OneReflexPolygon):
        return {"type": "polygon", "vertices": [list(v) for v in domain.vertices]}
    if isinstance(domain, Ebg):
        return {"type": "ebg", "beta": domain.beta / PI, "gamma": domain.gamma / PI}
    if isinstance(domain, Dbeta):
        return {
            "type": "dbeta",
            "beta": domain.beta / PI,
            "r_samples": [[t / PI, r] for t, r in domain.r_samples],
        }
    raise TypeError(type(domain).__name__)


def _betas(args) -> list:
    """The openings of --beta or --sweep; exactly one of them must be given."""
    if (args.beta is None) == (args.sweep is None):
        raise ValueError("provide exactly one of --beta or --sweep")
    return [parse_angle(args.beta)] if args.beta else _parse_sweep(args.sweep)


def _cmd_cbeta(args) -> int:
    betas = _betas(args)
    rows = [_cbeta_row(b) for b in betas]
    if args.check:
        # one batched shooting solve for the whole sweep
        for row, shot in zip(rows, odeengine.shoot_c(betas).c_estimate.tolist()):
            row["shoot_c"] = shot
    params = {"betas_pi": [b / PI for b in betas], "check": args.check}
    _print_table(rows)
    _emit({"command": "cbeta", "params": params, "rows": rows}, rows, args.output, args.format)
    return 0


def _cmd_betacr(args) -> int:
    bcr = hardycore.beta_critical()
    rhs = 4.0 * (specfun.gamma(0.75) / specfun.gamma(0.25)) ** 2
    residual = hardycore.equation_residual(bcr, 0.25)
    rows = [
        {
            "beta_cr_rad": bcr,
            "beta_cr_pi": bcr / PI,
            "tan_rhs": rhs,
            "residual_at_quarter": residual,
        }
    ]
    _print_table(rows)
    _emit({"command": "betacr", "params": {}, "rows": rows}, rows, args.output, args.format)
    return 0


def _cmd_gamma_star(args) -> int:
    betas = _betas(args)
    rows = _gamma_rows(betas)
    _print_table(rows)
    _emit(
        {"command": "gamma-star", "params": {"betas_pi": [b / PI for b in betas]}, "rows": rows},
        rows,
        args.output,
        args.format,
    )
    return 0


def _cmd_certify(args) -> int:
    domain = parse_domain_file(args.file)
    report = certify_mod.certify_domain(domain)
    doc = {
        "command": "certify",
        "input": _domain_to_dict(domain),
        "report": report.to_dict(),
    }
    print(f"verdict: {report.verdict}")
    if report.constant is not None:
        print(f"constant: {report.constant:.10g}  ({report.constant_source})")
    for chk in report.checks:
        print(f"  [{'ok' if chk.satisfied else 'FAIL'}] {chk.name}  margin={chk.margin:.6g}")
    _emit(doc, None, args.output, "json")
    return 0


def _cmd_validate(args) -> int:
    if not 2 <= args.n <= _MAX_RESOLUTION:
        raise ValueError(f"--n {args.n} outside [2, {_MAX_RESOLUTION}]")
    domain = parse_domain_file(args.file)
    grid = rayleigh.build_grid(domain, args.n, radius=args.radius)
    est = rayleigh.estimate_constant(grid)
    doc = {
        "command": "validate",
        "input": _domain_to_dict(domain),
        "n": args.n,
        "grid": grid.kind,
        "radius": grid.radius,
        "estimate": est.to_dict(),
    }
    print(
        f"lambda_min = {est.lam:.6g}  (residual bound {est.residual_bound:.2g}, n={args.n}, "
        f"{grid.kind} grid, h={est.h:.4g}, {est.iterations} solves, {grid.interior_count} nodes, "
        f"{grid.dropped} dropped)"
    )
    _emit(doc, None, args.output, "json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyconst",
        description="Hardy constants of non-convex planar sectors and domains built from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", default=None, help="write a document to this path")

    def tabular(p):
        common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("cbeta", help="Hardy constant of a sector")
    p.add_argument("--beta", default=None, help="opening angle, e.g. 1.5pi")
    p.add_argument("--sweep", default=None, help="start:stop:count, e.g. pi:2pi:101")
    p.add_argument("--check", action="store_true", help="cross-check each row with the shooting solver")
    tabular(p)
    p.set_defaults(func=_cmd_cbeta)

    p = sub.add_parser("betacr", help="critical opening angle")
    tabular(p)
    p.set_defaults(func=_cmd_betacr)

    p = sub.add_parser("gamma-star", help="critical adjacent-angle table")
    p.add_argument("--beta", default=None)
    p.add_argument("--sweep", default=None)
    tabular(p)
    p.set_defaults(func=_cmd_gamma_star)

    p = sub.add_parser("certify", help="certify a domain description file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("validate", help="variational grid estimate for a domain file")
    p.add_argument("file")
    p.add_argument(
        "--n",
        type=int,
        default=128,
        help="resolution: at most n^2 unknowns (elements per axis on boundary-fitted "
        "grids, nodes per side of the bounding box on lattices)",
    )
    p.add_argument(
        "--radius",
        type=float,
        default=None,
        help="truncation radius of an ebg domain (default 8); no other domain takes one",
    )
    common(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
