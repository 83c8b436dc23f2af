"""Command-line surface: constants, angle tables, certification, validation.

Angles are written as multiples of pi ("1.5pi") or as plain radians;
tables carry both units and hold one row per opening, computed in order
in this process.  Output documents are JSON (default) or, for the tables
of cbeta, betacr and gamma-star, CSV, with floats fixed to 12 significant
digits (validate's residual bound, rounded up to 3, aside), so identical
invocations produce byte-identical files.
Exit codes: 0 success, 2 input or domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import angles as angles_mod
from . import certify as certify_mod
from . import hardycore, odeengine, rayleigh, specfun
from .certify import Dbeta, Ebg, OneReflexPolygon, Sector, SectorCapConvex

__all__ = ["main", "parse_angle", "parse_domain_file"]

PI = math.pi

_MAX_SWEEP_COUNT = 100_000  # a sweep's rows are all held in memory
# validate --n: 2-D grid memory grows like n^2, and the fill of a lattice's
# sparse LU factors a little faster; a sector's pencil has only
# 2 floor(n/2) - 1 unknowns.  Peak RSS of one validate run at n = 512
# (x86-64, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread): slit disk
# 86 MB (the import floor, in 0.01 s), L-shape 240 MB (in 1.6 s of CPU),
# Ebg(1.5pi, 1.5pi) 293 MB (in 1.7 s of CPU, half of it the LU
# factorization and the eigen-solve), a 2pi Dbeta 176 MB.
_MAX_RESOLUTION = 512
# Most bytes parse_domain_file reads: json.load of a file peaks at about
# seven times its size.  A file at either shape cap (certify._MAX_SAMPLES
# samples, certify._MAX_VERTICES vertices) written by json.dumps(indent=2)
# with 24-character floats, the longest repr, is at most 7.6 MB.
_MAX_FILE_BYTES = 8 * 1024 * 1024
# Ancona's lower bound on the Hardy constant of every simply connected planar
# domain, which every validate domain is.  A grid estimate is an upper
# estimate of the constant, so one below this bound is a numerical failure;
# the check is a safety net for grids that fail to resolve their domain.
_ANCONA = 1.0 / 16.0


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
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"sweep {text!r} needs a count that is an integer >= 2")
    if count < 2 or not hi > lo:
        raise ValueError(f"sweep {text!r} needs an increasing range and count >= 2")
    if count > _MAX_SWEEP_COUNT:
        raise ValueError(f"sweep {text!r} asks for more than {_MAX_SWEEP_COUNT} rows")
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


_CONTAINERS = (dict, list, tuple)
# Items of a list that _json_chunks encodes per _flat_text call, and rows
# that _print_table prints per call: one block's rounded copy or printed
# text is held at a time, not a whole table's.
_BLOCK = 1024


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder for a container at nesting depth whose items hold no container.

    Without indent json encodes in C, and its item separator then carries
    the newline and the indent of the items' level (depth + 1).
    """
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _json_text(obj) -> str:
    """obj, its floats rounded by _round12, as json.dumps(obj, indent=2, sort_keys=True) writes it."""
    return "".join(_json_chunks(obj))


def _json_chunks(obj, depth: int = 0):
    """The pieces of _json_text(obj) at nesting depth, in order.

    A container that holds no container is one _flat_text call, and so is
    each block of _BLOCK items of a list whose items are such containers;
    only the levels above them, and blocks _flat_text refuses, run here.
    """
    if not isinstance(obj, _CONTAINERS):
        yield _flat_encoder(depth).encode(_round12(obj))
        return
    text = _flat_text([obj], depth) if obj else "{}" if isinstance(obj, dict) else "[]"
    if text is not None:
        yield text
        return
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        yield "{"
        for k, (key, v) in enumerate(sorted(obj.items())):
            yield ("," if k else "") + pad + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(v, depth + 1)
        yield "\n" + "  " * depth + "}"
        return
    yield "["
    for start in range(0, len(obj), _BLOCK):
        block = obj[start : start + _BLOCK]
        text = _flat_text(block, depth + 1)
        if text is not None:
            yield ("," if start else "") + pad + text
            continue
        for k, v in enumerate(block, start):
            yield ("," if k else "") + pad
            yield from _json_chunks(v, depth + 1)
    yield "\n" + "  " * depth + "]"


def _flat_text(items, depth: int) -> Optional[str]:
    """The text of items at nesting depth, joined as the items of a list; None if they are not flat.

    Flat items are all non-empty dicts, or all non-empty lists or tuples,
    and hold no container.  Their floats are rounded as _round12 rounds
    them, and one _flat_encoder call encodes them as a list at the items'
    own depth.  Its one item separator (comma, newline and the indent of
    the items' entries) then stands between the entries of an item and
    between items alike.  Between items it is followed by an opening
    bracket, and within an item by a key or a scalar; json writes no raw
    newline inside a string, so that sequence marks the item boundaries
    alone, and a string replacement re-indents them.
    """
    dicts = isinstance(items[0], dict)
    if not all(isinstance(item, dict if dicts else (list, tuple)) and item for item in items):
        return None
    values = [item.values() for item in items] if dicts else items
    if any(issubclass(t, _CONTAINERS) for t in {type(v) for vs in values for v in vs}):
        return None
    # _round12 inline: a call per value would cost as much as the encoding
    if dicts:
        rounded = [{k: float(f"{v:.12g}") if isinstance(v, float) else v for k, v in item.items()}
                   for item in items]
    else:
        rounded = [[float(f"{v:.12g}") if isinstance(v, float) else v for v in item] for item in items]
    opening, closing = "{}" if dicts else "[]"
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    body = _flat_encoder(depth).encode(rounded)[2:-2]
    body = body.replace(closing + "," + inner + opening, outer + closing + "," + outer + opening + inner)
    return opening + inner + body + outer + closing


def _emit(document: dict, rows: Optional[list], out: Optional[str], fmt: str) -> None:
    if out is None:
        return
    if fmt == "json":
        # written piece by piece, so the document's text is never held whole
        chunks = itertools.chain(_json_chunks(document), ["\n"])
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else f"{v:.12g}" if isinstance(v, float) else v) for k, v in row.items()})
        chunks = [buf.getvalue()]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _print_table(rows: list) -> None:
    """rows as a table of right-aligned 16-character columns, one print call per _BLOCK rows."""
    if not rows:
        return
    keys = list(rows[0].keys())
    lines = ["  ".join(f"{k:>16s}" for k in keys)]
    for start in range(0, len(rows), _BLOCK):
        for row in rows[start : start + _BLOCK]:
            cells = [row[k] for k in keys]
            lines.append("  ".join([
                f"{v:>16.10g}" if isinstance(v, float) else f"{'':>16s}" if v is None else f"{str(v):>16s}"
                for v in cells
            ]))
        print("\n".join(lines))
        lines = []


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
    r_samples lists of number pairs.  A file over _MAX_FILE_BYTES is refused
    before it is parsed; no more than that is read, from a pipe too.
    """
    with open(path, "rb") as fh:
        data = fh.read(_MAX_FILE_BYTES + 1)
    if len(data) > _MAX_FILE_BYTES:
        raise ValueError(f"domain file {path} is larger than {_MAX_FILE_BYTES} bytes")
    doc = json.loads(
        data.decode("utf-8"), parse_float=_finite, parse_int=_finite, parse_constant=_non_finite
    )
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
    return [parse_angle(args.beta)] if args.beta is not None else _parse_sweep(args.sweep)


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
    if est.lam < _ANCONA:
        raise rayleigh.NumericalError(
            f"lambda_min = {est.lam:.6g} at n={args.n} lies below Ancona's 1/16 for simply "
            f"connected domains: the {grid.kind} grid does not resolve the domain"
        )
    doc = {
        "command": "validate",
        "input": _domain_to_dict(domain),
        "n": args.n,
        "grid": grid.kind,
        "radius": grid.radius,
        "estimate": est.to_dict(),
    }
    patch = ""
    if isinstance(domain, OneReflexPolygon):
        # the sector patch at the widest reflex corner (null on a polygon
        # without one), and the part whose pencil gives lambda
        doc["attained_by"] = est.attained_by
        doc["patch"] = None
        if grid.patch is not None:
            doc["patch"] = {"vertex": list(grid.patch.vertex), "beta": grid.patch.beta / PI}
            patch = (f" and a {grid.patch.beta / PI:.6g}pi sector patch at {grid.patch.vertex},"
                     f" lambda on the {doc['attained_by']}")
            if est.attained_by == "patch":
                patch += f" of {grid.patch.pencil.interior_count} unknowns"
    print(
        f"lambda_min = {est.lam:.6g}  (residual bound {doc['estimate']['residual_bound']:.3g}, n={args.n}, "
        f"{grid.kind} grid{patch}, h={est.h:.4g}, {est.iterations} solves, {grid.interior_count} "
        f"nodes, {grid.dropped} dropped)"
    )
    _emit(doc, None, args.output, "json")
    return 0


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command's alone when it names one.

    main builds only the subcommand its arguments name: building all five
    took 1.3 ms of the 10 ms a 120-row gamma-star command works (x86-64,
    Python 3.11, fresh processes).  Usage, help and errors that list the
    subcommands come from the whole parser.
    """
    parser = argparse.ArgumentParser(
        prog="hardyconst",
        description="Hardy constants of non-convex planar sectors and domains built from them.",
    )
    names = ("cbeta", "betacr", "gamma-star", "certify", "validate")
    # with one subcommand built, the usage still names them all
    metavar = "{" + ",".join(names) + "}" if command in names else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def subcommand(name, func, help_text):
        """The parser of subcommand name, or None when another subcommand's alone is built."""
        if command in names and command != name:
            return None
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def common(p):
        p.add_argument("--output", "-o", default=None, help="write a document to this path")

    def tabular(p):
        common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    if p := subcommand("cbeta", _cmd_cbeta, "Hardy constant of a sector"):
        p.add_argument("--beta", default=None, help="opening angle, e.g. 1.5pi")
        p.add_argument("--sweep", default=None, help="start:stop:count, e.g. pi:2pi:101")
        p.add_argument("--check", action="store_true", help="cross-check each row with the shooting solver")
        tabular(p)

    if p := subcommand("betacr", _cmd_betacr, "critical opening angle"):
        tabular(p)

    if p := subcommand("gamma-star", _cmd_gamma_star, "critical adjacent-angle table"):
        p.add_argument("--beta", default=None)
        p.add_argument("--sweep", default=None)
        tabular(p)

    if p := subcommand("certify", _cmd_certify, "certify a domain description file"):
        p.add_argument("file")
        common(p)

    if p := subcommand("validate", _cmd_validate, "variational grid estimate for a domain file"):
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
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
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
