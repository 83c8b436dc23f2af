"""Benchmark workloads: seeded operations and the checks on their outputs.

Each workload is a list of operations.  An operation is one `hardyconst`
command (or one library call where the command line has none) run in a
fresh interpreter by child.py; its check reads the output document and
raises CheckFailed when a number is wrong.  Checks run in the parent,
outside every timed region.

Seeded openings are stratified: a sweep of K openings over an interval
puts one opening in each of K equal sub-intervals, all at the same drawn
offset, so every seed covers the whole interval and costs about the same.
Invocations documented in the README or ROADMAP are never seeded.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

PI = math.pi
C_2PI = 0.205358222573  # slit-plane constant c(2pi) to 12 digits
SHOOT_TOL = 1e-6  # |shoot_c - c|, the gate of the repository's tests
C_2PI_TOL = 1e-11
REF_TOL = 1e-9  # closed-form constants against the reference below
FORM_TOL = 1e-9  # boundary forms inside their hypotheses are >= -FORM_TOL

SEEDED_CHECK_ROWS = 12  # shooting-checked openings per sweep-check pass
GAMMA_CHUNKS = 5  # the seeded gamma-star sweep runs as this many interleaved sweeps
GAMMA_CHUNK_ROWS = 120
FORM_POINTS = 400


class CheckFailed(Exception):
    """An output document disagrees with what the operation must produce."""


# ---------------------------------------------------------------------------
# Reference constants, independent of hardyconst: math.gamma (libm) in place
# of the package's Lanczos sum, and plain bisection in place of brentq.

def ref_beta_critical() -> float:
    return PI + 4.0 * math.atan(4.0 * (math.gamma(0.75) / math.gamma(0.25)) ** 2)


def ref_c(beta: float) -> float:
    """Hardy constant of the sector of opening beta in (pi, 2pi]."""
    if beta <= ref_beta_critical():
        return 0.25

    def mismatch(c):
        s = math.sqrt(1.0 - 4.0 * c)
        lhs = math.sqrt(c) * math.tan(math.sqrt(c) * 0.5 * (beta - PI))
        return lhs - 2.0 * (math.gamma(0.25 * (3.0 + s)) / math.gamma(0.25 * (1.0 + s))) ** 2

    lo, hi = 1e-6, 0.25  # mismatch < 0 at lo, > 0 at hi above the critical opening
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mismatch(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Operations.

@dataclass
class Op:
    """One operation: the child spec, its output check, and how it is counted.

    check(op) returns (rows, accuracy) where accuracy maps a figure name to
    its value.  `rate` is the rows_per_s sample the operation's rows and
    work time enter: within a pass, operations with the same key pool into
    one sample, and None leaves the operation out.
    """

    id: str
    spec: dict
    check: Callable
    rate: Optional[str] = "pass"
    out: Optional[str] = None
    expect: dict = field(default_factory=dict)


def _cli(op_id, argv, out, check, **kw) -> Op:
    return Op(op_id, {"kind": "cli", "argv": argv + ["-o", out]}, check, out=out, **kw)


def _angle(x: float) -> str:
    return repr(float(x))


def _linspace(a: float, b: float, n: int) -> list:
    return [a + (b - a) * k / (n - 1) for k in range(n)]


def _stratified_sweep(rng, lo: float, hi: float, count: int) -> tuple:
    """(first, last) of `count` openings, one per equal sub-interval of (lo, hi)."""
    width = (hi - lo) / count
    first = lo + (0.05 + 0.9 * rng.random()) * width
    return first, first + (count - 1) * width


# ---------------------------------------------------------------------------
# Output checks.

def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cbeta_rows(op):
    if op.out.endswith(".csv"):
        with open(op.out, encoding="utf-8", newline="") as fh:
            return [
                {k: (None if v == "" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)
            ]
    return _load_json(op.out)["rows"]


def check_cbeta(op):
    rows = _cbeta_rows(op)
    if len(rows) != op.expect["rows"]:
        raise CheckFailed(f"{len(rows)} rows, expected {op.expect['rows']}")
    gap = 0.0
    for k, row in enumerate(rows):
        beta, c = row["beta_rad"], row["c"]
        if not 0.0 < c <= 0.25:
            raise CheckFailed(f"c={c} outside (0, 1/4] at beta={beta}")
        if k and not (beta > rows[k - 1]["beta_rad"] and c <= rows[k - 1]["c"]):
            raise CheckFailed(f"c not non-increasing along the sweep at beta={beta}")
        if abs(c - ref_c(beta)) > REF_TOL:
            raise CheckFailed(f"c={c} differs from the reference {ref_c(beta)} at beta={beta}")
        if abs(beta - 2.0 * PI) < 1e-12 and abs(c - C_2PI) > C_2PI_TOL:
            raise CheckFailed(f"c(2pi)={c}, expected {C_2PI}")
        if op.expect["check"]:
            shoot = row["shoot_c"]
            if shoot is None or not abs(shoot - c) <= SHOOT_TOL:
                raise CheckFailed(f"shoot_c={shoot} against c={c} at beta={beta}")
            gap = max(gap, abs(shoot - c))
    return len(rows), ({"oracle_gap_max": gap} if op.expect["check"] else {})


def check_gamma_star(op):
    rows = _load_json(op.out)["rows"]
    if len(rows) != op.expect["rows"]:
        raise CheckFailed(f"{len(rows)} rows, expected {op.expect['rows']}")
    for k, row in enumerate(rows):
        gs, gss = row["gamma_star_rad"], row["gamma_star_star_rad"]
        if not 0.5 * PI < gs < PI:
            raise CheckFailed(f"gamma*={gs} outside (pi/2, pi) at beta={row['beta_rad']}")
        if gss is not None and gss > gs + 1e-9:
            raise CheckFailed(f"gamma**={gss} above gamma*={gs} at beta={row['beta_rad']}")
        if k and gs > rows[k - 1]["gamma_star_rad"] + 1e-9:
            raise CheckFailed(f"gamma* increases at beta={row['beta_rad']}")
    return len(rows), {}


def check_certify(op):
    report = _load_json(op.out)["report"]
    want_verdict, want_c = op.expect["verdict"], op.expect["constant"]
    if report["verdict"] != want_verdict:
        raise CheckFailed(f"verdict {report['verdict']}, expected {want_verdict}")
    got_c = report["constant"]
    if (want_c is None) != (got_c is None) or (
        want_c is not None and abs(got_c - want_c) > REF_TOL
    ):
        raise CheckFailed(f"constant {got_c}, expected {want_c}")
    return 1, {}


def check_validate(op):
    lam = _load_json(op.out)["estimate"]["lambda"]
    certified = op.expect["certified"]
    if not (isinstance(lam, float) and math.isfinite(lam) and lam >= certified):
        raise CheckFailed(f"lambda={lam} is not an upper estimate of c={certified}")
    return 1, {"lambda_excess_max": lam - certified}


def check_forms(op):
    results = _load_json(op.out)
    forms = op.spec["forms"]
    if len(results) != len(forms):
        raise CheckFailed(f"{len(results)} sample lists for {len(forms)} forms")
    for form, samples in zip(forms, results):
        kind, theta = form["form"], form["theta"]
        if len(samples) != len(theta):
            raise CheckFailed(f"{kind}: {len(samples)} samples for {len(theta)} angles")
        for (t, v), want_t in zip(samples, theta):
            if t != want_t or not math.isfinite(v):
                raise CheckFailed(f"{kind}: sample ({t}, {v}) at theta={want_t}")
            if v < -FORM_TOL:
                raise CheckFailed(f"{kind} form {v} < 0 at theta={t} inside its hypothesis")
    return sum(len(samples) for samples in results), {}


# ---------------------------------------------------------------------------
# Workloads.

def _write_domain(tmp: Path, name: str, doc: dict) -> str:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _polar_samples(beta: float, amplitude: float, n: int = 721) -> list:
    """Vee-shaped profile r = 1 + amplitude (theta - beta/2)^2, pi-unit angles."""
    return [
        [t / PI, 1.0 + amplitude * (t - 0.5 * beta) ** 2] for t in _linspace(0.0, beta, n)
    ]


def sweep_check(rng, tmp: Path) -> list:
    lo, hi = _stratified_sweep(rng, ref_beta_critical(), 2.0 * PI, SEEDED_CHECK_ROWS)
    return [
        _cli("cbeta-2pi-check", ["cbeta", "--beta", "2pi", "--check"], str(tmp / "c2pi.json"),
             check_cbeta, expect={"rows": 1, "check": True}),
        _cli("cbeta-seeded-check",
             ["cbeta", "--sweep", f"{_angle(lo)}:{_angle(hi)}:{SEEDED_CHECK_ROWS}", "--check"],
             str(tmp / "cseeded.json"), check_cbeta,
             expect={"rows": SEEDED_CHECK_ROWS, "check": True}),
        # Both documented full-range sweeps start at beta = pi, which the
        # program rejects today (exit 2); they stay so the failure shows.
        _cli("cbeta-full-csv", ["cbeta", "--sweep", "pi:2pi:101", "--format", "csv"],
             str(tmp / "c.csv"), check_cbeta, rate=None, expect={"rows": 101, "check": False}),
        _cli("cbeta-full-check", ["cbeta", "--sweep", "pi:2pi:101", "--check"],
             str(tmp / "cfull.json"), check_cbeta, expect={"rows": 101, "check": True}),
    ]


def _slitlike_vertices(sigma: float, gp: float) -> list:
    d_out = sigma + PI - gp
    a = (math.cos(sigma), math.sin(sigma))
    b = (a[0] + 1.2 * math.cos(d_out), a[1] + 1.2 * math.sin(d_out))
    cap = [(3.0 * math.cos(math.radians(d)), 3.0 * math.sin(math.radians(d)))
           for d in (60, 120, 180, 240, 300)]
    return [[0.0, 0.0], list(a), list(b)] + [list(p) for p in cap] + [[b[0], -b[1]], [a[0], -a[1]]]


def _certify_domains(rng) -> list:
    """(name, domain document, expected verdict, expected constant)."""
    u = rng.uniform
    a, b = u(0.3, 0.7), u(0.3, 0.7)
    cap_beta = u(1.2, 2.0)
    cap_hi = min(0.65, 0.5 * (3.0 - cap_beta) - 0.05)  # below gamma* >= 0.673 pi
    one_beta, one_gamma = u(1.1, 1.95), u(0.3, 0.95)
    s, d = u(1.75, 2.0), u(0.0, 0.3)  # beta + gamma - pi and |beta - gamma|, pi units
    sector_beta = u(1.1, 2.0)
    dbeta_beta = u(1.2, 2.0)
    return [
        ("lshape", {"type": "polygon",
                    "vertices": [[0, 0], [1, 0], [1, a], [b, a], [b, 1], [0, 1]]},
         "certified", 0.25),
        ("slitlike", {"type": "polygon",
                      "vertices": _slitlike_vertices(u(0.04, 0.07) * PI, u(0.85, 0.92) * PI)},
         "condition_failed", None),
        ("sector_cap", {"type": "sector_cap", "beta": cap_beta, "gamma_plus": u(0.2, cap_hi),
                        "gamma_minus": u(0.2, cap_hi), "bounded": True},
         "certified", ref_c(cap_beta * PI)),
        ("ebg_one", {"type": "ebg", "beta": one_beta, "gamma": one_gamma},
         "certified", ref_c(one_beta * PI)),
        ("ebg_two", {"type": "ebg", "beta": 0.5 * (s + 1.0 + d), "gamma": 0.5 * (s + 1.0 - d)},
         "certified", ref_c(s * PI)),
        ("sector", {"type": "sector", "beta": sector_beta}, "certified", ref_c(sector_beta * PI)),
        ("dbeta", {"type": "dbeta", "beta": dbeta_beta,
                   "r_samples": _polar_samples(dbeta_beta * PI, u(0.05, 0.5))},
         "certified", ref_c(dbeta_beta * PI)),
    ]


def _form_inputs(rng) -> list:
    """(kind, beta, gamma, theta grid) inside each form's hypothesis."""
    u = rng.uniform
    out = []
    beta, gamma = u(1.05, 2.0) * PI, u(0.0, 0.65) * PI  # gamma below min gamma*
    out.append(("line_segment", beta, gamma, _linspace(0.0, 0.5 * PI, FORM_POINTS)))
    beta = u(1.05, 2.0) * PI
    gamma = u(0.0, 0.5) * (3.0 * PI - beta)
    hi = min(beta - 0.5 * PI, 1.5 * PI - gamma)
    out.append(("parabola", beta, gamma, _linspace(0.5 * PI, hi, FORM_POINTS)))
    out.append(("two_sided", u(1.05, 2.0) * PI, u(0.5, 1.0) * PI,
                _linspace(0.0, 0.5 * PI, FORM_POINTS)))
    beta = u(1.05, 1.4) * PI
    gamma = u(0.5 * PI, min(PI, 2.0 * PI - beta) - 0.02 * PI)
    hi = 0.5 * (beta + PI - gamma) - 1e-6
    out.append(("gamma3", beta, gamma, _linspace(beta - 0.5 * PI, hi, FORM_POINTS)))
    return out


def tables(rng, tmp: Path) -> list:
    """gamma-star tables, certificates and boundary forms.

    The seeded sweep, nearly all of the work, is one stratified sweep of
    GAMMA_CHUNKS * GAMMA_CHUNK_ROWS openings run as GAMMA_CHUNKS commands:
    command j takes openings j, j + GAMMA_CHUNKS, ..., so each covers the
    whole interval at the same cost.  Each command is one rows_per_s
    sample.  The other operations, under a tenth of the work, are checked
    but left out of the rate.
    """
    total = GAMMA_CHUNKS * GAMMA_CHUNK_ROWS
    lo, _ = _stratified_sweep(rng, PI, 2.0 * PI, total)
    width = PI / total
    ops = [
        _cli("gamma-star-41", ["gamma-star", "--sweep", "pi:2pi:41"], str(tmp / "gs41.json"),
             check_gamma_star, rate=None, expect={"rows": 41}),
    ]
    for j in range(GAMMA_CHUNKS):
        first = lo + j * width
        last = first + (GAMMA_CHUNK_ROWS - 1) * GAMMA_CHUNKS * width
        ops.append(_cli(f"gamma-star-seeded-{j}",
                        ["gamma-star", "--sweep", f"{_angle(first)}:{_angle(last)}:{GAMMA_CHUNK_ROWS}"],
                        str(tmp / f"gsseeded-{j}.json"), check_gamma_star, rate=f"chunk-{j}",
                        expect={"rows": GAMMA_CHUNK_ROWS}))
    for name, doc, verdict, constant in _certify_domains(rng):
        path = _write_domain(tmp, name, doc)
        ops.append(_cli(f"certify-{name}", ["certify", path], str(tmp / f"report-{name}.json"),
                        check_certify, rate=None, expect={"verdict": verdict, "constant": constant}))
    out = str(tmp / "forms.json")
    forms = [{"form": kind, "beta": beta, "gamma": gamma, "theta": theta}
             for kind, beta, gamma, theta in _form_inputs(rng)]
    ops.append(Op("boundary-forms", {"kind": "forms", "forms": forms, "out": out},
                  check_forms, rate=None, out=out))
    return ops


def _validate_ops(tmp: Path, n: int, domains: list) -> list:
    ops = []
    for name, doc, certified in domains:
        path = _write_domain(tmp, name, doc)
        ops.append(_cli(f"validate-{name}", ["validate", path, "--n", str(n)],
                        str(tmp / f"estimate-{name}.json"), check_validate,
                        expect={"certified": certified}))
    return ops


def validate_lattice(rng, tmp: Path) -> list:
    # The ROADMAP baseline inputs, fixed: the seed draws nothing here.
    return _validate_ops(tmp, 256, [
        ("slit_disk", {"type": "sector", "beta": 2.0}, ref_c(2.0 * PI)),
        ("lshape", {"type": "polygon",
                    "vertices": [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]}, 0.25),
    ])


def validate_curved(rng, tmp: Path) -> list:
    # Fixed as well: the solve's iteration count, hence the cost, follows the geometry.
    beta = 2.0 * PI
    return _validate_ops(tmp, 128, [
        ("dbeta", {"type": "dbeta", "beta": 2.0, "r_samples": _polar_samples(beta, 0.1)},
         ref_c(beta)),
        ("ebg_two", {"type": "ebg", "beta": 1.5, "gamma": 1.5}, ref_c(2.0 * PI)),
    ])


# name -> (why, function making the operations); the order is that of BENCHMARK.json.
WORKLOADS = {
    "sweep-check": (
        "cbeta --check sweeps: shooting (odeengine.shoot_c) is over 99% of the work and rayleigh never runs",
        sweep_check,
    ),
    "tables": (
        "gamma-star tables, certify and boundary forms: thousands of scalar calls through angles, certify, hardycore and specfun; no shooting, no lattice",
        tables,
    ),
    "validate-lattice": (
        "validate at n=256 on the slit disk and the L-shape: the inverse-power solve is over 99% of the time",
        validate_lattice,
    ),
    "validate-curved": (
        "validate at n=128 on a mixed Dirichlet-Neumann polar graph and a two-halfline polygon: lattice assembly is a quarter to a third of the time",
        validate_curved,
    ),
}


def build(workload: str, seed: int, tmp: Path) -> list:
    return WORKLOADS[workload][1](random.Random(seed), tmp)
