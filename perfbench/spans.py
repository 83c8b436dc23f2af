"""In-memory span recorder for the traced benchmark run.

The recorder wraps public layer functions of `hardyconst` from outside the
package.  Every call becomes one span (name, parent, start, end) appended
to flat arrays, so a few hundred thousand spans cost a few megabytes.
Self time of a function is the sum of its spans' durations minus the time
covered by their direct child spans.

Modules import layer functions by name (`from .hardycore import g_func`),
so patching only the defining module would miss most calls: `patch`
replaces the function at every module attribute that holds it, and tags
each wrapper with the module it is bound in.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# (defining module, function) pairs wrapped in the traced run; names are
# relative to the `hardyconst` package.
TRACED = (
    ("specfun", "gamma"),
    ("specfun", "hyp2f1"),
    ("specfun", "hyp2f1_dz"),
    ("hardycore", "beta_critical"),
    ("hardycore", "solve_c_beta"),
    ("hardycore", "potential_v"),
    ("hardycore", "f_func"),
    ("hardycore", "g_func"),
    ("odeengine", "shoot_c"),
    ("odeengine", "g_upper_bound"),
    ("angles", "gamma_star"),
    ("angles", "gamma_star_star"),
    ("certify", "certify_domain"),
    ("certify", "boundary_form_samples"),
    ("rayleigh", "build_grid"),
    ("rayleigh", "estimate_constant"),
    ("cli", "main"),
)


def _count_shoot(result, counters):
    counters["odeengine.shoot_c.steps"] += result.steps


def _count_estimate(result, counters):
    est = result[0] if isinstance(result, tuple) else result
    counters["rayleigh.estimate_constant.outer_iterations"] += est.iterations


def _count_grid(result, counters):
    counters["rayleigh.build_grid.nodes"] += result.interior_count
    counters["rayleigh.build_grid.nnz"] += result.matrix.nnz


# Counters read only from return values and their public attributes.
_RESULT_COUNTERS = {
    "odeengine.shoot_c": _count_shoot,
    "rayleigh.estimate_constant": _count_estimate,
    "rayleigh.build_grid": _count_grid,
}


class Recorder:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.labels = []  # span label id -> (function name, binding module)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name: str, site: str, fn):
        """Return fn wrapped in a span labelled `name`, bound in module `site`."""
        label = len(self.labels)
        self.labels.append((name, site))
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        count = _RESULT_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(label)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(result, counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, package) -> dict:
        """Wrap every TRACED function at every binding site in `package`.

        Returns {qualified name: original function}.  Raises LookupError if
        a traced function is missing, so a renamed layer cannot go silently
        untraced.
        """
        modules = [package] + [getattr(package, mod) for mod in sorted({m for m, _ in TRACED})]
        originals = {}
        for mod_name, fn_name in TRACED:
            home = getattr(package, mod_name)
            if not hasattr(home, fn_name):
                raise LookupError(f"{home.__name__}.{fn_name} not found")
            originals[f"{mod_name}.{fn_name}"] = getattr(home, fn_name)
        for qual, fn in originals.items():
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        site = module.__name__.rpartition(".")[2]
                        setattr(module, attr, self.wrap(qual, site, fn))
        return originals

    def dump(self, path: str) -> None:
        """Write the span arrays to `path` (native-endian, read by `load`)."""
        with open(path, "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load(path: str, count: int) -> tuple:
    """Read `count` spans written by Recorder.dump: (name_ids, parents, starts, ends)."""
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


def self_times(labels, name_ids, parents, starts, ends) -> dict:
    """Per-function calls, total time, self time and calls per binding site.

    labels[i] is the (function name, binding module) of label id i; the
    other arguments are parallel per-span sequences, parents holding the
    index of the enclosing span or -1.  Returns {function name:
    {"calls", "total_s", "self_s", "sites": {module: calls}}}.
    """
    n = len(starts)
    child_time = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_time[p] += ends[i] - starts[i]
    out = {}
    for i in range(n):
        name, site = labels[name_ids[i]]
        rec = out.get(name)
        if rec is None:
            rec = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sites": {}}
        dur = ends[i] - starts[i]
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - child_time[i]
        rec["sites"][site] = rec["sites"].get(site, 0) + 1
    return out
