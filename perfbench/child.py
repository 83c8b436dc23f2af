"""Run one benchmark operation in a fresh interpreter and report it as JSON.

Usage: python3 child.py '<operation spec as JSON>'

The spec holds "src" (the directory `hardyconst` must be imported from),
"kind" ("cli" for hardyconst.cli.main(argv), "forms" for
boundary_form_samples calls), the arguments, and optionally "trace" (a
path for the span dump).  The report, printed as the last line of
standard output, carries the import time, the in-process work time, the
error of a failed command and, when traced, span labels and counters.
The process exits with the command's exit code.

Times are CPU seconds at reference speed.  The CPU speed of a shared
host drifts by a fifth and more within seconds, code of every kind on one
CPU slows much alike, and each virtual CPU drifts on its own.  So while the
child imports and while it works, a profiling timer interrupts it every
SAMPLE_EVERY_S of CPU time to run and time one fixed pure-Python
reference unit in the same process.  The CPU time of the stretch, less
that of the units, is scaled by REF_UNIT_NOMINAL_S over the mean unit
time: the seconds it would have taken at the speed at which a unit takes
REF_UNIT_NOMINAL_S.  A change to hardyconst moves the scaled time; a
change in machine speed moves the units and the work alike and cancels.
The raw CPU and wall times are reported as well.
"""

import contextlib
import io
import json
import math
import os
import resource
import signal
import sys
import time

SAMPLE_EVERY_S = 0.05  # CPU seconds between reference units, so the units cost about 4%
REF_UNIT_ITERATIONS = 6000
REF_UNIT_NOMINAL_S = 0.0018  # typical CPU time of one unit on the machine in README.md
MIN_UNITS = 3  # a stretch too short for the timer gets this many units right after it


def cpu_s() -> float:
    """CPU seconds of this process, its threads and its reaped children.

    Unlike the wall clock, this leaves out time the process waited for a
    CPU, including time the host took the virtual CPU away (steal).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_unit() -> float:
    """One unit of fixed pure-Python float work, the speed reference."""
    acc = 0.0
    for k in range(REF_UNIT_ITERATIONS):
        x = 1.0 + (k % 97) * 0.01
        acc += math.lgamma(x) * math.sin(x) / (1.0 + x * x)
    return acc


class SampledClock:
    """Times one stretch of code at reference speed (see the module docstring)."""

    def __init__(self):
        self.units = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None):
        # While a profiling timer is armed the process CPU clock only advances
        # at scheduler ticks; the thread clock stays exact.
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_unit()
        self.units.append((time.thread_time() - c0, time.perf_counter() - t0))

    def __enter__(self):
        self.units = []
        self.c0, self.t0 = cpu_s(), time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        self.cpu_s = cpu_s() - self.c0 - sum(c for c, _ in self.units)
        self.wall_s = time.perf_counter() - self.t0 - sum(w for _, w in self.units)
        self.sampled = len(self.units)
        while len(self.units) < MIN_UNITS:
            self._sample()
        self.unit_s = sum(c for c, _ in self.units) / len(self.units)
        self.scaled_s = self.cpu_s * REF_UNIT_NOMINAL_S / self.unit_s
        return False

    def report(self, name: str) -> dict:
        return {f"{name}_s": self.scaled_s, f"{name}_cpu_s": self.cpu_s,
                f"{name}_wall_s": self.wall_s, f"{name}_ref_unit_s": self.unit_s,
                f"{name}_ref_units": self.sampled}


def _run(spec, hardyconst):
    if spec["kind"] == "cli":
        return hardyconst.cli.main(spec["argv"])
    samples = [
        hardyconst.boundary_form_samples(f["form"], f["beta"], f["gamma"], f["theta"])
        for f in spec["forms"]
    ]
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    clock = SampledClock()
    with clock:
        import hardyconst
        import hardyconst.cli
    report = {**clock.report("setup"), "work_s": 0.0, "error": None}
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(hardyconst.__file__).startswith(src + os.sep):
        report["error"] = f"hardyconst imported from {hardyconst.__file__}, not {src}"
        print(json.dumps(report))
        return 1

    recorder = originals = None
    if spec.get("trace"):
        from spans import Recorder

        recorder = Recorder()
        originals = recorder.patch(hardyconst)

    captured = io.StringIO()
    try:
        with clock, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = _run(spec, hardyconst)
    except Exception as exc:  # the operation failed; report it, do not crash
        rc = 1
        report["error"] = f"{type(exc).__name__}: {exc}"
    report.update(clock.report("work"))
    if rc != 0 and report["error"] is None:
        report["error"] = captured.getvalue().strip()[-500:]

    if recorder is not None:
        recorder.dump(spec["trace"])
        info = originals["hardycore.solve_c_beta"].cache_info()
        report["trace"] = {
            "labels": recorder.labels,
            "spans": len(recorder.starts),
            "counters": dict(recorder.counters),
            "cache_hits": info.hits,
            "cache_misses": info.misses,
        }
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
