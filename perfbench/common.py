"""Shared helpers: percentiles, the run context and the result line."""

import json
import math
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Work files, inside the checkout (listed in .gitignore).
WORK = os.path.join(ROOT, ".bench_work")


#: The CPUs the benchmark may use, as found when it started.
CPUS = sorted(os.sched_getaffinity(0))
#: Reference-loop rate of the reference host (ops/s); the simulator's
#: CPU-bound metrics are scaled to it (see :func:`normalized`).
REFERENCE_OPS_PER_S = 1.5e7


def pin(pid, slot):
    """Pin process ``pid`` (0: this one) to CPU ``slot`` of :data:`CPUS`.

    Measured processes get slot 0 and the benchmark itself (the load
    generator) slot 1, so they never take each other's CPU.  A no-op on
    hosts with one CPU.
    """
    if len(CPUS) >= 2:
        os.sched_setaffinity(pid, {CPUS[slot]})


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def calibration_ops_per_s(seconds=0.2):
    """Rate of a fixed pure-Python reference loop on this host.

    Reported beside every result so raw numbers from different hosts are
    not compared as if they came from one.  The loop uses nothing of the
    program, so no change to the program can move it.
    """
    def loop(n):
        total = 0
        for i in range(n):
            total += i & 7
        return total

    n, elapsed = 50_000, 0.0
    while elapsed < seconds:
        n *= 2
        t0 = time.perf_counter()
        loop(n)
        elapsed = time.perf_counter() - t0
    return n / elapsed


def measured_cpu_speed():
    """Reference-loop rate on the CPU the measured processes run on."""
    pin(0, 0)
    try:
        return calibration_ops_per_s()
    finally:
        pin(0, 1)


def normalized(value, speed, per_time):
    """``value`` as it would read on the reference host.

    The host's speed drifts by a quarter or more over minutes when other
    tenants load it, and single-threaded CPU-bound figures drift with it.
    ``speed`` is the reference-loop rate measured on the same CPU right
    before and after the work; a rate (``per_time=True``) is scaled by
    ``REFERENCE_OPS_PER_S / speed``, a CPU time by its inverse.
    """
    ratio = REFERENCE_OPS_PER_S / speed
    return value * ratio if per_time else value / ratio


def context():
    return {
        "calibration_ops_per_s": round(calibration_ops_per_s()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


class Result:
    """Metrics of one run, printed as a table and then one JSON line."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, value, unit, samples=None):
        self.metrics[name] = {"value": float(value), "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def note(self, name, value, unit, samples=None):
        """A figure printed in the table only: reported, never gated."""
        self.notes[name] = {"value": float(value), "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def check(self, ok, problem):
        """Record an output check; a failed one makes the run incorrect."""
        if not ok:
            self.problems.append(problem)
        return ok

    @property
    def correct(self):
        return not self.problems and self.attempted > self.failed

    def emit(self, workload, info=None, stream=None):
        """Print the table, then the JSON result line, last."""
        stream = stream or sys.stdout
        print(f"# workload {workload}", file=stream)
        for key, value in sorted((info or {}).items()):
            print(f"# {key}: {value}", file=stream)
        for table, label in ((self.metrics, ""),
                             (self.notes, "  [not gated]")):
            for name, metric in table.items():
                samples = self.samples.get(name)
                tail = f"  (n={samples})" if samples is not None else ""
                print(f"{name:<42} {metric['value']:>16.6g} "
                      f"{metric['unit']}{tail}{label}", file=stream)
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}", file=stream)
        line = {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}
        print(json.dumps(line), file=stream)
        stream.flush()
