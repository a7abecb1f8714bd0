"""The simulator workloads, ``sim_month`` and ``sim_pool``.

Each experiment runs in its own fresh interpreter (``sim_child.py``), one
at a time, until the run's time is spent.  The first experiment of every
run uses the default seed and must reproduce ``reference.json`` exactly;
the others use seeds drawn from the run's ``--seed``.
"""

import json
import os
import random
import subprocess
import sys
import time

from statistics import median

from common import (HERE, ROOT, WORK, measured_cpu_speed, normalized,
                    pin)
from record_reference import DEFAULT_SEED, REFERENCE
from summarize import layer_metrics

#: Set-up-only launches before the measured experiments.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0


def _launch(workload, seed, setup_only=False, trace=None):
    """Run one child; ``(setup_s, output dict)`` or raise RuntimeError."""
    argv = [sys.executable, os.path.join(HERE, "sim_child.py"),
            "--workload", workload, "--seed", str(seed)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace", trace]
    launched = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        pin(proc.pid, 0)
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {stderr[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    return out["built_at"] - launched, out


def _sane(stats):
    return (stats["events_dispatched"] > 0 and stats["cycles"] > 0
            and stats["jobs_completed"] > 0)


def run(workload, seed, seconds, trace, result):
    rng = random.Random(seed)
    with open(REFERENCE) as f:
        reference = json.load(f)[workload]
    setups, executes = [], []

    def attempt(exp_seed, **kwargs):
        result.attempted += 1
        try:
            setup, out = _launch(workload, exp_seed, **kwargs)
        except (RuntimeError, subprocess.TimeoutExpired,
                ValueError) as exc:
            result.failed += 1
            result.check(False, str(exc))
            return None
        setups.append(setup)
        return out

    for _ in range(0 if trace else SETUP_PROBES):
        attempt(rng.randrange(1, 2 ** 31), setup_only=True)

    start = time.monotonic()
    speed = measured_cpu_speed()
    exp_seed = DEFAULT_SEED
    for count in range(1, 1000):
        out = attempt(exp_seed)
        speed_after = measured_cpu_speed()
        if out is not None:
            out["seed"] = exp_seed
            out["speed"] = (speed + speed_after) / 2.0
            executes.append(out)
            stats = out["stats"]
            good = result.check(_sane(stats), f"seed {exp_seed}: "
                                f"implausible statistics {stats}")
            if exp_seed == DEFAULT_SEED:
                good = result.check(
                    stats == reference, f"seed {exp_seed}: simulated "
                    f"statistics differ from reference.json: {stats}") and good
            if not good:
                result.failed += 1
        speed = speed_after
        exp_seed = rng.randrange(1, 2 ** 31)
        if count >= 2 and (trace or time.monotonic() - start >= seconds):
            break

    if trace:
        if len(executes) == 2:
            _traced(workload, executes[-1], result)
        return
    if not executes:
        return
    host_speed = median([e["speed"] for e in executes])
    result.add("setup_s", normalized(median(setups), host_speed, False), "s",
               samples=len(setups))
    rates = {
        "station_cycles_per_s": [e["station_cycles"] / e["exec_s"]
                                 for e in executes],
        "jobs_per_s": [e["stats"]["jobs_completed"] / e["exec_s"]
                       for e in executes],
    }
    for name, raw in rates.items():
        result.add(name, median([normalized(value, e["speed"], True)
                                 for value, e in zip(raw, executes)]),
                   "1/s", samples=len(executes))
    cpu_ms = [e["exec_cpu_s"] * 1000.0 / e["stats"]["jobs_completed"]
              for e in executes]
    result.add("cpu_ms_per_job",
               median([normalized(value, e["speed"], False)
                       for value, e in zip(cpu_ms, executes)]),
               "ms", samples=len(executes))
    result.add("peak_rss_mib", median([e["rss_mib"] for e in executes]),
               "MiB", samples=len(executes))
    result.add("ops_ok_frac",
               (result.attempted - result.failed) / result.attempted,
               "ratio", samples=result.attempted)
    result.note("setup_s.raw", median(setups), "s")
    for name, raw in rates.items():
        result.note(f"{name}.raw", median(raw), "1/s")
    result.note("cpu_ms_per_job.raw", median(cpu_ms), "ms")
    result.note("host_speed_ops_per_s", host_speed, "1/s")


def _traced(workload, untraced, result):
    """Trace the seed of ``untraced`` and compare the two experiments."""
    seed = untraced["seed"]
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{workload}.spans")
    result.attempted += 1
    try:
        _setup, traced = _launch(workload, seed, trace=path)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        result.failed += 1
        result.check(False, str(exc))
        return
    result.check(traced["stats"] == untraced["stats"],
                 f"seed {seed}: traced simulated statistics differ from "
                 f"untraced: {traced['stats']} vs {untraced['stats']}")
    summary = {"spans": [path], "counts": traced["counts"],
               "traced_s": traced["exec_s"], "untraced_s": untraced["exec_s"]}
    metrics, _totals = layer_metrics(summary)
    for name, (value, unit) in metrics.items():
        result.add(name, value, unit)
    with open(path[:-len(".spans")] + ".json", "w") as f:
        json.dump(summary, f, indent=1)
