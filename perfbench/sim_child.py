"""One simulator experiment in a fresh interpreter.

Run by ``simbench.py``; prints one JSON line on stdout::

    python3 perfbench/sim_child.py --workload sim_month --seed 42 \
        [--setup-only] [--trace FILE]

``built_at`` is ``time.monotonic()`` (system-wide on Linux) just after
the :class:`ExperimentRun` is built, so the parent, which noted the same
clock before it launched this process, gets set-up time from a fresh
interpreter.  ``exec_s`` and ``exec_cpu_s`` are the wall and CPU time of
``execute()``.
"""

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
sys.path.insert(0, SRC)

#: workload -> ExperimentRun keyword arguments (besides the seed).
WORKLOADS = {
    # The paper's 23-station cluster, one month, Table-1 users.
    "sim_month": {},
    # 5,000 stations in four federated pools for one day, 0.1x jobs.
    "sim_pool": {"days": 1, "stations": 5000, "pools": 4,
                 "job_scale": 0.1},
}


def simulated_stats(run):
    """The simulated statistics a speed-only change may not move."""
    from repro.analysis.validation import headline_metrics

    coordinators = run.system.coordinators
    return {
        "headline": {key: repr(value) for key, value
                     in sorted(headline_metrics(run).items())},
        "events_dispatched": run.sim.events_dispatched,
        "cycles": sum(c.cycles for c in coordinators),
        "grants": sum(c.grants_issued for c in coordinators),
        "preemptions": sum(c.preemptions_ordered for c in coordinators),
        "jobs_completed": len(run.completed_jobs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None,
                        help="record spans and write them to this file")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from sim_trace import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)

    from repro.analysis.experiment import ExperimentRun

    run = ExperimentRun(seed=args.seed, **WORKLOADS[args.workload])
    built_at = time.monotonic()
    out = {"built_at": built_at}
    if not args.setup_only:
        t0, cpu0 = time.perf_counter(), time.process_time()
        run.execute()
        out["exec_s"] = time.perf_counter() - t0
        out["exec_cpu_s"] = time.process_time() - cpu0
        out["rss_mib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["station_cycles"] = sum(
            len(c.station_names) * c.cycles
            for c in run.system.coordinators)
        out["stats"] = simulated_stats(run)
        if tracer is not None:
            from sim_trace import program_counters

            out["counts"] = program_counters(run, tracer)
            tracer.dump(args.trace)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
