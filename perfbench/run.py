"""The repository's benchmark: four workloads over the simulator and the
live service plane.

    python3 perfbench/run.py --workload sim_month --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics instead.
``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for what
each workload and metric is for.
"""

import argparse
import json
import os
import sys
import traceback

from common import ROOT, SRC, WORK, Result, context, pin

WORKLOADS = ("sim_month", "sim_pool", "live_steady", "live_backlog")


def run_one(workload, seed, seconds, trace):
    if workload.startswith("sim_"):
        import simbench as bench
    else:
        import livebench as bench
    result = Result()
    try:
        bench.run(workload, seed, seconds, trace, result)
    except Exception:   # report the failure in the result line
        result.attempted = max(result.attempted, 1)
        result.failed = max(result.failed, 1)
        result.check(False, traceback.format_exc())
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {os.path.relpath(SRC, ROOT)}/"
              "repro; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # Keep every temporary file, sqlite's included, inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = tmp
    pin(0, 1)          # measured children get the other CPU
    info = context()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_one(workload, args.seed, args.seconds,
                                    bool(args.trace))
        results[workload].emit(workload, info)
    if len(workloads) > 1:
        print(json.dumps({
            "correct": all(r.correct for r in results.values()),
            "attempted": sum(r.attempted for r in results.values()),
            "failed": sum(r.failed for r in results.values()),
            "metrics": {f"{w}/{name}": metric
                        for w, r in results.items()
                        for name, metric in r.metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
