"""Record the simulated statistics of the default seed.

The reference is the golden-trace contract of the simulator workloads:
a change that only makes the program faster may not move any of these
numbers.  It is taken from a plain ``ExperimentRun.execute()``, without
the benchmark's period clock or trace hooks, so every benchmark run at
the default seed also proves those leave the simulation untouched::

    python3 perfbench/record_reference.py    # rewrites reference.json

Re-record only for a change that means to alter simulated behaviour,
and say so in the change's description.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sim_child import WORKLOADS, simulated_stats  # noqa: E402

#: The seed the reference is recorded for.
DEFAULT_SEED = 42
REFERENCE = os.path.join(HERE, "reference.json")


def main():
    from repro.analysis.experiment import ExperimentRun

    reference = {"seed": DEFAULT_SEED}
    for workload, kwargs in sorted(WORKLOADS.items()):
        run = ExperimentRun(seed=DEFAULT_SEED, **kwargs).execute()
        reference[workload] = simulated_stats(run)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
