"""The live service plane in one child process: a coordinator daemon
and its station agents, on one job database.

Run by ``livebench.py``::

    python3 perfbench/live_child.py --db FILE --ckpt DIR --agents 4 \
        [--trace FILE]

Protocol on the standard streams, one line each:

* the child prints ``READY <port>`` once the daemon serves and every
  agent has registered;
* ``go`` on stdin opens the measured window (CPU time and counters are
  taken from here);
* ``stop`` closes it: the child stops the agents and the daemon, prints
  one JSON line (window CPU seconds, peak RSS, counters) and exits.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

#: Heartbeat interval of every agent (seconds).
HEARTBEAT_S = 0.05
#: Seconds the child waits for its agents to register.
READY_TIMEOUT_S = 60.0


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--agents", type=int, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    import live_trace
    from tracer import Tracer

    tracer = Tracer(cpu=True)
    if args.trace:
        live_trace.install_service(tracer)
    else:
        live_trace.count_heartbeats(tracer.counts)

    from repro.service import protocol
    from repro.service.agent import StationAgent
    from repro.service.daemon import CoordinatorDaemon

    daemon = CoordinatorDaemon(args.db)
    endpoint = daemon.start()
    agents = [StationAgent(f"station-{i:02d}", [endpoint], args.ckpt,
                           heartbeat_interval=HEARTBEAT_S, seed=i + 1)
              for i in range(args.agents)]
    try:
        for agent in agents:
            agent.start()
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            reply = protocol.request(endpoint, {"op": "q", "limit": 1})
            if len(reply.get("agents", ())) == args.agents:
                break
            if time.monotonic() > deadline:
                raise SystemExit("agents did not register in time")
            time.sleep(0.002)
        print(f"READY {endpoint[1]}", flush=True)

        if sys.stdin.readline().strip() != "go":
            return 1
        since = time.perf_counter()
        cpu0 = _cpu_s()
        counts0 = dict(tracer.counts)
        if sys.stdin.readline().strip() != "stop":
            return 1
        cpu = _cpu_s() - cpu0
        counts = {key: value - counts0.get(key, 0)
                  for key, value in tracer.counts.items()}
    finally:
        for agent in agents:
            agent.stop()
        daemon.stop()
    if args.trace:
        tracer.dump(args.trace)
    print(json.dumps({
        "since": since, "cpu_s": cpu, "counts": counts,
        "rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
