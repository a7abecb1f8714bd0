"""Per-layer numbers of a traced run, and the trace summarizer.

A traced run leaves ``.bench_work/trace-<workload>.json`` beside its
span files.  Print its self time per layer with::

    python3 perfbench/summarize.py .bench_work/trace-sim_month.json

``unattributed_s`` is the traced busy time minus the sum of every
layer's self time: work no span covers.  ``trace_overhead_s`` is the
traced busy time minus the untraced one.  On the simulator busy time is
the host time of ``execute()``.  On the live plane it is the CPU time of
the service child process over the measured window, and the layers'
self times are then summed in thread CPU time too, because their wall
self times include waiting (the lock, fsync, the interpreter lock) and
several threads wait at once.  The live window has a fixed length, so
there the untraced busy time is the untraced run's CPU per durable
completion times the traced run's completions.
"""

import json
import sys

from tracer import layer_totals, load

#: Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("sim.kernel.events", "count"),
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.us_per_event", "us"),
    ("core.coordinator.cycles", "count"),
    ("core.coordinator.self_s", "s"),
    ("core.coordinator.grants", "count"),
    ("core.coordinator.preemptions", "count"),
    ("core.updown.calls", "count"),
    ("core.updown.self_s", "s"),
    ("core.cluster_view.applies", "count"),
    ("core.cluster_view.self_s", "s"),
    ("core.local_scheduler.self_s", "s"),
    ("core.federation.self_s", "s"),
    ("core.federation.leases", "count"),
    ("machine.owner.self_s", "s"),
    ("net.network.messages", "count"),
    ("net.network.dropped", "count"),
    ("net.network.self_s", "s"),
    ("net.network.transfer_mb", "MB"),
    ("net.reliable.sends", "count"),
    ("net.reliable.retries", "count"),
    ("machine.accounting.self_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.self_s", "s"),
    ("metrics.self_s", "s"),
    ("remote_unix.checkpoint.stores", "count"),
    ("remote_unix.checkpoint.self_s", "s"),
    ("workload.generator.self_s", "s"),
    ("service.protocol.frames", "count"),
    ("service.protocol.bytes", "bytes"),
    ("service.protocol.self_s", "s"),
    ("service.client.requests", "count"),
    ("service.client.connect_s", "s"),
    ("service.daemon.requests", "count"),
    ("service.daemon.dispatch_self_s", "s"),
    ("service.daemon.place_cycles", "count"),
    ("service.daemon.empty_cycle_frac", "ratio"),
    ("service.daemon.placements_per_cycle", "count"),
    ("service.jobdb.queue_calls", "count"),
    ("service.jobdb.queue_s", "s"),
    ("service.jobdb.queue_rows_per_placement", "count"),
    ("service.jobdb.lock_wait_s", "s"),
    ("service.jobdb.txns", "count"),
    ("service.jobdb.txn_self_s", "s"),
    ("service.jobdb.txn_self_s.submit", "s"),
    ("service.jobdb.txn_self_s.place", "s"),
    ("service.jobdb.txn_self_s.running", "s"),
    ("service.jobdb.txn_self_s.checkpoint", "s"),
    ("service.jobdb.txn_self_s.complete", "s"),
    ("service.agent.heartbeats", "count"),
    ("service.agent.heartbeats_per_job", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)

#: The jobdb transitions timed one by one (each is one transaction).
TXN_KINDS = ("submit", "place", "running", "checkpoint", "complete",
             "fail", "vacate", "stop", "bump_epoch", "register_agent",
             "save_owner_indices", "count_stale_result",
             "count_stale_epoch", "count_agent_expiry")


def totals_of(paths, since=None):
    """Merged ``{span name: [spans, total_s, self_s, self_cpu_s]}``."""
    merged = {}
    for path in paths:
        names, _counts, buffers = load(path)
        for name, row in layer_totals(names, buffers, since).items():
            _add(merged, name, row)
    return merged


def _add(totals, name, row):
    into = totals.setdefault(name, [0, 0.0, 0.0, 0.0])
    for i, value in enumerate(row):
        into[i] += value


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary):
    """Every :data:`PER_LAYER` metric as ``{name: (value, unit)}``.

    ``summary`` holds ``spans`` (span files of the measured process),
    ``counts`` (program and wrapper counters), ``traced_s``/``untraced_s``
    (busy time of the traced and the untraced run) and, on the live
    plane, ``client_spans`` (the load generator's span file), ``since``
    (window start; earlier spans are dropped), ``late_p99_ms`` and
    ``jobs_done``.  A layer that did not run reads 0.
    Returns the metrics and the merged span totals.
    """
    since = summary.get("since")
    measured = totals_of(summary["spans"], since)
    totals = totals_of(summary.get("client_spans", ()), since)
    attributed = 0.0
    for name, row in measured.items():
        attributed += row[3]
        _add(totals, name, row)
    counts = summary["counts"]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0, 0.0))[2]

    def spans(name):
        return totals.get(name, (0, 0.0, 0.0, 0.0))[0]

    events = counts.get("sim.kernel.events", 0)
    cycles = counts.get("service.jobdb.queue_calls", 0)
    placements = counts.get("service.jobdb.placements", 0)
    txn_names = [f"service.jobdb.{kind}" for kind in TXN_KINDS]
    values = {
        "sim.kernel.self_s": own("sim.kernel"),
        "sim.kernel.us_per_event": _ratio(own("sim.kernel") * 1e6, events),
        "service.protocol.self_s": (own("service.protocol.send")
                                    + own("service.protocol.recv")),
        "service.client.connect_s": totals.get(
            "service.client.connect", (0, 0.0, 0.0, 0.0))[1],
        "service.daemon.requests": spans("service.daemon.dispatch"),
        "service.daemon.dispatch_self_s": own("service.daemon.dispatch"),
        "service.daemon.place_cycles": cycles,
        "service.daemon.empty_cycle_frac": _ratio(
            counts.get("service.daemon.empty_cycles", 0), cycles),
        "service.daemon.placements_per_cycle": _ratio(placements, cycles),
        "service.jobdb.queue_s": totals.get(
            "service.jobdb.queue", (0, 0.0, 0.0, 0.0))[1],
        "service.jobdb.queue_rows_per_placement": _ratio(
            counts.get("service.jobdb.queue_rows", 0), placements),
        "service.jobdb.lock_wait_s": own("service.jobdb.lock_wait"),
        "service.jobdb.txns": sum(spans(name) for name in txn_names),
        "service.jobdb.txn_self_s": sum(own(name) for name in txn_names),
        "service.agent.heartbeats_per_job": _ratio(
            counts.get("service.agent.heartbeats", 0),
            summary.get("jobs_done", 0)),
        "loadgen.late_p99_ms": summary.get("late_p99_ms", 0.0),
        "unattributed_s": summary["traced_s"] - attributed,
        "trace_overhead_s": summary["traced_s"] - summary["untraced_s"],
    }
    for kind in ("submit", "place", "running", "checkpoint", "complete"):
        values[f"service.jobdb.txn_self_s.{kind}"] = own(
            f"service.jobdb.{kind}")
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = own(name[:-len(".self_s")])
        else:
            value = counts.get(name, 0)
        out[name] = (value, unit)
    return out, totals


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv:
        with open(path) as f:
            summary = json.load(f)
        metrics, totals = layer_metrics(summary)
        print(f"# {path}")
        print(f"{'layer':<36} {'spans':>9} {'total_s':>9} {'self_s':>9} "
              f"{'self_cpu_s':>10}")
        for name, (n, total, own, cpu) in sorted(
                totals.items(), key=lambda item: -item[1][2]):
            print(f"{name:<36} {n:>9} {total:>9.4f} {own:>9.4f} "
                  f"{cpu:>10.4f}")
        for name in ("unattributed_s", "trace_overhead_s"):
            print(f"{name:<36} {'':>9} {'':>9} {metrics[name][0]:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
