"""Span hooks for a traced simulator run, installed from outside.

:func:`install` replaces a handful of public methods on the simulator's
classes with wrappers that record spans, so no program file changes:

* ``Simulation.run`` is the root span, ``sim.kernel``;
* every callback passed to ``Simulation.schedule``/``schedule_at`` runs
  inside a span named for the layer whose code owns it.  Processes
  started with ``Simulation.spawn`` resume through ``schedule``, so a
  process step is named for the module of its generator;
* ``Node.handle`` (message delivery) opens a span named for the layer
  of the handler it calls;
* child spans wrap the public entry points of ``net.network``,
  ``net.reliable``, ``core.updown``, ``core.cluster_view``,
  ``machine.accounting``, ``telemetry`` and ``remote_unix.checkpoint``.

Install it in a fresh process before the experiment is built: bound
methods captured at construction then already point at the wrappers.
"""

import functools
import os

from repro.core.cluster_view import ClusterView
from repro.core.updown import UpDownPolicy
from repro.machine.accounting import CpuLedger
from repro.net.network import Network, Node
from repro.net.reliable import ReliableSender
from repro.remote_unix.checkpoint import CheckpointStore
from repro.sim.kernel import Simulation
from repro.sim.process import Process
from repro.telemetry.events import TelemetryHub

_SRC_MARK = os.sep + "repro" + os.sep

#: module (below ``repro.``) -> layer, for modules folded into one layer.
_PREFIX_LAYERS = (
    ("sim.", "sim.kernel"),
    ("telemetry.", "telemetry"),
    ("metrics.", "metrics"),
    ("workload.", "workload.generator"),
)


def layer_of_module(module):
    """The layer a ``repro`` module's code belongs to."""
    if module.startswith("repro."):
        module = module[len("repro."):]
    else:
        return "other"
    for prefix, layer in _PREFIX_LAYERS:
        if module.startswith(prefix):
            return layer
    return module


def _module_of_file(path):
    cut = path.rfind(_SRC_MARK)
    if cut < 0:
        return "other"
    rel = path[cut + 1:]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace(os.sep, ".")


class _Namer:
    """callback -> interned span name id, cached by code object."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._by_code = {}

    def __call__(self, callback):
        owner = getattr(callback, "__self__", None)
        if type(owner) is Process:
            key = owner._gen.gi_code
        else:
            func = getattr(callback, "__func__", callback)
            if isinstance(func, functools.partial):
                func = func.func
            key = getattr(func, "__code__", None)
            if key is None:
                key = type(owner) if owner is not None else type(func)
        nid = self._by_code.get(key)
        if nid is None:
            if hasattr(key, "co_filename"):
                layer = layer_of_module(_module_of_file(key.co_filename))
            else:
                layer = layer_of_module(getattr(key, "__module__", ""))
            nid = self._by_code[key] = self.tracer.name_id(layer)
        return nid


#: (class, public methods, layer, call counter or None)
_CHILD_SPANS = (
    (Network, ("message", "rpc", "rpc_batch", "transfer"),
     "net.network", None),
    (ReliableSender, ("send",), "net.reliable", "net.reliable.sends"),
    (UpDownPolicy, ("update", "rank_requesters", "choose_preemption_victim",
                    "aggregate_pressure"), "core.updown", "core.updown.calls"),
    (ClusterView, ("apply",), "core.cluster_view",
     "core.cluster_view.applies"),
    (CpuLedger, ("start", "stop", "charge", "add_load", "close_all"),
     "machine.accounting", None),
    (TelemetryHub, ("emit",), "telemetry", None),
    (CheckpointStore, ("store",), "remote_unix.checkpoint",
     "remote_unix.checkpoint.stores"),
    (CheckpointStore, ("fetch", "fetch_verified", "discard"),
     "remote_unix.checkpoint", None),
)


def install(tracer):
    """Patch the simulator's classes to record spans into ``tracer``."""
    namer = _Namer(tracer)
    begin, end = tracer.begin, tracer.end

    def spanned_callback(callback):
        nid = namer(callback)

        def fire(*args):
            index = begin(nid)
            try:
                callback(*args)
            finally:
                end(index)
        return fire

    schedule = Simulation.schedule
    schedule_at = Simulation.schedule_at

    def traced_schedule(self, delay, callback, *args, locus=None):
        return schedule(self, delay, spanned_callback(callback), *args,
                        locus=locus)

    def traced_schedule_at(self, time, callback, *args, locus=None):
        return schedule_at(self, time, spanned_callback(callback), *args,
                           locus=locus)

    Simulation.schedule = traced_schedule
    Simulation.schedule_at = traced_schedule_at
    Simulation.run = tracer.spanned(Simulation.run, "sim.kernel")

    handle = Node.handle
    net_nid = tracer.name_id("net.network")

    def traced_handle(self, op, payload):
        handler = self._handlers.get(op)
        index = begin(namer(handler) if handler is not None else net_nid)
        try:
            return handle(self, op, payload)
        finally:
            end(index)

    Node.handle = traced_handle
    for cls, methods, layer, counter in _CHILD_SPANS:
        for name in methods:
            setattr(cls, name,
                    tracer.spanned(getattr(cls, name), layer, counter))


def program_counters(run, tracer):
    """Counts from the counters the program already keeps, plus the
    call counts the wrappers made."""
    hub = run.telemetry
    network = run.system.network
    coordinators = run.system.coordinators
    counts = dict(tracer.counts)
    counts.update({
        "sim.kernel.events": run.sim.events_dispatched,
        "core.coordinator.cycles": sum(c.cycles for c in coordinators),
        "core.coordinator.grants": sum(c.grants_issued
                                       for c in coordinators),
        "core.coordinator.preemptions": sum(c.preemptions_ordered
                                            for c in coordinators),
        "core.federation.leases": hub.counts["cross_pool_lease_granted"],
        "net.network.messages": network.messages_sent,
        "net.network.dropped": network.messages_dropped,
        "net.network.transfer_mb": network.bytes_transferred_mb,
        "net.reliable.retries": hub.counts["message_retry"],
        "telemetry.events": hub.events_emitted,
    })
    return counts
