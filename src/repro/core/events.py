"""Scheduler event names and the :class:`EventBus` publishing surface.

The event vocabulary now lives in :mod:`repro.telemetry.kinds` (shared
with the live runtime); this module re-exports the scheduler-facing
names so historical imports (``from repro.core import events as ev``)
keep working.

:class:`EventBus` is the daemons' publishing surface over the typed
:class:`~repro.telemetry.TelemetryHub`: ``publish(name, **payload)``
becomes a structured :class:`~repro.telemetry.TelemetryEvent` on the
hub, where subscribers, trace recorders and metric collectors see it.
"""

from repro.sim.errors import SimulationError
from repro.telemetry import TelemetryHub
from repro.telemetry.kinds import (  # noqa: F401  (re-exported vocabulary)
    COORDINATOR_CYCLE,
    COORDINATOR_VIEW_REPAIR,
    CROSS_POOL_LEASE_EXPIRED,
    CROSS_POOL_LEASE_GRANTED,
    CROSS_POOL_LEASE_RETURNED,
    HOST_LOST,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_KILLED,
    JOB_PERIODIC_CHECKPOINT,
    JOB_PLACED,
    JOB_PLACEMENT_FAILED,
    JOB_PREEMPTED,
    JOB_REFUSED,
    JOB_REMOVED,
    JOB_RESUMED,
    JOB_SUBMITTED,
    JOB_SUSPENDED,
    JOB_VACATED,
    POOL_ADVERT,
)
from repro.telemetry.kinds import JOB_LIFECYCLE as ALL_EVENTS  # noqa: F401


class EventBus:
    """Synchronous pub/sub keyed by event name, backed by a hub.

    ``subscribe_event(name, cb)`` delivers ``cb(event)`` with the full
    :class:`~repro.telemetry.TelemetryEvent` record.  Subscriber
    exceptions are isolated by the hub: a failing callback is recorded
    (``bus.errors``) and emitted as a ``telemetry_error`` event instead
    of aborting the simulation.
    """

    def __init__(self, hub=None):
        #: The underlying typed spine (shared with ledgers, recorders).
        self.hub = hub or TelemetryHub()

    # ------------------------------------------------------------------
    # subscription

    def subscribe_event(self, event, callback):
        """Register a typed ``callback(event)`` for ``event``."""
        self._check(event)
        self.hub.subscribe(event, callback)

    def unsubscribe(self, event, callback):
        """Remove one registration; returns success."""
        self._check(event)
        return self.hub.unsubscribe(event, callback)

    # ------------------------------------------------------------------
    # publication

    def publish(self, event, **payload):
        """Emit a typed event; returns the TelemetryEvent record."""
        self._check(event)
        source = payload.get("station") or payload.get("host") or ""
        return self.hub.emit(event, source=source, **payload)

    def _check(self, event):
        if not self.hub.known_kind(event):
            raise SimulationError(f"unknown event {event!r}")

    # ------------------------------------------------------------------
    # introspection

    @property
    def counts(self):
        """Running count per event kind (includes telemetry kinds)."""
        return self.hub.counts

    @property
    def errors(self):
        """Isolated subscriber failures, in order of occurrence."""
        return self.hub.errors

    @property
    def metrics(self):
        """The run's :class:`~repro.telemetry.MetricsRegistry`."""
        return self.hub.metrics

    def __repr__(self):
        live = {e: c for e, c in self.counts.items() if c}
        return f"<EventBus {live}>"
