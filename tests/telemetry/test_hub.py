"""Tests for the typed telemetry hub and the EventBus shim on top."""

import pytest

from repro.core import EventBus, events
from repro.sim import SimulationError
from repro.telemetry import TelemetryHub, kinds


class TestTelemetryHub:
    def test_emit_returns_typed_event(self):
        hub = TelemetryHub(clock=lambda: 123.5)
        event = hub.emit(kinds.JOB_SUBMITTED, source="ws-1", job="j")
        assert event.seq == 0
        assert event.sim_time == 123.5
        assert event.source == "ws-1"
        assert event.kind == kinds.JOB_SUBMITTED
        assert event.payload == {"job": "j"}

    def test_seq_is_contiguous_across_kinds(self):
        hub = TelemetryHub()
        seqs = [hub.emit(kind).seq for kind in
                (kinds.JOB_SUBMITTED, kinds.JOB_PLACED, kinds.HOST_LOST)]
        assert seqs == [0, 1, 2]
        assert hub.events_emitted == 3

    def test_subscribers_receive_event_objects(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe(kinds.JOB_PLACED, seen.append)
        hub.emit(kinds.JOB_PLACED, source="h", job="j")
        hub.emit(kinds.JOB_COMPLETED, source="h", job="j")  # not subscribed
        assert [e.kind for e in seen] == [kinds.JOB_PLACED]

    def test_subscribe_all_sees_everything(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe_all(seen.append)
        hub.emit(kinds.JOB_PLACED)
        hub.emit(kinds.LEDGER_ENTRY, category="owner")
        assert [e.kind for e in seen] == [kinds.JOB_PLACED,
                                          kinds.LEDGER_ENTRY]

    def test_unsubscribe_stops_delivery(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe(kinds.JOB_PLACED, seen.append)
        assert hub.unsubscribe(kinds.JOB_PLACED, seen.append)
        hub.emit(kinds.JOB_PLACED)
        assert seen == []
        assert not hub.unsubscribe(kinds.JOB_PLACED, seen.append)

    def test_unsubscribe_all_stops_delivery(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe_all(seen.append)
        assert hub.unsubscribe_all(seen.append)
        hub.emit(kinds.JOB_PLACED)
        assert seen == []

    def test_unknown_kind_rejected(self):
        hub = TelemetryHub()
        with pytest.raises(SimulationError):
            hub.emit("job_teleported")
        with pytest.raises(SimulationError):
            hub.subscribe("job_teleported", lambda e: None)

    def test_register_kind_extends_vocabulary(self):
        hub = TelemetryHub()
        hub.register_kind("custom_kind")
        hub.emit("custom_kind", answer=42)
        assert hub.counts["custom_kind"] == 1

    def test_failing_subscriber_is_isolated(self):
        hub = TelemetryHub()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        hub.subscribe(kinds.JOB_PLACED, bad)
        hub.subscribe(kinds.JOB_PLACED, seen.append)
        event = hub.emit(kinds.JOB_PLACED, job="j")
        # The later subscriber still ran; the failure was recorded as
        # both an error record and a telemetry_error event.
        assert [e.seq for e in seen] == [event.seq]
        assert len(hub.errors) == 1
        assert hub.errors[0].kind == kinds.JOB_PLACED
        assert isinstance(hub.errors[0].error, RuntimeError)
        assert hub.counts[kinds.TELEMETRY_ERROR] == 1

    def test_failing_error_subscriber_does_not_recurse(self):
        hub = TelemetryHub()

        def bad(event):
            raise RuntimeError("boom")

        hub.subscribe_all(bad)
        hub.emit(kinds.JOB_PLACED)
        # One failure for the original event, one for the telemetry_error
        # event — and no further recursion.
        assert len(hub.errors) == 2
        assert hub.counts[kinds.TELEMETRY_ERROR] == 1

    def test_error_log_is_bounded(self):
        hub = TelemetryHub()
        hub.subscribe(kinds.JOB_PLACED, lambda e: 1 / 0)
        for _ in range(hub.MAX_ERRORS + 50):
            hub.emit(kinds.JOB_PLACED)
        assert len(hub.errors) == hub.MAX_ERRORS


class TestEventBusShim:
    def test_publish_returns_typed_event(self):
        bus = EventBus()
        event = bus.publish(events.JOB_PLACED, job="j", host="h", home="m")
        assert event.kind == events.JOB_PLACED
        assert event.source == "h"
        assert event.seq == 0

    def test_unsubscribe_typed_callback(self):
        bus = EventBus()
        seen = []
        bus.subscribe_event(events.JOB_SUBMITTED, seen.append)
        assert bus.unsubscribe(events.JOB_SUBMITTED, seen.append)
        bus.publish(events.JOB_SUBMITTED, job="j", station="s")
        assert seen == []

    def test_double_subscribe_then_single_unsubscribe(self):
        bus = EventBus()
        seen = []

        def on_submit(event):
            seen.append(event.payload)

        bus.subscribe_event(events.JOB_SUBMITTED, on_submit)
        bus.subscribe_event(events.JOB_SUBMITTED, on_submit)
        bus.unsubscribe(events.JOB_SUBMITTED, on_submit)
        bus.publish(events.JOB_SUBMITTED, job="j", station="s")
        assert len(seen) == 1

    def test_failing_subscriber_does_not_abort_publish(self):
        bus = EventBus()
        seen = []
        bus.subscribe_event(events.JOB_VACATED, lambda event: 1 / 0)
        bus.subscribe_event(events.JOB_VACATED,
                            lambda event: seen.append(event.payload))
        bus.publish(events.JOB_VACATED, job="j", host="h", reason="r")
        assert len(seen) == 1
        assert len(bus.errors) == 1

    def test_shared_hub_between_buses(self):
        hub = TelemetryHub()
        a, b = EventBus(hub=hub), EventBus(hub=hub)
        a.publish(events.JOB_SUBMITTED, job="j", station="s")
        assert b.counts[events.JOB_SUBMITTED] == 1

    def test_metrics_registry_rides_on_bus(self):
        bus = EventBus()
        bus.metrics.counter("x").inc(3)
        assert bus.hub.metrics.counter("x").value == 3


class TestDispatchFastPath:
    """The precomputed per-kind dispatch table behind emit()/wants()."""

    def test_wants_reflects_targeted_subscription(self):
        hub = TelemetryHub()
        assert not hub.wants(kinds.LEDGER_ENTRY)
        callback = lambda event: None  # noqa: E731
        hub.subscribe(kinds.LEDGER_ENTRY, callback)
        assert hub.wants(kinds.LEDGER_ENTRY)
        assert not hub.wants(kinds.JOB_SUBMITTED)
        hub.unsubscribe(kinds.LEDGER_ENTRY, callback)
        assert not hub.wants(kinds.LEDGER_ENTRY)

    def test_wants_reflects_catch_all(self):
        hub = TelemetryHub()
        recorder = lambda event: None  # noqa: E731
        hub.subscribe_all(recorder)
        assert hub.wants(kinds.LEDGER_ENTRY)
        assert hub.wants(kinds.JOB_SUBMITTED)
        hub.unsubscribe_all(recorder)
        assert not hub.wants(kinds.LEDGER_ENTRY)

    def test_wants_unknown_kind_false(self):
        hub = TelemetryHub()
        assert not hub.wants("never_registered")

    def test_register_kind_updates_dispatch(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe_all(seen.append)
        hub.register_kind("custom_kind")
        assert hub.wants("custom_kind")
        hub.emit("custom_kind")
        assert [event.kind for event in seen] == ["custom_kind"]

    def test_emit_with_no_subscribers_still_counts(self):
        # The zero-subscriber fast path must preserve the seq/counts
        # contract the trace replayer relies on.
        hub = TelemetryHub()
        first = hub.emit(kinds.JOB_SUBMITTED, source="a", job=1)
        second = hub.emit(kinds.JOB_COMPLETED, source="b")
        assert (first.seq, second.seq) == (0, 1)
        assert hub.counts[kinds.JOB_SUBMITTED] == 1
        assert hub.events_emitted == 2

    def test_subscription_during_emit_affects_next_emit_only(self):
        hub = TelemetryHub()
        seen = []

        def late_subscriber(event):
            seen.append(("late", event.seq))

        def first_subscriber(event):
            seen.append(("first", event.seq))
            hub.subscribe(kinds.JOB_SUBMITTED, late_subscriber)

        hub.subscribe(kinds.JOB_SUBMITTED, first_subscriber)
        hub.emit(kinds.JOB_SUBMITTED)
        hub.unsubscribe(kinds.JOB_SUBMITTED, first_subscriber)
        hub.emit(kinds.JOB_SUBMITTED)
        assert seen == [("first", 0), ("late", 1)]

    def test_ledger_skips_hub_when_nobody_listens(self):
        from repro.machine.accounting import REMOTE_JOB, CpuLedger
        from repro.sim import Simulation

        sim = Simulation()
        hub = TelemetryHub()
        ledger = CpuLedger(sim, station_name="ws-1", hub=hub)
        ledger.charge(REMOTE_JOB, 5.0)
        assert hub.events_emitted == 0          # skipped entirely
        seen = []
        hub.subscribe(kinds.LEDGER_ENTRY, seen.append)
        ledger.charge(REMOTE_JOB, 5.0)
        assert hub.events_emitted == 1
        assert seen[0].payload["booked"] == 5.0
