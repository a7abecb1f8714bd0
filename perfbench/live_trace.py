"""Span hooks for the live service plane, installed from outside.

:func:`install_service` runs in the child process that hosts the daemon
and the agents; :func:`install_client` in the load generator.  Both
replace public functions and methods with wrappers, so no program file
changes:

* ``protocol.send_frame`` / ``recv_frame`` -> ``service.protocol.send`` /
  ``.recv``.  A receive span starts when the frame's header has arrived,
  so it holds decoding, not the wait for the peer;
* on a daemon connection thread, the time from a received request to
  the start of its reply is ``service.daemon.dispatch``;
* every public ``JobDatabase`` transition and ``queue()`` ->
  ``service.jobdb.<method>``, and each acquisition of the database lock
  -> ``service.jobdb.lock_wait``;
* ``UpDownPolicy.update`` / ``rank_requesters`` -> ``core.updown``;
* ``protocol.request`` and its ``socket.create_connection`` (client) ->
  ``service.client.request`` / ``.connect``.

The daemon's placement loop calls ``queue()`` exactly once per cycle, so
``queue()`` calls count cycles, and a cycle that ran no ``place()`` is
an empty one.
"""

import socket
import threading
import time

from repro.core.updown import UpDownPolicy
from repro.service import protocol
from repro.service.jobdb import JobDatabase

from summarize import TXN_KINDS

_perf = time.perf_counter


def count_heartbeats(counts):
    """The one hook of an untraced child: count agent heartbeats.

    One dict lookup per frame sent; ``counts`` gets
    ``service.agent.heartbeats``.
    """
    send = protocol.send_frame
    lock = threading.Lock()
    counts.setdefault("service.agent.heartbeats", 0)

    def send_frame(sock, obj):
        if obj.get("op") == "heartbeat":
            with lock:
                counts["service.agent.heartbeats"] += 1
        return send(sock, obj)

    protocol.send_frame = send_frame


class _SizedHeader:
    """Stands in for ``protocol._HEADER`` to count frame body bytes."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.size = inner.size

    def pack(self, length):
        self._tracer.bump("service.protocol.bytes", length)
        return self._inner.pack(length)

    def unpack(self, data):
        return self._inner.unpack(data)


class _TimedLock:
    """A lock whose every acquisition is a ``lock_wait`` span."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self._nid = tracer.name_id("service.jobdb.lock_wait")

    def acquire(self, blocking=True, timeout=-1):
        t0 = _perf()
        got = self._inner.acquire(blocking, timeout)
        self._tracer.end(self._tracer.begin(self._nid, start=t0))
        return got

    def release(self):
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False


def _install_frames(tracer):
    """Frame spans, counts and bytes; returns the per-thread state."""
    local = threading.local()
    send, recv, recv_exact = (protocol.send_frame, protocol.recv_frame,
                              protocol._recv_exact)
    send_nid = tracer.name_id("service.protocol.send")
    recv_nid = tracer.name_id("service.protocol.recv")
    protocol._HEADER = _SizedHeader(protocol._HEADER, tracer)

    def traced_recv_exact(sock, n, eof_ok):
        data = recv_exact(sock, n, eof_ok)
        if eof_ok:
            local.header_at = _perf()
        return data

    def traced_send(sock, obj):
        tracer.bump("service.protocol.frames")
        if obj.get("op") == "heartbeat":
            tracer.bump("service.agent.heartbeats")
        dispatch = getattr(local, "dispatch", None)
        if dispatch is not None:
            local.dispatch = None
            tracer.end(dispatch)
        index = tracer.begin(send_nid)
        try:
            return send(sock, obj)
        finally:
            tracer.end(index)

    def traced_recv(sock):
        local.header_at = None
        obj = recv(sock)
        if local.header_at is not None:
            tracer.end(tracer.begin(recv_nid, start=local.header_at))
        return obj

    protocol._recv_exact = traced_recv_exact
    protocol.send_frame = traced_send
    protocol.recv_frame = traced_recv
    return local


def install_service(tracer):
    """Hooks for the process running the daemon and the agents."""
    local = _install_frames(tracer)
    recv = protocol.recv_frame
    dispatch_nid = tracer.name_id("service.daemon.dispatch")

    def daemon_recv(sock):
        obj = recv(sock)
        if (obj is not None
                and "_serve_conn" in threading.current_thread().name):
            local.dispatch = tracer.begin(dispatch_nid)
        return obj

    protocol.recv_frame = daemon_recv

    init = JobDatabase.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._lock = _TimedLock(self._lock, tracer)

    JobDatabase.__init__ = traced_init
    for kind in TXN_KINDS:
        setattr(JobDatabase, kind, tracer.spanned(
            getattr(JobDatabase, kind), f"service.jobdb.{kind}"))

    queue = tracer.spanned(JobDatabase.queue, "service.jobdb.queue")
    place = JobDatabase.place
    cycle = {"placed": None}

    def traced_queue(self):
        if cycle["placed"] == 0:
            tracer.bump("service.daemon.empty_cycles")
        cycle["placed"] = 0
        tracer.bump("service.jobdb.queue_calls")
        rows = queue(self)
        tracer.bump("service.jobdb.queue_rows", len(rows))
        return rows

    def counted_place(self, *args, **kwargs):
        incarnation = place(self, *args, **kwargs)
        tracer.bump("service.jobdb.placements")
        if cycle["placed"] is not None:
            cycle["placed"] += 1
        return incarnation

    JobDatabase.queue = traced_queue
    JobDatabase.place = counted_place
    for name in ("update", "rank_requesters"):
        setattr(UpDownPolicy, name, tracer.spanned(
            getattr(UpDownPolicy, name), "core.updown", "core.updown.calls"))


def install_client(tracer):
    """Hooks for the load generator; returns a function undoing them."""
    saved = (protocol.send_frame, protocol.recv_frame, protocol._recv_exact,
             protocol._HEADER, protocol.request, socket.create_connection)
    _install_frames(tracer)
    protocol.request = tracer.spanned(protocol.request,
                                      "service.client.request",
                                      "service.client.requests")
    socket.create_connection = tracer.spanned(socket.create_connection,
                                              "service.client.connect")

    def undo():
        (protocol.send_frame, protocol.recv_frame, protocol._recv_exact,
         protocol._HEADER, protocol.request,
         socket.create_connection) = saved
    return undo
