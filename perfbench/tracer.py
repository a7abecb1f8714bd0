"""In-memory span recorder for traced benchmark runs.

A span is (name, start, end, parent, id).  Spans are appended to a
per-thread buffer of flat ``array`` columns, so recording costs a few C
appends and no locking, and a million spans fit in tens of MiB.  A child
inherits its parent's id, so every span caused by one dispatched event
or one request shares an id.

Self time is a span's duration minus the time its direct children
cover.  Children always nest inside their parent on the same thread, so
that is a single pass over each buffer.  A tracer made with ``cpu=True``
also reads the thread's CPU clock at both ends of every span, which
separates work from waiting (locks, fsync, the interpreter lock) in
multi-threaded processes.

The buffers are written to one binary file when the run ends
(:meth:`Tracer.dump`); :func:`load` and :func:`layer_totals` read it back
for ``summarize.py``.
"""

import array
import functools
import json
import struct
import threading
import time

_clock = time.perf_counter
_cpu_clock = time.thread_time
_HEAD = struct.Struct(">I")


class _Buffer:
    __slots__ = ("index", "name", "start", "end", "parent", "ident",
                 "cpu_start", "cpu_end", "stack", "next_root")

    def __init__(self, index):
        self.index = index
        self.name = array.array("I")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.ident = array.array("q")
        self.cpu_start = array.array("d")
        self.cpu_end = array.array("d")
        self.stack = []
        self.next_root = 0

    def columns(self, cpu):
        base = (self.name, self.start, self.end, self.parent, self.ident)
        return base + (self.cpu_start, self.cpu_end) if cpu else base


class Tracer:
    """Spans plus named counters, recorded from the benchmark's wrappers."""

    def __init__(self, cpu=False):
        self.cpu = cpu
        self.names = []
        self._name_ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        #: Plain counters the wrappers bump (calls, rows, bytes ...).
        self.counts = {}

    def name_id(self, name):
        """Intern a span name (call once per name, outside hot paths)."""
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin(self, nid, start=None):
        """Open a span under the thread's innermost open span."""
        buf = self._buffer()
        stack = buf.stack
        index = len(buf.start)
        if stack:
            parent = stack[-1]
            ident = buf.ident[parent]
        else:
            parent = -1
            ident = (buf.index << 40) | buf.next_root
            buf.next_root += 1
        buf.name.append(nid)
        buf.start.append(_clock() if start is None else start)
        buf.end.append(0.0)
        buf.parent.append(parent)
        buf.ident.append(ident)
        if self.cpu:
            buf.cpu_start.append(_cpu_clock())
            buf.cpu_end.append(0.0)
        stack.append(index)
        return index

    def end(self, index):
        buf = self._local.buf
        buf.end[index] = _clock()
        if self.cpu:
            buf.cpu_end[index] = _cpu_clock()
        buf.stack.pop()

    def bump(self, key, amount=1):
        """Add ``amount`` to the named counter ``key``."""
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def spanned(self, fn, name, counter=None):
        """``fn`` wrapped to run inside a span ``name``, bumping
        ``counter`` (if given) once per call."""
        nid = self.name_id(name)
        begin, end, bump = self.begin, self.end, self.bump

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                bump(counter)
            index = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
        return wrapper

    # ------------------------------------------------------------------

    def buffers(self):
        """Every thread's columns, in the shape :func:`load` returns."""
        with self._lock:
            return [buf.columns(self.cpu) for buf in self._buffers]

    def dump(self, path):
        """Write every span (closed ones) and the counters to ``path``."""
        with self._lock:
            buffers = list(self._buffers)
        header = json.dumps({
            "names": self.names, "counts": self.counts, "cpu": self.cpu,
            "buffers": [len(buf.start) for buf in buffers],
        }).encode("utf-8")
        with open(path, "wb") as f:
            f.write(_HEAD.pack(len(header)))
            f.write(header)
            for buf in buffers:
                for column in buf.columns(self.cpu):
                    column.tofile(f)


def load(path):
    """``(names, counts, buffers)``: one tuple of columns per thread,
    ``(name, start, end, parent, ident[, cpu_start, cpu_end])``."""
    with open(path, "rb") as f:
        (size,) = _HEAD.unpack(f.read(_HEAD.size))
        header = json.loads(f.read(size).decode("utf-8"))
        buffers = []
        for n in header["buffers"]:
            columns = []
            for code in "Iddqq" + ("dd" if header["cpu"] else ""):
                column = array.array(code)
                column.fromfile(f, n)
                columns.append(column)
            buffers.append(tuple(columns))
    return header["names"], header["counts"], buffers


def layer_totals(names, buffers, since=None):
    """``{name: [spans, total_s, self_s, self_cpu_s]}`` over every closed
    span that started at or after ``since`` (a ``perf_counter`` reading).
    Without CPU columns, ``self_cpu_s`` repeats the wall self time."""
    totals = {}
    since = float("-inf") if since is None else since
    for columns in buffers:
        name_col, start, end, parent = columns[:4]
        cpu_start, cpu_end = columns[5:] if len(columns) == 7 else (start,
                                                                    end)
        n = len(start)
        covered = [0.0] * n
        covered_cpu = [0.0] * n
        durations = [None] * n
        for i in range(n):
            if end[i] == 0.0 or start[i] < since:   # open, or too early
                continue
            d = durations[i] = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                covered[p] += d
                covered_cpu[p] += cpu_end[i] - cpu_start[i]
        for i in range(n):
            d = durations[i]
            if d is None:
                continue
            row = totals.setdefault(names[name_col[i]], [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - covered[i]
            row[3] += cpu_end[i] - cpu_start[i] - covered_cpu[i]
    return totals
