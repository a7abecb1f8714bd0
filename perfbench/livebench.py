"""The live service plane workloads, ``live_steady`` and ``live_backlog``.

The daemon and its agents run in one child process (``live_child.py``);
this process generates the load with at most two threads, each making
one-shot client connections, so the client never shares the service's
interpreter lock.

``live_steady``: a fresh database; open-loop submits of short
checkpointing ``count_steps`` jobs from five owners at a fixed rate below
capacity, and open-loop ``q`` reads beside them.

``live_backlog``: a copy of a database holding a deep queue of heavy-user
jobs, built once per invocation through ``JobDatabase.submit``.  Heavy
user A submits in a closed loop with one submit outstanding; light users
B-E submit batches on an open-loop schedule.  Agents run ``instant`` jobs.

Open-loop operations are timed from when they were due, closed-loop ones
from when they were sent.  Placement and completion times are read from
the database after the run (``jobs.first_placed_t``, ``completed_t``).
"""

import json
import os
import random
import select
import shutil
import sqlite3
import subprocess
import sys
import threading
import time

from statistics import median

from common import HERE, ROOT, SRC, WORK, percentile, pin
from summarize import layer_metrics

if SRC not in sys.path:
    sys.path.insert(0, SRC)

COUNT_ENTRY = "repro.service.samples:count_steps"
INSTANT_ENTRY = "repro.service.samples:instant"
COUNT_PAYLOAD = {"steps": 10, "checkpoint_every": 5}

WORKLOADS = {
    "live_steady": {"agents": 4, "submit_rate": 50.0, "q_rate": 5.0,
                    "q_limit": 50},
    "live_backlog": {"agents": 4, "depth": 5000, "batch_rate": 2.0,
                     "batch_sizes": (3, 7)},
}
STEADY_OWNERS = ("A", "B", "C", "D", "E")
HEAVY_OWNERS = ("A", "F")
LIGHT_OWNERS = ("B", "C", "D", "E")
#: Set-up-only launches before the measured one.
SETUP_PROBES = 4
#: Client timeout per request; a failed request counts as taking this long.
REQUEST_TIMEOUT_S = 5.0
#: Longest wait for submitted work to finish after the window closes.
SETTLE_TIMEOUT_S = 30.0


class Child:
    """One ``live_child.py`` process and its line protocol."""

    def __init__(self, db, ckpt, agents, trace=None):
        argv = [sys.executable, os.path.join(HERE, "live_child.py"),
                "--db", db, "--ckpt", ckpt, "--agents", str(agents)]
        if trace:
            argv += ["--trace", trace]
        self.log = open(db + ".log", "ab")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log)
        pin(self.proc.pid, 0)
        self._pending = b""

    def _readline(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("service child did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("service child exited early; see "
                                   f"{os.path.relpath(self.log.name, ROOT)}")
            self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        return line.decode("utf-8")

    def _send(self, line):
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def ready(self, timeout=60.0):
        """Wait for READY; returns ``(setup_s, endpoint)``."""
        line = self._readline(timeout)
        if not line.startswith("READY "):
            raise RuntimeError(f"unexpected child line {line!r}")
        return (time.monotonic() - self.launched,
                ("127.0.0.1", int(line.split()[1])))

    def go(self):
        self._send("go")

    def stop(self):
        self._send("stop")
        out = json.loads(self._readline(60.0))
        self.proc.wait(timeout=30.0)
        return out

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.log):
            stream.close()


# ----------------------------------------------------------------------
# the load

class Op:
    __slots__ = ("kind", "owner", "due", "sent", "end", "ok", "key")

    def __init__(self, kind, owner, due):
        self.kind = kind
        self.owner = owner
        self.due = due
        self.sent = self.end = None
        self.ok = False
        self.key = None

    @property
    def origin(self):
        """When the op's clock starts: due (open loop) or sent (closed)."""
        return self.sent if self.due is None else self.due


def _client(endpoint):
    from repro.service.client import ServiceClient
    return ServiceClient([endpoint], timeout=REQUEST_TIMEOUT_S, retries=1)


def _execute(op, client, entry, payload, q_limit):
    from repro.service.errors import ServiceError

    op.sent = time.monotonic()
    try:
        if op.kind == "submit":
            op.key = client.submit(entry, payload=payload, owner=op.owner)
        else:
            client.q(limit=q_limit)
        op.ok = True
    except ServiceError:
        op.ok = False
    op.end = time.monotonic()


def _open_loop(ops, start, endpoint, entry, payload=None, q_limit=None):
    client = _client(endpoint)
    for op in ops:
        due = start + op.due
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        op.due = due
        _execute(op, client, entry, payload, q_limit)


def _closed_loop(ops, owner, stop_at, endpoint, entry):
    client = _client(endpoint)
    while time.monotonic() < stop_at:
        op = Op("submit", owner, None)
        _execute(op, client, entry, None, None)
        ops.append(op)


def _schedule(rng, rate, seconds):
    """``rate * seconds`` due offsets, uniform over the window and
    sorted: a Poisson process conditioned on its count."""
    return sorted(rng.uniform(0.0, seconds)
                  for _ in range(round(rate * seconds)))


def _drive(workload, rng, endpoint, seconds):
    """Run the window's load; returns ``(ops, start)``."""
    spec = WORKLOADS[workload]
    start = time.monotonic() + 0.05
    if workload == "live_steady":
        submits = [Op("submit", rng.choice(STEADY_OWNERS), due)
                   for due in _schedule(rng, spec["submit_rate"], seconds)]
        reads = [Op("q", None, due)
                 for due in _schedule(rng, spec["q_rate"], seconds)]
        jobs = [
            threading.Thread(target=_open_loop, args=(
                submits, start, endpoint, COUNT_ENTRY, COUNT_PAYLOAD)),
            threading.Thread(target=_open_loop, args=(
                reads, start, endpoint, None, None, spec["q_limit"])),
        ]
        ops = submits + reads
    else:
        light = []
        t = rng.expovariate(spec["batch_rate"])
        while t < seconds:
            owner = rng.choice(LIGHT_OWNERS)
            light += [Op("submit", owner, t)
                      for _ in range(rng.randint(*spec["batch_sizes"]))]
            t += rng.expovariate(spec["batch_rate"])
        heavy = []
        jobs = [
            threading.Thread(target=_closed_loop, args=(
                heavy, "A", start + seconds, endpoint, INSTANT_ENTRY)),
            threading.Thread(target=_open_loop, args=(
                light, start, endpoint, INSTANT_ENTRY)),
        ]
        ops = None
    for job in jobs:
        job.start()
    for job in jobs:
        job.join()
    if ops is None:
        ops = heavy + light
    return ops, start


# ----------------------------------------------------------------------
# databases

def _build_backlog(path, depth, rng):
    """The deep queue, through the public submit path."""
    from repro.service.jobdb import JobDatabase

    with JobDatabase(path) as db:
        for _ in range(depth):
            db.submit(INSTANT_ENTRY, owner=rng.choices(
                HEAVY_OWNERS, weights=(7, 3))[0])
    for suffix in ("-wal", "-shm"):
        if os.path.exists(path + suffix):
            raise RuntimeError(f"{path}{suffix} left after close")


def _fresh_db(workload, base, slot):
    """Directory and database path of one launch."""
    root = os.path.join(WORK, workload, slot)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(os.path.join(root, "ckpt"))
    db = os.path.join(root, "service.sqlite")
    if base is not None:
        shutil.copyfile(base, db)
    return db, os.path.join(root, "ckpt")


def _read_db(db):
    conn = sqlite3.connect(db)
    try:
        rows = conn.execute(
            "SELECT s.key, s.state, s.result, j.user, j.first_placed_t, "
            "j.completed_t FROM service_jobs s JOIN jobs j "
            "ON j.key = s.key").fetchall()
        meta = dict(conn.execute("SELECT key, value FROM meta").fetchall())
    finally:
        conn.close()
    return {row[0]: row[1:] for row in rows}, meta


def _settled(db, keys):
    """Whether every key in ``keys`` is done (read-only peek)."""
    if not keys:
        return True
    conn = sqlite3.connect(db, timeout=10.0)
    try:
        done = conn.execute(
            "SELECT COUNT(*) FROM service_jobs WHERE state = 'done' "
            f"AND key IN ({','.join('?' * len(keys))})", keys).fetchone()[0]
    finally:
        conn.close()
    return done == len(keys)


# ----------------------------------------------------------------------
# one measured window

def _window(workload, seed, seconds, base, trace=None):
    """Launch, load, settle, stop, read back; returns what was seen."""
    spec = WORKLOADS[workload]
    db, ckpt = _fresh_db(workload, base, "traced" if trace else "run")
    child = Child(db, ckpt, spec["agents"], trace=trace)
    undo = None
    try:
        setup, endpoint = child.ready()
        client_tracer = None
        if trace:
            import live_trace
            from tracer import Tracer

            client_tracer = Tracer(cpu=True)
            undo = live_trace.install_client(client_tracer)
        child.go()
        go_at = time.monotonic()
        wall_offset = time.time() - time.monotonic()
        ops, start = _drive(workload, random.Random(seed), endpoint, seconds)
        keys = [op.key for op in ops if op.ok and op.kind == "submit"
                and (workload == "live_steady" or op.owner in LIGHT_OWNERS)]
        deadline = time.monotonic() + SETTLE_TIMEOUT_S
        while not _settled(db, keys) and time.monotonic() < deadline:
            time.sleep(0.05)
        if undo is not None:
            undo()
            undo = None
        stats = child.stop()
        window_s = time.monotonic() - go_at
    finally:
        if undo is not None:
            undo()
        child.close()
    if client_tracer is not None:
        client_tracer.dump(trace + ".client")
    rows, meta = _read_db(db)
    return {"setup_s": setup, "ops": ops, "start": start, "go_at": go_at,
            "wall_offset": wall_offset, "window_s": window_s,
            "rows": rows, "meta": meta, "stats": stats}


def _check(workload, run, base_rows, result):
    rows, meta = run["rows"], run["meta"]
    submitted = [op for op in run["ops"] if op.kind == "submit" and op.ok]
    keys = [op.key for op in submitted]
    result.check(len(set(keys)) == len(keys), "a submit key was reused")
    result.check(int(meta.get("service_progress_regressions", "0")) == 0,
                 "service_progress_regressions is not 0")
    missing = [key for key in keys if key not in rows]
    result.check(not missing, f"submitted keys missing from the "
                              f"database: {missing[:5]}")
    bad_states = {"failed", "stopped"}
    if workload == "live_steady":
        expected = json.dumps(COUNT_PAYLOAD["steps"])
        wrong = [key for key in keys if key in rows
                 and (rows[key][0] != "done" or rows[key][1] != expected)]
        result.check(not wrong, f"jobs not done with the right result: "
                                f"{[(k, rows[k][:2]) for k in wrong[:5]]}")
    else:
        light = [op.key for op in submitted if op.owner in LIGHT_OWNERS]
        undone = [key for key in light if rows.get(key, ("",))[0] != "done"]
        result.check(not undone, f"light jobs not done: {undone[:5]}")
        result.check(len(rows) == base_rows + len(keys),
                     f"{len(rows)} jobs in the database, expected "
                     f"{base_rows} built + {len(keys)} submitted")
    wrong = [key for key, row in rows.items() if row[0] in bad_states]
    result.check(not wrong, f"jobs failed or stopped: {wrong[:5]}")


def _latencies(run):
    """Per-kind latency samples in ms, from the ops and the database."""
    offset = run["wall_offset"]
    t0 = float(run["meta"]["service_t0"])
    out = {"submit": [], "place": [], "done": [], "light_place": [],
           "late": []}
    for op in run["ops"]:
        if op.due is not None:
            out["late"].append((op.sent - op.due) * 1000.0)
        if op.kind != "submit":
            continue
        origin = op.origin
        if not op.ok:
            out["submit"].append(REQUEST_TIMEOUT_S * 1000.0)
            continue
        out["submit"].append((op.end - origin) * 1000.0)
        _state, _result, owner, placed_t, completed_t = run["rows"][op.key]
        origin_wall = origin + offset
        if placed_t is not None:
            ms = (t0 + placed_t - origin_wall) * 1000.0
            out["place"].append(ms)
            if owner in LIGHT_OWNERS:
                out["light_place"].append(ms)
        if completed_t is not None:
            out["done"].append((t0 + completed_t - origin_wall) * 1000.0)
    return out


def _completions(run, since, seconds):
    """Durable completions in ``[since, since + seconds)`` (monotonic)."""
    lo = since + run["wall_offset"] - float(run["meta"]["service_t0"])
    hi = lo + seconds
    return sum(1 for row in run["rows"].values()
               if row[4] is not None and lo <= row[4] < hi)


def run(workload, seed, seconds, trace, result):
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    base, base_rows = None, 0
    if "depth" in spec:
        os.makedirs(os.path.join(WORK, workload), exist_ok=True)
        base = os.path.join(WORK, workload, "base.sqlite")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(base + suffix):
                os.unlink(base + suffix)
        _build_backlog(base, spec["depth"], random.Random(rng.random()))
        base_rows = spec["depth"]
    load_seed = rng.random()

    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        db, ckpt = _fresh_db(workload, base, f"probe{i}")
        child = Child(db, ckpt, spec["agents"])
        try:
            setups.append(child.ready()[0])
            child.go()
            child.stop()
        finally:
            child.close()

    measured = _window(workload, load_seed, seconds, base)
    ops = measured["ops"]
    result.attempted += len(ops)
    result.failed += sum(1 for op in ops if not op.ok)
    _check(workload, measured, base_rows, result)
    lat = _latencies(measured)
    if trace:
        _traced(workload, load_seed, seconds, base, base_rows, measured,
                lat, result)
        return

    setups.append(measured["setup_s"])
    stats = measured["stats"]
    heartbeats = stats["counts"]["service.agent.heartbeats"]
    done_in_window = _completions(measured, measured["go_at"],
                                  measured["window_s"])
    result.add("setup_s", median(setups), "s", samples=len(setups))
    result.add("station_cycles_per_s", heartbeats / measured["window_s"],
               "1/s", samples=heartbeats)
    result.add("jobs_per_s",
               _completions(measured, measured["start"], seconds) / seconds,
               "1/s")
    result.add("cpu_ms_per_job",
               stats["cpu_s"] * 1000.0 / max(done_in_window, 1), "ms",
               samples=done_in_window)
    result.add("peak_rss_mib", stats["rss_mib"], "MiB")
    result.add("ops_ok_frac",
               (result.attempted - result.failed) / result.attempted,
               "ratio", samples=result.attempted)
    for kind in ("submit", "place", "done"):
        for q in (50, 99):
            result.note(f"{kind}_p{q}_ms", percentile(lat[kind] or [0.0], q),
                        "ms", samples=len(lat[kind]))
    result.note("light_place_p90_ms",
                percentile(lat["light_place"] or [0.0], 90), "ms",
                samples=len(lat["light_place"]))
    result.note("loadgen.late_p99_ms", percentile(lat["late"] or [0.0], 99),
                "ms", samples=len(lat["late"]))


def _traced(workload, load_seed, seconds, base, base_rows, untraced, lat,
            result):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{workload}.spans")
    traced = _window(workload, load_seed, seconds, base, trace=path)
    ops = traced["ops"]
    result.attempted += len(ops)
    result.failed += sum(1 for op in ops if not op.ok)
    _check(workload, traced, base_rows, result)
    stats = traced["stats"]
    counts = dict(stats["counts"])
    from tracer import load
    _names, client_counts, _buffers = load(path + ".client")
    for key, value in client_counts.items():
        counts[key] = counts.get(key, 0) + value
    done = _completions(traced, traced["go_at"], traced["window_s"])
    untraced_done = _completions(untraced, untraced["go_at"],
                                 untraced["window_s"])
    # The window is fixed, so compare CPU for the same work: the untraced
    # service's CPU per completion times the traced run's completions.
    untraced_s = untraced["stats"]["cpu_s"] * done / max(untraced_done, 1)
    late = lat["late"] or [0.0]
    summary = {"spans": [path], "client_spans": [path + ".client"],
               "since": stats["since"], "counts": counts,
               "traced_s": stats["cpu_s"],
               "untraced_s": untraced_s,
               "late_p99_ms": percentile(late, 99), "jobs_done": done}
    metrics, _totals = layer_metrics(summary)
    for name, (value, unit) in metrics.items():
        result.add(name, value, unit)
    with open(path[:-len(".spans")] + ".json", "w") as f:
        json.dump(summary, f, indent=1)
