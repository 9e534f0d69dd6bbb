"""Live study telemetry: streaming progress over a side-channel.

Everything built so far in ``repro.obs`` is post-hoc: workers export
their recorder state once per chunk and the parent merges it after the
study returns, so a long campaign is a black box while it runs.  This
module adds the *live* side — a :class:`LiveTelemetry` bus whose pool
workers emit compact progress events (chunk claimed, cell started /
finished / replayed from the cache, periodic heartbeats) over a
dedicated ``multiprocessing`` queue, folded by a parent drain thread
into a :class:`LiveStudyState`: cells done/total, per-worker in-flight
cell and age, a cells/sec EWMA, an ETA, and straggler/stall flags.
Every cell emits through one :class:`CellEmitter` interface: a pool
worker's :class:`WorkerEmitter` feeds the queue, and the parent's
(:meth:`LiveTelemetry.emitter`) folds straight into the state.

The channel is strictly observational.  It never touches results,
caching, or the deterministic Recorder/Timeline merge: live counters
(``runner.stragglers``, ``runner.stalls``) live in the
:class:`LiveStudyState`, not the Recorder, because they depend on wall
clock — folding them into the recorder would break the bit-identity
contract (records, counters, timeline lines equal with telemetry on or
off) that ``assert_live_identity`` enforces.  Dropping every event on
the floor changes nothing but the display.

Event schema (tuples, cheap to pickle through the queue)::

    ("chunk",  pid, t, cells)               worker claimed a chunk
    ("start",  pid, t, pos, label)          cell started
    ("finish", pid, t, pos, label, dur_s)   cell computed
    ("hit",    pid, t, pos, label)          cell replayed from the cache
    ("hb",     pid, t, pos, age_s)          worker heartbeat

Every cell sends ``start`` and then either ``finish`` or ``hit``.
``t`` is ``time.monotonic()`` — on the platforms the pool supports,
the monotonic clock is system-wide, so worker timestamps and parent
ages share a base.  ``pid`` is 0 for cells run in the parent, ``pos``
is the cell's grid submission index, ``label`` is
``suite:dag/algorithm``.

Straggler/stall detection (checked every drain tick):

* a worker whose in-flight cell's age exceeds
  :data:`STRAGGLER_FACTOR` (4.0) times the rolling median of the last
  :data:`WINDOW` (64) computed cell durations — once at least
  :data:`MIN_SAMPLES` (5) cells have been computed — is flagged a
  *straggler* (once per cell);
* a pool worker that has not been heard from (heartbeat cadence
  :data:`HEARTBEAT_S`, 0.5 s) for :data:`STALL_AFTER_BEATS` (6)
  cadences while a cell is in flight is flagged *stalled*.  Cells run
  in the parent (studies without a pool) send no heartbeats and are
  exempt.

Snapshots: :meth:`LiveTelemetry.snapshot` renders the state as a plain
dict; with ``snapshot_path`` set, the drain thread atomically rewrites
that JSON file every beat — the cross-process handoff ``repro top`` and
``repro serve-metrics`` poll (see :mod:`repro.obs.serve`).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable

__all__ = [
    "CellEmitter",
    "LiveStudyState",
    "LiveTelemetry",
    "ProgressPrinter",
    "WorkerEmitter",
    "live_openmetrics_lines",
    "load_snapshot",
    "render_progress_line",
    "render_top",
]

#: JSON snapshot schema tag (bump on incompatible layout changes).
SNAPSHOT_SCHEMA = "repro.live/1"

#: Seconds between a pool worker's heartbeats, and between two ticks
#: of the parent's drain thread (health check, snapshot rewrite).
HEARTBEAT_S = 0.5

#: Heartbeats a pool worker may miss, with a cell in flight, before
#: :class:`LiveTelemetry` flags it stalled.
STALL_AFTER_BEATS = 6

#: Seconds between two ``--progress`` lines on a TTY; off a TTY (a CI
#: log) a full line is printed at most every 2 s.
PROGRESS_INTERVAL_S = 0.5

#: A cell in flight for longer than STRAGGLER_FACTOR times the median
#: duration of the last WINDOW computed cells is a straggler, once at
#: least MIN_SAMPLES cells have been computed.
STRAGGLER_FACTOR = 4.0
MIN_SAMPLES = 5
WINDOW = 64


class LiveStudyState:
    """The parent-side fold of the live event stream.

    Mutated only by the telemetry drain thread (and the parent's
    emitter) under the owning :class:`LiveTelemetry`'s lock; read via
    :meth:`snapshot`, which returns a detached plain dict.
    """

    def __init__(self) -> None:
        self.total = 0
        self.done = 0
        self.cache_hits = 0
        self.chunks_claimed = 0
        self.workers_expected = 0
        self.phase = "idle"
        self.started_at: float | None = None  # monotonic
        #: per-worker view: pid -> {cell, pos, since, last_seen, done,
        #: local, straggler, stalled}
        self.workers: dict[int, dict] = {}
        self.durations: deque[float] = deque(maxlen=WINDOW)
        self.ewma_rate: float | None = None
        self._last_finish: float | None = None
        #: live counters — kept OUT of the Recorder on purpose (they
        #: are wall-clock-dependent; see the module docstring).
        self.counters: dict[str, int] = {}
        self.events: deque[dict] = deque(maxlen=32)
        self._flagged: set[tuple[int, object]] = set()

    # -- folding ------------------------------------------------------
    def begin_study(self, cells: int, workers: int) -> None:
        self.total += cells
        self.workers_expected = max(self.workers_expected, workers)
        self.phase = "running"
        if self.started_at is None:
            self.started_at = time.monotonic()

    def _worker(self, pid: int, t: float, *, local: bool) -> dict:
        entry = self.workers.get(pid)
        if entry is None:
            entry = self.workers[pid] = {
                "cell": None,
                "pos": None,
                "since": t,
                "last_seen": t,
                "done": 0,
                "local": local,
                "straggler": False,
                "stalled": False,
            }
        entry["last_seen"] = t
        return entry

    def fold(self, event: tuple) -> None:
        """Apply one queue event (see the module docstring schema)."""
        kind, pid, t = event[0], event[1], event[2]
        local = pid == 0
        if kind == "start":
            entry = self._worker(pid, t, local=local)
            entry["cell"] = event[4]
            entry["pos"] = event[3]
            entry["since"] = t
            entry["straggler"] = False
            entry["stalled"] = False
        elif kind in ("finish", "hit"):
            entry = self._worker(pid, t, local=local)
            entry["cell"] = None
            entry["pos"] = None
            entry["straggler"] = False
            entry["stalled"] = False
            entry["done"] += 1
            self.done += 1
            if kind == "hit":
                self.cache_hits += 1
            else:
                self.durations.append(float(event[5]))
            self._tick_rate(t)
        elif kind == "chunk":
            self._worker(pid, t, local=local)
            self.chunks_claimed += 1
        elif kind == "hb":
            self._worker(pid, t, local=local)
        if self.total and self.done >= self.total:
            self.phase = "done"

    def _tick_rate(self, t: float) -> None:
        """EWMA of the instantaneous completion rate (cells/sec)."""
        prev = self._last_finish
        self._last_finish = t
        if prev is None:
            return
        dt = t - prev
        if dt <= 0:
            return
        rate = 1.0 / dt
        if self.ewma_rate is None:
            self.ewma_rate = rate
        else:
            self.ewma_rate += 0.3 * (rate - self.ewma_rate)

    # -- health -------------------------------------------------------
    def median_duration(self) -> float | None:
        if len(self.durations) < MIN_SAMPLES:
            return None
        ordered = sorted(self.durations)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def check_health(self, now: float) -> list[dict]:
        """Flag stragglers and stalls; returns newly raised live events.

        A straggler is an in-flight cell older than
        :data:`STRAGGLER_FACTOR` x the rolling median cell duration; a
        stall is a *pool* worker silent for :data:`STALL_AFTER_BEATS`
        heartbeats with a cell in flight.  Each (worker, cell) pair is
        flagged at most once per condition.
        """
        raised: list[dict] = []
        med = self.median_duration()
        stall_after_s = STALL_AFTER_BEATS * HEARTBEAT_S
        for pid, entry in self.workers.items():
            if entry["cell"] is None:
                continue
            age = now - entry["since"]
            if (
                med is not None
                and not entry["straggler"]
                and age > STRAGGLER_FACTOR * med
            ):
                entry["straggler"] = True
                self.counters["runner.stragglers"] = (
                    self.counters.get("runner.stragglers", 0) + 1
                )
                raised.append(
                    {
                        "kind": "straggler",
                        "worker": pid,
                        "cell": entry["cell"],
                        "age_s": round(age, 3),
                        "median_s": round(med, 3),
                    }
                )
            if (
                not entry["local"]
                and not entry["stalled"]
                and now - entry["last_seen"] > stall_after_s
            ):
                entry["stalled"] = True
                self.counters["runner.stalls"] = (
                    self.counters.get("runner.stalls", 0) + 1
                )
                raised.append(
                    {
                        "kind": "stall",
                        "worker": pid,
                        "cell": entry["cell"],
                        "silent_s": round(now - entry["last_seen"], 3),
                    }
                )
        for ev in raised:
            ev["t"] = round(time.time(), 3)
            self.events.append(ev)
        return raised

    # -- snapshot -----------------------------------------------------
    def snapshot(self) -> dict:
        now = time.monotonic()
        elapsed = (
            now - self.started_at if self.started_at is not None else 0.0
        )
        overall = self.done / elapsed if elapsed > 0 and self.done else None
        rate = self.ewma_rate if self.ewma_rate is not None else overall
        remaining = max(0, self.total - self.done)
        eta = remaining / rate if rate and remaining else None
        workers = [
            {
                "worker": pid,
                "cell": entry["cell"],
                "pos": entry["pos"],
                "age_s": (
                    round(now - entry["since"], 3)
                    if entry["cell"] is not None
                    else None
                ),
                "last_seen_s": round(now - entry["last_seen"], 3),
                "done": entry["done"],
                "local": entry["local"],
                "straggler": entry["straggler"],
                "stalled": entry["stalled"],
            }
            for pid, entry in sorted(self.workers.items())
        ]
        med = self.median_duration()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "updated": round(time.time(), 3),
            "phase": self.phase,
            "study": {
                "total": self.total,
                "done": self.done,
                "cache_hits": self.cache_hits,
                "in_flight": sum(
                    1 for w in workers if w["cell"] is not None
                ),
                "chunks_claimed": self.chunks_claimed,
                "workers": self.workers_expected,
            },
            "rates": {
                "cells_per_sec_ewma": (
                    round(self.ewma_rate, 4)
                    if self.ewma_rate is not None
                    else None
                ),
                "cells_per_sec_overall": (
                    round(overall, 4) if overall is not None else None
                ),
                "median_cell_s": round(med, 4) if med is not None else None,
                "eta_s": round(eta, 1) if eta is not None else None,
                "elapsed_s": round(elapsed, 3),
            },
            "workers": workers,
            "counters": dict(self.counters),
            "events": list(self.events),
        }


class LiveTelemetry:
    """The parent half of the live channel.

    Owns the :class:`LiveStudyState`, the multiprocessing side-channel
    queue (created lazily per pool context via :meth:`connect`), and a
    daemon drain thread that folds events, runs the straggler/stall
    check every tick, and — with ``snapshot_path`` set — atomically
    rewrites the JSON snapshot file.

    Cells run in the parent (a study without a pool) emit through
    :meth:`emitter`, which bypasses the queue and folds directly under
    the lock, so such a study gets the same state without any IPC.
    """

    def __init__(self, *, snapshot_path: str | Path | None = None) -> None:
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else None
        )
        self.state = LiveStudyState()
        self._lock = threading.Lock()
        self._queue = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: observers called with each newly raised live event dict
        #: (straggler/stall), from the drain thread.
        self.listeners: list[Callable[[dict], None]] = []

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "LiveTelemetry":
        """Start the drain thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._drain, name="repro-live-drain", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the drain thread, waking it with a ``None`` on the pool
        queue if it waits there, and write the final snapshot."""
        self._stop.set()
        if self._queue is not None and self._thread is not None:
            try:
                self._queue.put_nowait(None)
            except Exception:  # closed at teardown: the get times out
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            if self.state.phase == "running":
                self.state.phase = "done"
            self._write_snapshot()

    def connect(self, ctx) -> "object":
        """The side-channel queue for pool workers (created lazily).

        ``ctx`` is the multiprocessing context the pool uses; the queue
        must come from the same context to ride through the pool
        initializer args.  One queue serves every study this telemetry
        instance observes.
        """
        if self._queue is None:
            self._queue = ctx.Queue()
        return self._queue

    # -- parent-local emission (pid 0 marks "parent") -----------------
    def begin_study(self, cells: int, workers: int) -> None:
        with self._lock:
            self.state.begin_study(cells, workers)

    def emitter(self) -> CellEmitter:
        """The emitter of cells run in the parent: pid 0, no heartbeat."""
        return CellEmitter(self._fold, 0)

    def _fold(self, event: tuple) -> None:
        with self._lock:
            self.state.fold(event)

    # -- reading ------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return self.state.snapshot()

    # -- drain thread -------------------------------------------------
    def _drain(self) -> None:
        tick = HEARTBEAT_S
        next_snap = time.monotonic()
        while True:
            stopping = self._stop.is_set()
            queue = self._queue
            drained = False
            if queue is not None:
                try:
                    event = queue.get(timeout=0.0 if stopping else tick)
                    drained = True
                except Exception:
                    # Empty (the common case) or a closed queue during
                    # interpreter teardown; either way, fall through to
                    # the periodic work.
                    drained = False
                if drained:
                    if event is not None:  # None: close's wake-up
                        self._fold(event)
                    # Opportunistically drain the backlog so a burst of
                    # events does not serialize one tick apiece.
                    for _ in range(512):
                        try:
                            event = queue.get_nowait()
                        except Exception:
                            break
                        if event is not None:
                            self._fold(event)
            else:
                self._stop.wait(tick)
            now = time.monotonic()
            with self._lock:
                raised = self.state.check_health(now)
            for event in raised:
                for listener in list(self.listeners):
                    try:
                        listener(event)
                    except Exception:
                        pass
            if now >= next_snap:
                with self._lock:
                    self._write_snapshot()
                next_snap = now + tick
            if stopping and not drained:
                return

    def _write_snapshot(self) -> None:
        """Atomically rewrite the snapshot file (caller holds the lock)."""
        if self.snapshot_path is None:
            return
        snap = self.state.snapshot()
        tmp = self.snapshot_path.with_name(
            self.snapshot_path.name + f".tmp{os.getpid()}"
        )
        try:
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(snap, indent=1) + "\n")
            os.replace(tmp, self.snapshot_path)
        except OSError:
            # Telemetry must never take a study down with it.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass


class CellEmitter:
    """Emits the events of the cells one process runs.

    ``put`` delivers an event tuple (see the module docstring schema)
    and ``pid`` names the process, 0 for the parent.  The emitter keeps
    the cell in flight, so a ``finish`` carries the cell's duration.
    """

    def __init__(self, put: Callable[[tuple], None], pid: int) -> None:
        self._put = put
        self.pid = pid
        self._lock = threading.Lock()
        self._current: tuple[int, str, float] | None = None

    def chunk_claimed(self, cells: int) -> None:
        self._put(("chunk", self.pid, time.monotonic(), cells))

    def cell_started(self, pos: int, label: str) -> None:
        t = time.monotonic()
        with self._lock:
            self._current = (pos, label, t)
        self._put(("start", self.pid, t, pos, label))

    def cell_finished(self, pos: int, label: str, hit: bool = False) -> None:
        """End the cell in flight: a ``hit`` if it came from the cache,
        else a ``finish`` with its duration."""
        t = time.monotonic()
        with self._lock:
            current = self._current
            self._current = None
        if hit:
            self._put(("hit", self.pid, t, pos, label))
        else:
            dur = t - current[2] if current is not None else 0.0
            self._put(("finish", self.pid, t, pos, label, dur))


class WorkerEmitter(CellEmitter):
    """The worker half: emits events and heartbeats into the queue.

    Built once per pool worker by the pool initializer.  ``put`` never
    blocks and never raises into the study — a full or broken queue
    drops the event (the channel is observational; losing an event
    loses a progress update, nothing else).  A daemon heartbeat thread
    reports the in-flight cell every :data:`HEARTBEAT_S` so the parent
    can tell a long cell (straggler) from a dead worker (stall).
    """

    def __init__(self, queue) -> None:
        def put(event: tuple) -> None:
            try:
                queue.put_nowait(event)
            except Exception:
                pass

        super().__init__(put, os.getpid())
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat,
            name="repro-live-heartbeat",
            daemon=True,
        )
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(HEARTBEAT_S):
            with self._lock:
                current = self._current
            t = time.monotonic()
            if current is not None:
                pos, _label, since = current
                self._put(("hb", self.pid, t, pos, t - since))
            else:
                self._put(("hb", self.pid, t, None, 0.0))

    def close(self) -> None:  # pragma: no cover - workers die with pool
        self._stop.set()


# ----------------------------------------------------------------------
# Snapshot consumers: OpenMetrics, progress line, top view
# ----------------------------------------------------------------------
def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot JSON file written by :class:`LiveTelemetry`."""
    with open(path, encoding="utf-8") as fh:
        snap = json.load(fh)
    if not isinstance(snap, dict) or snap.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{path}: not a live telemetry snapshot "
            f"(expected schema {SNAPSHOT_SCHEMA!r})"
        )
    return snap


def live_openmetrics_lines(snap: dict) -> list[str]:
    """A live snapshot as OpenMetrics text exposition lines.

    Complements the post-hoc rollups in :mod:`repro.obs.export` (same
    escaping, same ``# EOF`` terminator, same validator) with gauges
    that move while the study runs.
    """
    from repro.obs.export import _om_counter_family, _om_escape

    study = snap.get("study", {})
    rates = snap.get("rates", {})
    lines = [
        "# TYPE repro_live_up gauge",
        "repro_live_up 1",
        "# TYPE repro_live_cells gauge",
    ]
    for state in ("total", "done", "cache_hits", "in_flight"):
        lines.append(
            f'repro_live_cells{{state="{state}"}} '
            f"{int(study.get(state) or 0)}"
        )
    lines.append("# TYPE repro_live_chunks_claimed gauge")
    lines.append(
        f"repro_live_chunks_claimed {int(study.get('chunks_claimed') or 0)}"
    )
    lines.append("# TYPE repro_live_cells_per_sec gauge")
    for estimate in ("ewma", "overall"):
        value = rates.get(f"cells_per_sec_{estimate}")
        if value is not None:
            lines.append(
                f'repro_live_cells_per_sec{{estimate="{estimate}"}} '
                f"{float(value):.9g}"
            )
    for key, metric in (
        ("eta_s", "repro_live_eta_seconds"),
        ("elapsed_s", "repro_live_elapsed_seconds"),
        ("median_cell_s", "repro_live_median_cell_seconds"),
    ):
        value = rates.get(key)
        if value is not None:
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {float(value):.9g}")
    workers = snap.get("workers", [])
    if workers:
        lines.append("# TYPE repro_live_worker_cells gauge")
        for w in workers:
            lines.append(
                f'repro_live_worker_cells{{worker="{w["worker"]}"}} '
                f"{int(w.get('done') or 0)}"
            )
        lines.append("# TYPE repro_live_worker_age_seconds gauge")
        for w in workers:
            if w.get("age_s") is not None:
                lines.append(
                    "repro_live_worker_age_seconds"
                    f'{{worker="{w["worker"]}",'
                    f'cell="{_om_escape(w.get("cell") or "")}"}} '
                    f"{float(w['age_s']):.9g}"
                )
        lines.append("# TYPE repro_live_worker_flag gauge")
        for w in workers:
            for flag in ("straggler", "stalled"):
                lines.append(
                    "repro_live_worker_flag"
                    f'{{worker="{w["worker"]}",flag="{flag}"}} '
                    f"{1 if w.get(flag) else 0}"
                )
    lines += _om_counter_family(snap.get("counters", {}))
    lines.append("# EOF")
    return lines


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_progress_line(snap: dict) -> str:
    """One-line study status (the ``--progress`` display)."""
    study = snap.get("study", {})
    rates = snap.get("rates", {})
    counters = snap.get("counters", {})
    total = study.get("total") or 0
    done = study.get("done") or 0
    pct = f"{100.0 * done / total:3.0f}%" if total else "  -"
    rate = rates.get("cells_per_sec_ewma") or rates.get(
        "cells_per_sec_overall"
    )
    rate_s = f"{rate:.1f}" if rate is not None else "-"
    parts = [
        f"cells {done}/{total} ({pct})",
        f"{rate_s} cells/s",
        f"eta {_fmt_eta(rates.get('eta_s'))}",
        f"inflight {study.get('in_flight') or 0}",
    ]
    if study.get("cache_hits"):
        parts.append(f"hits {study['cache_hits']}")
    stragglers = counters.get("runner.stragglers", 0)
    stalls = counters.get("runner.stalls", 0)
    if stragglers or stalls:
        parts.append(f"stragglers {stragglers} stalls {stalls}")
    if snap.get("phase") == "done":
        parts.append("done")
    return " | ".join(parts)


def render_top(snap: dict) -> str:
    """Multi-line per-worker view (the ``repro top`` display)."""
    from repro.util.text import format_table

    lines = [render_progress_line(snap)]
    rates = snap.get("rates", {})
    med = rates.get("median_cell_s")
    lines.append(
        f"elapsed {_fmt_eta(rates.get('elapsed_s'))}"
        + (f" | median cell {med:.2f}s" if med is not None else "")
    )
    workers = snap.get("workers", [])
    if workers:
        lines.append("")
        lines.append(
            format_table(
                ["worker", "done", "in-flight cell", "age [s]", "flags"],
                [
                    [
                        "parent" if w.get("local") else str(w["worker"]),
                        str(w.get("done") or 0),
                        str(w.get("cell") or "-"),
                        (
                            f"{w['age_s']:.1f}"
                            if w.get("age_s") is not None
                            else "-"
                        ),
                        " ".join(
                            flag
                            for flag in ("straggler", "stalled")
                            if w.get(flag)
                        )
                        or "-",
                    ]
                    for w in workers
                ],
            )
        )
    events = snap.get("events", [])
    if events:
        lines.append("")
        lines.append("recent events:")
        for ev in events[-8:]:
            detail = (
                f"age {ev['age_s']}s vs median {ev['median_s']}s"
                if ev.get("kind") == "straggler"
                else f"silent {ev.get('silent_s', '?')}s"
            )
            lines.append(
                f"  {ev.get('kind', '?')}: worker {ev.get('worker', '?')} "
                f"on {ev.get('cell', '?')} ({detail})"
            )
    return "\n".join(lines)


class ProgressPrinter:
    """Streams the progress line to stderr while a study runs.

    On a TTY the line redraws in place (carriage return) every
    :data:`PROGRESS_INTERVAL_S`; otherwise — CI logs — a full line is
    printed at most every 2 s so the log still shows motion.
    Straggler/stall events always get their own line.  :meth:`close`
    prints the final state and a newline.
    """

    def __init__(self, telemetry: LiveTelemetry, *, stream=None) -> None:
        self.telemetry = telemetry
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._stop = threading.Event()
        self._last_len = 0
        telemetry.listeners.append(self._on_event)
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-progress", daemon=True
        )
        self._thread.start()

    def _render(self, line: str) -> None:
        try:
            if self._tty:
                pad = " " * max(0, self._last_len - len(line))
                self.stream.write(f"\r{line}{pad}")
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
            self._last_len = len(line)
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    def _on_event(self, event: dict) -> None:
        cell = event.get("cell", "?")
        if event.get("kind") == "straggler":
            note = (
                f"straggler: worker {event.get('worker')} on {cell} "
                f"({event.get('age_s')}s > {event.get('median_s')}s median)"
            )
        else:
            note = (
                f"stall: worker {event.get('worker')} on {cell} "
                f"(silent {event.get('silent_s')}s)"
            )
        if self._tty:
            self._render("")  # clear the status line
            self._last_len = 0
        try:
            self.stream.write(note + "\n")
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover
            pass

    def _loop(self) -> None:
        interval = (
            PROGRESS_INTERVAL_S
            if self._tty
            else max(PROGRESS_INTERVAL_S, 2.0)
        )
        while not self._stop.wait(interval):
            snap = self.telemetry.snapshot()
            if snap["study"]["total"]:
                self._render(render_progress_line(snap))

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        try:
            self.telemetry.listeners.remove(self._on_event)
        except ValueError:  # pragma: no cover
            pass
        snap = self.telemetry.snapshot()
        if snap["study"]["total"]:
            self._render(render_progress_line(snap))
            if self._tty:
                try:
                    self.stream.write("\n")
                    self.stream.flush()
                except (OSError, ValueError):  # pragma: no cover
                    pass
