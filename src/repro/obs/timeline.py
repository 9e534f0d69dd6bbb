"""Simulated-time timeline: typed records of what happened *inside* a run.

The recorder (:mod:`repro.obs.recorder`) measures the reproduction in
wall-clock time — how long the scheduler or the engine took.  The
timeline measures it in **simulated time**: when each task started and
finished on which hosts, when each redistribution ran, which allocation
decisions produced the schedule, and how the max-min solver re-shared
resources at every solve.  That is the paper's own unit of comparison,
so two timelines can be diffed cell by cell (see
:mod:`repro.obs.diff`) and exported to external viewers (see
:mod:`repro.obs.export`).

Record kinds (one JSON object per line in ``--timeline-out`` files)::

    meta        {"kind","schema","source"}            stream header
    alloc       {... ,"task","p","t_cp","t_a","step"} one grow decision
    alloc_done  {... ,"reason","total_alloc","t_cp","t_a","steps"}
    share       {... ,"t","action","rate"}            one rate assignment
    task        {... ,"task","hosts","start","finish","startup"}
    xfer        {... ,"src","dst","start","finish","overhead","volume"}
    run         {... ,"makespan","tasks","xfers"}     run summary

Every record inside a run additionally carries the context fields the
enclosing scopes pushed: ``run`` (sequential id), ``role`` (``"sim"``
or ``"experiment"``), ``dag``, ``algorithm``, ``model``, and — inside a
study — ``variant`` (suite name) and ``n``.  A record's keys come in
that order: ``kind``, the context fields, then its own fields.

Storage
-------
A record of a fixed-field kind (``alloc``, ``alloc_done``, ``share``,
``task``, ``xfer``) is stored as one *row* ``(kind, context, values)``:
``context`` is the dict on top of the context stack — the same object
for every record of its scope — and ``values`` the tuple of its own
fields in the emitter's argument order (``hosts`` as a tuple).  The
header, ``run`` summaries (free-form ``end_run`` fields) and dicts
written to the sink directly stay dicts, in their place among the
rows.

* A timeline over a plain :class:`~repro.obs.sinks.MemorySink` keeps
  its rows in ``sink.records``; :attr:`Timeline.records` builds the
  JSON-shaped dicts when read (``hosts`` as a list).
* Any other sink — a ``--timeline-out`` file — receives each record as
  a dict when it is emitted or absorbed.
* :meth:`Timeline.export_state` ships the rows as they are, so one
  pickle carries each context once, and :meth:`Timeline.absorb` builds
  one rebased context per worker run instead of one dict per record.

Determinism contract
--------------------
Timelines are pure functions of simulated state: the same cell emits a
byte-identical record stream on every run.  Worker timelines merge
deterministically: :meth:`Timeline.absorb` renumbers worker-local run
ids by the parent's running offset, so a parallel study's merged
timeline equals the serial one record for record.  Readers take every
field with ``.get``, so files whose records carry extra fields (such as
the ``engine`` field older ``run`` records have) load unchanged.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Sequence, Union

from repro.obs.sinks import JsonlSink, MemorySink, Sink

__all__ = ["Timeline", "timeline_lines", "load_timeline"]

#: Own field names of each row kind, in record order.
_FIELDS: dict[str, tuple[str, ...]] = {
    "alloc": ("task", "p", "t_cp", "t_a", "step"),
    "alloc_done": ("reason", "total_alloc", "t_cp", "t_a", "steps"),
    "share": ("t", "action", "rate"),
    "task": ("task", "hosts", "start", "finish", "startup"),
    "xfer": ("src", "dst", "start", "finish", "overhead", "volume"),
}


def _as_record(item: tuple | dict) -> dict:
    """The JSON-shaped dict of a stored item: a row becomes ``kind``,
    its context, then its own fields; a dict is returned as it is."""
    if type(item) is not tuple:
        return item
    kind, context, values = item
    record = {"kind": kind}
    record.update(context)
    record.update(zip(_FIELDS[kind], values))
    if kind == "task":
        record["hosts"] = list(record["hosts"])
    return record


class Timeline:
    """Collects simulated-time records over a sink.

    A timeline rides on a :class:`~repro.obs.recorder.Recorder`
    (``Recorder(sink, timeline=...)``); instrumented code reaches it via
    ``rec.timeline`` and guards every emission with ``if tl is not
    None:`` — the same zero-cost-when-disabled discipline as the
    recorder's ``enabled`` flag.
    """

    SCHEMA = 1

    def __init__(self, sink: Sink | None = None) -> None:
        self.sink: Sink = sink if sink is not None else MemorySink()
        # Context stack: the top dict is the context of every record
        # emitted under it.  A pushed dict is never mutated, so rows
        # may hold it by reference.
        self._stack: list[dict] = [{}]
        self._run_seq = 0
        self._header_written = False
        #: Per-kind record counts (surface in ``Recorder.metrics`` as
        #: ``timeline.<kind>`` counters).
        self.counts: dict[str, int] = {}
        # A plain memory sink's list holds rows and dicts in emission
        # order; any other sink gets every record as a dict.
        self._rows: list | None = (
            self.sink.records if type(self.sink) is MemorySink else None
        )

    # -- construction helpers ------------------------------------------
    @classmethod
    def to_memory(cls) -> "Timeline":
        return cls(MemorySink())

    @classmethod
    def to_file(cls, path: Union[str, Path]) -> "Timeline":
        return cls(JsonlSink(path))

    @property
    def records(self) -> list[dict] | None:
        """The buffered records (memory sinks only; None for streams).

        Rows become JSON-shaped dicts here, on every read, so a reader
        pays for them once per read and a writer or counter never does.
        """
        rows = self._rows
        if rows is None:
            return getattr(self.sink, "records", None)
        return [_as_record(item) for item in rows]

    @property
    def run_count(self) -> int:
        return self._run_seq

    # -- emission ------------------------------------------------------
    def _ensure_header(self) -> None:
        if self._header_written:
            return
        self._header_written = True
        self.counts["meta"] = self.counts.get("meta", 0) + 1
        self.sink.write(
            {"kind": "meta", "schema": self.SCHEMA, "source": "repro"}
        )

    def _emit(self, kind: str, fields: dict) -> None:
        self._ensure_header()
        record = {"kind": kind}
        record.update(self._stack[-1])
        record.update(fields)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.sink.write(record)

    def _emit_row(self, kind: str, values: tuple) -> None:
        if not self._header_written:
            self._ensure_header()
        self.counts[kind] = self.counts.get(kind, 0) + 1
        row = (kind, self._stack[-1], values)
        if self._rows is not None:
            self._rows.append(row)
        else:
            self.sink.write(_as_record(row))

    @contextmanager
    def context(self, **fields: object) -> Iterator["Timeline"]:
        """Push tag fields onto every record emitted inside the block."""
        merged = dict(self._stack[-1])
        merged.update(fields)
        self._stack.append(merged)
        try:
            yield self
        finally:
            self._stack.pop()

    def context_defaults(self, **fields: object):
        """:meth:`context` for the given fields the current context
        lacks; a no-op context when it already has them all."""
        top = self._stack[-1]
        missing = {k: v for k, v in fields.items() if k not in top}
        return self.context(**missing) if missing else nullcontext(self)

    def begin_run(self, **fields: object) -> int:
        """Open a run scope; returns its sequential id.

        Every record until the matching :meth:`end_run` carries the
        run id, a ``role`` (defaulting to ``"sim"`` unless an enclosing
        :meth:`context` set one) and the given fields (``dag``,
        ``algorithm``, ``model``, ...).
        """
        run_id = self._run_seq
        self._run_seq = run_id + 1
        merged = dict(self._stack[-1])
        merged.setdefault("role", "sim")
        merged["run"] = run_id
        merged.update(fields)
        self._stack.append(merged)
        return run_id

    def end_run(self, **fields: object) -> None:
        """Close the current run scope with a summary ``run`` record."""
        if len(self._stack) < 2:
            raise RuntimeError("end_run without a matching begin_run")
        self._emit("run", fields)
        self._stack.pop()

    def abort_run(self) -> None:
        """Close the current run scope without a summary record."""
        if len(self._stack) >= 2:
            self._stack.pop()

    # Typed emitters.  All simulated-time quantities are plain floats
    # straight from the engine; callers must pass Python scalars (use
    # ``float()`` on numpy values).
    def alloc(
        self, task: int, p: int, t_cp: float, t_a: float, step: int
    ) -> None:
        """One allocation-grow decision (CPA-family loop)."""
        self._emit_row("alloc", (task, p, t_cp, t_a, step))

    def alloc_done(
        self,
        reason: str,
        total_alloc: int,
        t_cp: float,
        t_a: float,
        steps: int,
    ) -> None:
        """Allocation-phase summary (why the grow loop stopped)."""
        self._emit_row("alloc_done", (reason, total_alloc, t_cp, t_a, steps))

    def share(self, t: float, action: str, rate: float) -> None:
        """One resource-share (rate) assignment at simulated time ``t``."""
        self._emit_row("share", (t, action, rate))

    def task(
        self,
        task: int,
        hosts: Sequence[int],
        start: float,
        finish: float,
        startup: float,
    ) -> None:
        """One completed task execution."""
        self._emit_row("task", (task, tuple(hosts), start, finish, startup))

    def xfer(
        self,
        src: int,
        dst: int,
        start: float,
        finish: float,
        overhead: float,
        volume: float,
    ) -> None:
        """One completed redistribution transfer."""
        self._emit_row("xfer", (src, dst, start, finish, overhead, volume))

    # -- cross-process merge -------------------------------------------
    def export_state(self) -> dict:
        """Portable snapshot (memory sinks only), for pool workers.

        The rows ship as they are: every row of a scope refers to the
        scope's one context dict, which pickles once.
        """
        return {
            "records": list(getattr(self.sink, "records", ())),
            "runs": self._run_seq,
        }

    def absorb(self, state: dict) -> None:
        """Fold a worker's :meth:`export_state` payload into this timeline.

        Worker run ids (numbered from 0 per worker) are offset by this
        timeline's running total, so absorbing worker payloads in grid
        order reproduces the serial numbering exactly.  Rows of one
        worker run share one rebased copy of the run's context, and a
        dict record takes a rebased copy of itself; the payload is never
        mutated.  The worker's ``meta`` header is dropped (the merged
        stream has one).
        """
        offset = self._run_seq
        self._run_seq += int(state.get("runs", 0))
        counts = self.counts
        rows = self._rows
        rebased: dict[int, dict] = {}
        for row in state["records"]:
            if type(row) is tuple:
                kind, context, values = row
                if offset and "run" in context:
                    shifted = rebased.get(id(context))
                    if shifted is None:
                        shifted = rebased[id(context)] = dict(
                            context, run=context["run"] + offset
                        )
                    row = (kind, shifted, values)
            else:
                kind = row.get("kind")
                if kind == "meta":
                    continue
                if offset and "run" in row:
                    row = dict(row, run=row["run"] + offset)
            if not self._header_written:
                self._ensure_header()
            counts[kind] = counts.get(kind, 0) + 1
            if rows is None:
                self.sink.write(_as_record(row))
            else:
                rows.append(row)

    def close(self) -> None:
        self.sink.close()


def timeline_lines(records: Sequence[dict]) -> list[str]:
    """Canonical JSONL serialization of timeline records."""
    return [json.dumps(record, separators=(",", ":")) for record in records]


def load_timeline(path: Union[str, Path]) -> list[dict]:
    """Parse a ``--timeline-out`` JSONL file into its records.

    Raises :class:`~repro.obs.report.TraceReadError` (the same error
    the trace reporter uses) on missing files, malformed JSON, or
    streams that are not timelines.
    """
    from repro.obs.report import TraceReadError

    path = Path(path)
    if not path.exists():
        raise TraceReadError(f"timeline file not found: {path}")
    records: list[dict] = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceReadError(
                f"{path}:{lineno}: invalid JSON ({exc.msg})"
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise TraceReadError(
                f"{path}:{lineno}: not a timeline record (no 'kind' field"
                "; is this a --trace-out file?)"
            )
        records.append(record)
    return records
