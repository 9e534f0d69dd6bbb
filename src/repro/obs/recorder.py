"""The Recorder: typed events, counters and span timers over a sink.

Design rules (the layer's contract, see ``docs/observability.md``):

* **Disabled by default.**  The process-global recorder starts over a
  :class:`~repro.obs.sinks.NullSink` and reports ``enabled = False``.
  Instrumented hot paths guard every emission with ``if rec.enabled:``
  so a disabled recorder costs one attribute load and a branch — no
  event dicts, no string formatting, no sink calls.
* **Counters are in-memory.**  ``count()`` accumulates into a dict and
  never touches the sink; the rollup travels in the manifest and via
  :meth:`Recorder.metrics`.  (Counters stay live even when the recorder
  is *enabled but span/event volume matters* — they are the cheap tier.)
* **One span table.**  Every ``span()`` and ``timing()`` measurement
  updates exactly one :class:`SpanStats` in :attr:`Recorder.span_paths`,
  keyed by its span path.  The per-name rollup (:attr:`Recorder.spans`)
  and an attached profiler's span tree are views of that table.
* **Events and spans stream to the sink** as plain dicts with a
  ``type`` field (``"event"`` / ``"span"``), ready for JSONL.
* **Determinism.**  Nothing here feeds back into simulation state; wall
  clocks only ever appear in trace records and manifests, never in
  simulated quantities.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.sinks import MemorySink, NullSink, Sink

__all__ = [
    "Recorder",
    "SpanStats",
    "get_recorder",
    "set_recorder",
    "recording",
]

#: Separator of the parts of a table key (span path frames, kernel and
#: size bucket) in serialized tables and collapsed stacks.  Span names
#: are dotted identifiers and must not contain it.
PATH_SEP = ";"


class SpanStats:
    """Aggregated timings of one table key (count / total / min / max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, agg: dict) -> None:
        """Fold in a :meth:`to_dict` payload; sums add, min/max widen."""
        self.count += agg["count"]
        self.total += agg["total_s"]
        if agg["min_s"] < self.min:
            self.min = agg["min_s"]
        if agg["max_s"] > self.max:
            self.max = agg["max_s"]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        # A zero-count span has no minimum: serialize None (JSON null)
        # rather than the +inf sentinel, which is not valid JSON, or a
        # fake 0.0, which strict consumers would read as a real timing.
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else None,
            "max_s": self.max,
        }


def table_state(table: dict[tuple, SpanStats]) -> dict[str, dict]:
    """A stats table as plain dicts: ``PATH_SEP``-joined keys, sorted."""
    return {
        PATH_SEP.join(map(str, key)): stats.to_dict()
        for key, stats in sorted(table.items())
    }


class _NullSpan:
    """Shared no-op context manager for disabled recorders."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Times a ``with`` block; emits a span record and updates stats.

    Entering pushes the name onto the recorder's path stack, so spans
    and timings inside the block are keyed under it.
    """

    __slots__ = ("_recorder", "_name", "_fields", "_t0")

    def __init__(self, recorder: "Recorder", name: str, fields: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._fields = fields
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._recorder._stack.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._recorder._finish_span(
            self._name, time.perf_counter() - self._t0, self._fields
        )
        return False


class Recorder:
    """Emits typed events / counters / spans to a pluggable sink.

    A recorder over a :class:`NullSink` (the default) is *disabled*:
    ``enabled`` is False, ``span()`` returns a shared no-op context
    manager, and ``event()`` / ``count()`` return immediately.  Hot
    paths should still guard with ``if rec.enabled:`` so not even the
    call happens.

    ``timeline`` optionally attaches a simulated-time
    :class:`~repro.obs.timeline.Timeline`; instrumented code reaches it
    via ``rec.timeline`` and guards with ``if tl is not None:``.  A
    recorder with a timeline is enabled even over a null sink (counters
    still accumulate; events are discarded).

    Every :meth:`span` and :meth:`timing` measurement updates one
    entry of :attr:`span_paths`, ``{span path: SpanStats}``.  A path is
    the names of the enclosing :meth:`span` blocks followed by the
    span's own name (or the timing's).  Spans are entered from one
    thread, so the path stack is a plain list: the only threads in the
    package (the live bus's drain, heartbeat and progress threads and
    the metrics server's) never touch a recorder.

    ``profiler`` optionally attaches a wall-clock
    :class:`~repro.obs.prof.Profiler`, whose ``spans`` becomes
    :attr:`span_paths` itself (the call-path tree) and which adds the
    kernel probes.  Probes reach it via ``rec.profiler`` and guard with
    ``if prof is not None:``.  Like a timeline, an attached profiler
    enables the recorder even over a null sink.
    """

    def __init__(
        self, sink: Sink | None = None, timeline=None, profiler=None
    ) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        self.timeline = timeline
        self.profiler = profiler
        self.enabled: bool = (
            not isinstance(self.sink, NullSink)
            or timeline is not None
            or profiler is not None
        )
        self.counters: dict[str, float] = {}
        #: ``{span path: SpanStats}``: the one table of wall-clock spans.
        self.span_paths: dict[tuple[str, ...], SpanStats] = {}
        self._stack: list[str] = []
        if profiler is not None:
            profiler.spans = self.span_paths

    # -- construction helpers ------------------------------------------
    @classmethod
    def to_memory(cls) -> "Recorder":
        """An enabled recorder buffering into a :class:`MemorySink`."""
        return cls(MemorySink())

    # -- emission ------------------------------------------------------
    def event(self, name: str, **fields: object) -> None:
        """Emit one typed event record to the sink."""
        if not self.enabled:
            return
        record = {"type": "event", "name": name}
        record.update(fields)
        self.sink.write(record)

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate an in-memory counter (never touches the sink)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, **fields: object):
        """Context manager timing a block; records a span on exit."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, fields)

    def timing(self, name: str, seconds: float) -> None:
        """Fold one measured duration into the span table only.

        The cheap tier for hot-path timings called thousands of times
        per run (e.g. ``engine.solve``): it updates the table entry of
        ``name`` under the open spans — so the totals show up in
        :meth:`metrics`, manifests and ``repro report`` — but writes
        *no* per-call record to the sink, whose dict-building and I/O
        would otherwise dominate the very path being measured.  Callers
        should guard with ``if rec.enabled:`` and time with
        ``time.perf_counter()`` themselves.
        """
        if not self.enabled:
            return
        self._add((*self._stack, name), seconds)

    def _add(self, path: tuple[str, ...], seconds: float) -> None:
        stats = self.span_paths.get(path)
        if stats is None:
            stats = self.span_paths[path] = SpanStats()
        stats.add(seconds)

    def _finish_span(self, name: str, seconds: float, fields: dict) -> None:
        stack = self._stack
        self._add(tuple(stack), seconds)
        stack.pop()
        record = {"type": "span", "name": name, "dur_s": seconds}
        record.update(fields)
        self.sink.write(record)

    # -- cross-process merge -------------------------------------------
    def export_state(self) -> dict:
        """Portable snapshot of everything this recorder accumulated.

        Returns a picklable plain-dict payload holding the buffered
        sink records (memory sinks only — other sinks stream and have
        nothing to export), the counters, the path-keyed span table, the
        kernel probes of an attached profiler and the timeline (as
        rows; see :mod:`repro.obs.timeline`).  The parallel study
        runner ships one such payload per chunk back to the parent,
        which folds each in whole with :meth:`absorb`.
        """
        state = {
            "records": list(getattr(self.sink, "records", ())),
            "counters": dict(self.counters),
            "spans": table_state(self.span_paths),
        }
        if self.timeline is not None:
            state["timeline"] = self.timeline.export_state()
        if self.profiler is not None:
            state["kernels"] = table_state(self.profiler.kernels)
        return state

    def absorb(self, state: dict) -> None:
        """Fold an :meth:`export_state` payload into this recorder.

        Records are replayed into the sink in payload order, counters
        add up, and span paths merge by absolute path (counts/totals
        sum, min/max widen).  Callers control determinism by absorbing
        worker payloads in a fixed order (the study runner uses grid
        submission order, independent of completion order).
        """
        if not self.enabled:
            return
        for record in state["records"]:
            self.sink.write(record)
        counters = self.counters
        for name, value in state["counters"].items():
            counters[name] = counters.get(name, 0) + value
        paths = self.span_paths
        for key, agg in state["spans"].items():
            if agg["count"]:  # zero-count entries have no minimum
                path = tuple(key.split(PATH_SEP))
                paths.setdefault(path, SpanStats()).merge(agg)
        timeline_state = state.get("timeline")
        if timeline_state is not None and self.timeline is not None:
            self.timeline.absorb(timeline_state)
        if self.profiler is not None:
            self.profiler.absorb(state)

    # -- rollups -------------------------------------------------------
    @property
    def spans(self) -> dict[str, SpanStats]:
        """Per-name fold of :attr:`span_paths` (a new dict per read)."""
        folded: dict[str, SpanStats] = {}
        for path, stats in self.span_paths.items():
            folded.setdefault(path[-1], SpanStats()).merge(stats.to_dict())
        return folded

    def metrics(self) -> dict:
        """Counter values plus per-span-name aggregate timings.

        With a timeline attached, its per-kind record counts join the
        counters as ``timeline.<kind>`` (plus ``timeline.runs``), so
        manifests and ``repro report`` see the timeline volume without
        reading the timeline file.
        """
        counters = dict(self.counters)
        if self.timeline is not None:
            for kind, count in self.timeline.counts.items():
                name = f"timeline.{kind}"
                counters[name] = counters.get(name, 0) + count
            if self.timeline.run_count:
                counters["timeline.runs"] = (
                    counters.get("timeline.runs", 0)
                    + self.timeline.run_count
                )
        rollup = {
            "counters": dict(sorted(counters.items())),
            "spans": {
                name: stats.to_dict()
                for name, stats in sorted(self.spans.items())
            },
        }
        if self.profiler is not None:
            # Only when attached: recorders without a profiler keep the
            # exact metrics shape older manifests and tests expect.
            rollup["profile"] = self.profiler.export_state()
        return rollup

    def close(self) -> None:
        self.sink.close()
        if self.timeline is not None:
            self.timeline.close()


#: Process-global recorder; disabled (null sink) unless the CLI or a test
#: installs an enabled one.
_ACTIVE = Recorder()


def get_recorder() -> Recorder:
    """The process-global recorder (disabled by default)."""
    return _ACTIVE


def set_recorder(recorder: Recorder | None) -> Recorder:
    """Install ``recorder`` globally (None resets to disabled); returns it."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else Recorder()
    return _ACTIVE


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Temporarily install ``recorder`` as the global one."""
    previous = get_recorder()
    set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
