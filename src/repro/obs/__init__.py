"""Structured observability: event tracing, metrics and run provenance.

The paper's thesis is that simulator accuracy must be *measured*, not
assumed; this layer applies the same standard to the reproduction
itself.  It is a zero-dependency instrumentation substrate with a hard
guarantee: **disabled is free**.  The process-global recorder starts
over a null sink, reports ``enabled = False``, and every instrumented
hot path (the engine step loop above all) guards emission behind that
flag — no event objects are constructed, no sink is called.

Pieces
------
:class:`Recorder`
    Typed events (``event``), in-memory counters (``count``) and timed
    ``span()`` blocks over a pluggable :class:`Sink`; every ``span()``
    and ``timing()`` lands in one table of :class:`SpanStats` keyed by
    span path.
:class:`NullSink` / :class:`MemorySink` / :class:`JsonlSink`
    Discard, buffer, or stream records as JSON lines.
:class:`RunManifest`
    Provenance record (seed, platform, suites, version, metric rollups)
    attached to study results and appended to JSONL traces.
:func:`report_file`
    Human-readable summary of a trace (the ``repro report`` command).
:class:`Profiler`
    The recorder's span table as a call-path tree, plus
    dimension-tagged kernel probes (``repro profile --what wall``).
:func:`collapsed_stacks` / :func:`chrome_profile_trace`
    Flamegraph text and a Chrome-trace wall-clock lane of a profile.

Usage
-----
>>> from repro import obs
>>> rec = obs.Recorder.to_memory()
>>> with obs.recording(rec):
...     with rec.span("phase"):
...         rec.count("things", 3)
>>> rec.counters["things"]
3
"""

from repro.obs.export import validate_openmetrics
from repro.obs.flame import (
    chrome_profile_events,
    chrome_profile_trace,
    collapsed_stacks,
    parse_collapsed,
)
from repro.obs.live import (
    LiveStudyState,
    LiveTelemetry,
    ProgressPrinter,
    live_openmetrics_lines,
    load_snapshot,
    render_progress_line,
    render_top,
)
from repro.obs.manifest import RunManifest, emit_manifest, platform_info
from repro.obs.prof import Profiler, size_bucket
from repro.obs.recorder import (
    Recorder,
    SpanStats,
    get_recorder,
    recording,
    set_recorder,
)
from repro.obs.report import (
    TraceReadError,
    load_trace,
    render_report,
    report_file,
)
from repro.obs.serve import MetricsServer, ProviderError
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink
from repro.obs.timeline import Timeline, load_timeline, timeline_lines

__all__ = [
    "LiveStudyState",
    "LiveTelemetry",
    "MetricsServer",
    "ProgressPrinter",
    "Profiler",
    "ProviderError",
    "Recorder",
    "SpanStats",
    "Timeline",
    "live_openmetrics_lines",
    "load_snapshot",
    "render_progress_line",
    "render_top",
    "validate_openmetrics",
    "chrome_profile_events",
    "chrome_profile_trace",
    "collapsed_stacks",
    "parse_collapsed",
    "size_bucket",
    "load_timeline",
    "timeline_lines",
    "get_recorder",
    "set_recorder",
    "recording",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "RunManifest",
    "platform_info",
    "emit_manifest",
    "TraceReadError",
    "load_trace",
    "render_report",
    "report_file",
]
