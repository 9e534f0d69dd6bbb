"""Export observability streams to external tooling formats.

Two targets (the ``repro trace export`` command):

* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` format
  that ``chrome://tracing`` and Perfetto load directly.  Timeline
  ``task`` records become complete (``"ph": "X"``) slices on one lane
  per host; ``xfer`` records get their own per-destination lanes; each
  simulated run is a separate process named after its (variant, dag,
  algorithm, role) cell.  Simulated seconds map to microseconds (the
  format's native unit), so viewer timestamps read as seconds / 1e6.
* **OpenMetrics text** — a flat rollup any Prometheus-compatible
  scraper or ``promtool`` can parse: counters and span aggregates from
  a ``--trace-out`` manifest, or per-kind record counts and per-run
  makespan gauges from a ``--timeline-out`` stream.

:func:`validate_chrome_trace` is the schema check CI runs against the
exported artifact; it is hand-rolled (stdlib only) on purpose — the
container has no jsonschema.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Union

from repro.obs.report import TraceReadError, load_trace
from repro.obs.timeline import load_timeline
from repro.util.text import format_table

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "openmetrics_lines",
    "validate_openmetrics",
    "export_file",
    "summarize_file",
]

#: Transfer lanes sit above host lanes in each run's process: host tids
#: are the (small) host indices, xfer tids are offset by this constant.
_XFER_TID_BASE = 1000


def _require_timeline_payload(
    records: list[dict], path: Union[str, Path]
) -> None:
    """Reject empty and header-only timelines with a specific message.

    Both states are legal JSONL (an interrupted run, or a traced
    command that never simulated anything) but exporting them would
    silently produce an empty document — worse than an error.
    """
    if not records:
        raise TraceReadError(
            f"{path}: file is empty — no timeline records to export "
            "(was the traced command interrupted before it ran anything?)"
        )
    if all(r.get("kind") == "meta" for r in records):
        raise TraceReadError(
            f"{path}: timeline holds only its stream header — the traced "
            "command completed no simulated runs (rerun a workload, e.g. "
            "'repro --timeline-out FILE study')"
        )


def _run_label(record: dict) -> str:
    """Process name of one run: its grid-cell coordinates."""
    parts = []
    variant = record.get("variant")
    if variant is not None:
        parts.append(f"{variant}:")
    parts.append(str(record.get("dag", "?")))
    parts.append(str(record.get("algorithm", "?")))
    role = record.get("role")
    if role is not None:
        parts.append(f"[{role}]")
    return " ".join(parts)


def chrome_trace(records: list[dict]) -> dict:
    """Convert timeline records to a Chrome trace-event JSON object."""
    events: list[dict] = []
    procs: dict[int, str] = {}
    for record in records:
        kind = record.get("kind")
        pid = int(record.get("run", -1))
        if kind == "task":
            start = float(record["start"])
            dur = float(record["finish"]) - start
            for host in record["hosts"]:
                events.append(
                    {
                        "name": f"task{record['task']}",
                        "cat": "task",
                        "ph": "X",
                        "ts": start * 1e6,
                        "dur": dur * 1e6,
                        "pid": pid,
                        "tid": int(host),
                        "args": {"startup_s": record.get("startup", 0.0)},
                    }
                )
        elif kind == "xfer":
            start = float(record["start"])
            dur = float(record["finish"]) - start
            events.append(
                {
                    "name": f"redist{record['src']}->{record['dst']}",
                    "cat": "xfer",
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": dur * 1e6,
                    "pid": pid,
                    "tid": _XFER_TID_BASE + int(record["dst"]),
                    "args": {
                        "overhead_s": record.get("overhead", 0.0),
                        "volume_bytes": record.get("volume", 0.0),
                    },
                }
            )
        elif kind == "run":
            procs.setdefault(pid, _run_label(record))
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for pid, label in sorted(procs.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: object) -> None:
    """Raise :class:`ValueError` unless ``obj`` matches the export schema."""

    def fail(msg: str) -> None:
        raise ValueError(f"invalid chrome trace: {msg}")

    if not isinstance(obj, dict):
        fail("top level is not an object")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is not a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            fail(f"event {i}: unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                fail(f"event {i}: {key} is not an integer")
        if ph == "X":
            if not isinstance(ev.get("name"), str):
                fail(f"event {i}: name is not a string")
            for key in ("ts", "dur"):
                value = ev.get(key)
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not math.isfinite(value)
                    or value < 0
                ):
                    fail(f"event {i}: {key} is not a finite non-negative number")
        else:  # metadata
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                fail(f"event {i}: metadata args.name is not a string")


# ----------------------------------------------------------------------
# OpenMetrics
# ----------------------------------------------------------------------
def _om_escape(value: object) -> str:
    """Escape one label value per the OpenMetrics text format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _om_count(value: float) -> str:
    """A count as a sample value with every digit (``:g`` alone would
    round a count of 10^6 or more to six significant digits)."""
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def _om_counter_family(counters: dict) -> list[str]:
    """The ``repro_counter`` family of a counter table, sorted by name
    (none when the table is empty)."""
    if not counters:
        return []
    return ["# TYPE repro_counter counter"] + [
        f'repro_counter_total{{name="{_om_escape(name)}"}} {_om_count(value)}'
        for name, value in sorted(counters.items())
    ]


def _openmetrics_from_metrics(metrics: dict) -> list[str]:
    """Counter/span rollup (a manifest's ``metrics``) as OpenMetrics."""
    lines = _om_counter_family(metrics.get("counters", {}))
    spans = metrics.get("spans", {})
    if spans:
        lines.append("# TYPE repro_span_seconds counter")
        for name, agg in sorted(spans.items()):
            label = f'name="{_om_escape(name)}"'
            lines.append(
                f"repro_span_seconds_total{{{label}}} {agg['total_s']:.9g}"
            )
            lines.append(
                f"repro_span_seconds_count{{{label}}} "
                f"{_om_count(agg['count'])}"
            )
    return lines


def _openmetrics_from_timeline(records: list[dict]) -> list[str]:
    """Per-kind counts and per-run makespans from a timeline stream."""
    lines: list[str] = []
    kinds: dict[str, int] = {}
    runs: list[dict] = []
    for record in records:
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "run":
            runs.append(record)
    lines.append("# TYPE repro_timeline_records counter")
    for kind, count in sorted(kinds.items()):
        lines.append(
            f'repro_timeline_records_total{{kind="{_om_escape(kind)}"}} '
            f"{count}"
        )
    if runs:
        lines.append("# TYPE repro_run_makespan_seconds gauge")
        for record in runs:
            labels = ",".join(
                f'{key}="{_om_escape(record.get(key, ""))}"'
                for key in ("dag", "algorithm", "role", "run")
            )
            lines.append(
                f"repro_run_makespan_seconds{{{labels}}} "
                f"{float(record.get('makespan', 0.0)):.9g}"
            )
    return lines


def openmetrics_lines(path: Union[str, Path]) -> list[str]:
    """OpenMetrics text exposition of a trace or timeline file.

    Timeline files (records keyed by ``kind``) roll up to per-kind
    record counts plus one makespan gauge per run; ``--trace-out``
    files expose the manifest's counter and span aggregates.  Ends
    with the mandatory ``# EOF`` terminator.
    """
    records = load_timeline_or_trace(path)
    if records and "kind" in records[0]:
        _require_timeline_payload(records, path)
        lines = _openmetrics_from_timeline(records)
    else:
        _, manifest = load_trace(path)
        if manifest is None:
            if not records:
                raise TraceReadError(
                    f"{path}: file is empty — nothing to export (was "
                    "the traced command interrupted before any output?)"
                )
            raise TraceReadError(
                f"{path}: trace has no manifest record to export "
                "(rerun with --trace-out, or pass a --timeline-out file)"
            )
        lines = _openmetrics_from_metrics(manifest.metrics)
    lines.append("# EOF")
    return lines


#: Metric/family names per the exposition format.
_OM_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
#: One sample line: name, optional {labels}, a value (timestamps are
#: not emitted by our exporters and therefore not accepted).
_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>\S+)$"
)
#: The full label block: comma-separated name="escaped value" pairs.
_OM_LABELS_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*$'
)
_OM_TYPES = frozenset(
    {
        "counter",
        "gauge",
        "histogram",
        "gaugehistogram",
        "summary",
        "info",
        "stateset",
        "unknown",
    }
)
#: Sample-name suffixes accepted per family type.  Slightly lenient on
#: purpose: our span rollup exposes a ``_count`` next to each counter's
#: ``_total`` (promtool accepts it as an untyped metric; a strict
#: OpenMetrics parser would want a summary family).
_OM_SUFFIXES = {
    "counter": ("_total", "_count", "_created"),
    "gauge": ("",),
    "unknown": ("",),
}


def validate_openmetrics(text: str) -> None:
    """Raise :class:`ValueError` unless ``text`` is a well-formed
    OpenMetrics exposition (the flavor our exporters emit).

    Hand-rolled (stdlib only) like :func:`validate_chrome_trace` — the
    container has no promtool.  Checks: the mandatory final ``# EOF``
    terminator, comment-line structure (``# TYPE`` / ``# HELP`` /
    ``# UNIT``), at most one TYPE per family, declared-before-use
    families with type-appropriate sample-name suffixes, label-block
    syntax, and finite sample values.
    """

    def fail(lineno: int, msg: str) -> None:
        raise ValueError(f"invalid openmetrics (line {lineno}): {msg}")

    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError(
            "invalid openmetrics: missing the mandatory '# EOF' terminator"
        )
    families: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        if line == "# EOF":
            if lineno != len(lines):
                fail(lineno, "content after the '# EOF' terminator")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#":
                fail(lineno, f"malformed comment line {line!r}")
            keyword = parts[1]
            if keyword not in ("TYPE", "HELP", "UNIT"):
                fail(lineno, f"unknown comment keyword {keyword!r}")
            name = parts[2]
            if not _OM_NAME_RE.fullmatch(name):
                fail(lineno, f"invalid metric family name {name!r}")
            if keyword == "TYPE":
                if len(parts) != 4 or parts[3] not in _OM_TYPES:
                    fail(lineno, f"invalid TYPE declaration {line!r}")
                if name in families:
                    fail(lineno, f"duplicate TYPE for family {name!r}")
                families[name] = parts[3]
            continue
        match = _OM_SAMPLE_RE.match(line)
        if match is None:
            fail(lineno, f"malformed sample line {line!r}")
        labels = match.group("labels")
        if labels is not None and not _OM_LABELS_RE.match(labels):
            fail(lineno, f"malformed label block {{{labels}}}")
        try:
            value = float(match.group("value"))
        except ValueError:
            fail(lineno, f"sample value {match.group('value')!r} "
                         "is not a number")
        if not math.isfinite(value):
            fail(lineno, f"sample value {value!r} is not finite")
        name = match.group("name")
        family = None
        for fam in families:
            if name == fam or (
                name.startswith(fam) and name[len(fam):].startswith("_")
            ):
                if family is None or len(fam) > len(family):
                    family = fam
        if family is None:
            fail(lineno, f"sample {name!r} has no preceding TYPE family")
        suffix = name[len(family):]
        allowed = _OM_SUFFIXES.get(families[family])
        if allowed is not None and suffix not in allowed:
            fail(
                lineno,
                f"sample suffix {suffix!r} not valid for "
                f"{families[family]} family {family!r}",
            )


def load_timeline_or_trace(path: Union[str, Path]) -> list[dict]:
    """Records of either stream flavor (timeline ``kind`` / trace ``type``)."""
    try:
        return load_timeline(path)
    except TraceReadError:
        records, _ = load_trace(path)
        return records


# ----------------------------------------------------------------------
# CLI entry points
# ----------------------------------------------------------------------
def export_file(path: Union[str, Path], fmt: str) -> str:
    """Render ``path`` in ``fmt`` (``"chrome"`` or ``"openmetrics"``)."""
    if fmt == "chrome":
        records = load_timeline(path)
        _require_timeline_payload(records, path)
        trace = chrome_trace(records)
        validate_chrome_trace(trace)
        return json.dumps(trace, indent=1)
    if fmt == "openmetrics":
        return "\n".join(openmetrics_lines(path)) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def summarize_file(path: Union[str, Path]) -> str:
    """Per-run table plus record-kind counts (``repro trace summary``)."""
    records = load_timeline_or_trace(path)
    if not records:
        raise TraceReadError(
            f"{path}: no records to summarise — the file is empty "
            "(for a manifest-only --trace-out file use 'repro report')"
        )
    lines: list[str] = [f"records: {len(records)}"]
    if records and "kind" in records[0]:
        kinds: dict[str, int] = {}
        runs: list[dict] = []
        for record in records:
            kind = str(record.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "run":
                runs.append(record)
        lines.append("")
        lines.append("record kinds:")
        lines.append(
            format_table(
                ["kind", "records"],
                [[k, str(v)] for k, v in sorted(kinds.items())],
            )
        )
        if not runs:
            lines.append("")
            lines.append(
                "no run records: the traced command completed no "
                "simulated runs (header-only stream?)"
            )
        if runs:
            lines.append("")
            lines.append("runs:")
            lines.append(
                format_table(
                    [
                        "run",
                        "variant",
                        "role",
                        "dag",
                        "algorithm",
                        "makespan [s]",
                        "tasks",
                        "xfers",
                    ],
                    [
                        [
                            str(r.get("run", "?")),
                            str(r.get("variant", "-")),
                            str(r.get("role", "-")),
                            str(r.get("dag", "?")),
                            str(r.get("algorithm", "?")),
                            f"{float(r.get('makespan', 0.0)):.4f}",
                            str(r.get("tasks", "?")),
                            str(r.get("xfers", "?")),
                        ]
                        for r in runs
                    ],
                )
            )
    else:
        types: dict[str, int] = {}
        for record in records:
            t = str(record.get("type", "?"))
            types[t] = types.get(t, 0) + 1
        lines.append("")
        lines.append("record types:")
        lines.append(
            format_table(
                ["type", "records"],
                [[k, str(v)] for k, v in sorted(types.items())],
            )
        )
    return "\n".join(lines)
