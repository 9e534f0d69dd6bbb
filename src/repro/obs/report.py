"""Load a JSONL trace and summarise it (the ``repro report`` command).

The report is computed from two complementary sources:

* the trailing ``"manifest"`` record, whose metric rollups (counters,
  span aggregates) are authoritative for the whole run;
* the event stream itself, from which per-(algorithm, simulator)
  makespan breakdowns and event-name frequencies are rebuilt — so a
  trace remains useful even if the process died before the manifest was
  written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.obs.manifest import RunManifest
from repro.util.errors import ReproError
from repro.util.stats import relative_error
from repro.util.text import format_table

__all__ = [
    "TraceReadError",
    "load_trace",
    "render_report",
    "report_file",
    "report_json",
]


class TraceReadError(ReproError):
    """A trace file is missing or malformed."""


def load_trace(
    path: Union[str, Path]
) -> tuple[list[dict], RunManifest | None]:
    """Parse a JSONL trace into (records, manifest-or-None)."""
    path = Path(path)
    if not path.exists():
        raise TraceReadError(f"trace file not found: {path}")
    records: list[dict] = []
    manifest: RunManifest | None = None
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
        if not isinstance(record, dict):
            raise TraceReadError(f"{path}:{lineno}: record is not an object")
        if record.get("type") == "manifest":
            manifest = RunManifest.from_dict(record)
        else:
            records.append(record)
    return records, manifest


def _event_counts(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in records:
        if rec.get("type") == "event":
            name = str(rec.get("name", "?"))
            counts[name] = counts.get(name, 0) + 1
    return counts


def _span_rollup(records: list[dict]) -> dict[str, dict]:
    rollup: dict[str, dict] = {}
    for rec in records:
        if rec.get("type") != "span":
            continue
        name = str(rec.get("name", "?"))
        dur = float(rec.get("dur_s", 0.0))
        agg = rollup.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
    for agg in rollup.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    return rollup


def _cache_rows(counters: dict) -> list[tuple[str, float, float, float]]:
    """Per-layer ``(layer, hits, misses, hit rate %)`` from ``cache.*``
    counters, as numbers; the text report formats them.

    Layers are discovered from ``cache.<layer>.hits`` /
    ``cache.<layer>.misses`` counter names; the aggregate
    ``cache.hits`` / ``cache.misses`` pair becomes a ``total`` row.
    """
    layers: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        parts = name.split(".")
        if parts[0] != "cache" or parts[-1] not in ("hits", "misses"):
            continue
        layer = ".".join(parts[1:-1]) or "total"
        layers.setdefault(layer, {})[parts[-1]] = value
    rows = []
    for layer in sorted(layers, key=lambda k: (k == "total", k)):
        hits = layers[layer].get("hits", 0)
        misses = layers[layer].get("misses", 0)
        lookups = hits + misses
        rate = 100.0 * hits / lookups if lookups else 0.0
        rows.append((layer, hits, misses, rate))
    return rows


def _study_breakdown(records: list[dict]) -> list[list[object]]:
    """Per-(algorithm, simulator) rows from ``study.record`` events."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        if rec.get("type") == "event" and rec.get("name") == "study.record":
            key = (str(rec.get("algorithm")), str(rec.get("simulator")))
            groups.setdefault(key, []).append(rec)
    rows: list[list[object]] = []
    for (algorithm, simulator), recs in sorted(groups.items()):
        sims = [float(r["sim_makespan"]) for r in recs]
        exps = [float(r["exp_makespan"]) for r in recs]
        errors = [
            abs(relative_error(s, e)) for s, e in zip(sims, exps) if e > 0
        ]
        rows.append(
            [
                algorithm,
                simulator,
                len(recs),
                sum(sims) / len(sims),
                sum(exps) / len(exps),
                100.0 * sum(errors) / len(errors) if errors else 0.0,
            ]
        )
    return rows


#: The per-cell pipeline phases whose span totals make up a study
#: cell's useful work (the remainder of ``study.grid`` is orchestration
#: and, in parallel sweeps, pool dispatch).
_STUDY_PHASES = ("study.schedule", "study.simulate", "study.execute")


def _study_throughput(counters: dict, spans: dict) -> dict | None:
    """End-to-end study throughput from the runner's grid timings.

    The study runner times its whole grid sweep as ``study.grid`` and
    the time spent blocked on pool futures as ``study.dispatch`` (zero
    for serial sweeps); ``study.runs`` counts the cells.  From those,
    cells/sec end to end and the dispatch share of the sweep.  The
    per-phase totals are summed across processes, so in parallel sweeps
    they can exceed the grid wall-clock — they answer "where did the
    compute go", not "how long did it take".

    Degenerate sweeps stay renderable instead of raising or vanishing:
    a zero-cell study (empty grid) or an instantaneous one (a grid
    wall-clock rounding to zero, or an all-cached replay with a
    missing/zero ``study.dispatch``) yields ``None`` for the ratios —
    rendered as a dash — rather than a division by zero.  The section
    only disappears entirely when the trace recorded no ``study.grid``
    sweep at all.
    """
    grid = spans.get("study.grid")
    if not grid or not grid.get("count"):
        return None
    grid_s = float(grid.get("total_s") or 0.0)
    cells = float(counters.get("study.runs", 0))
    dispatch = spans.get("study.dispatch")
    dispatch_s = (
        float(dispatch.get("total_s") or 0.0)
        if dispatch and dispatch.get("count")
        else None
    )
    phase_s = sum(
        float(spans.get(name, {}).get("total_s", 0.0))
        for name in _STUDY_PHASES
    )
    return {
        "cells": cells,
        "grid_s": grid_s,
        "cells_per_sec": cells / grid_s if cells and grid_s else None,
        "dispatch_s": dispatch_s,
        "dispatch_pct": (
            100.0 * dispatch_s / grid_s
            if dispatch_s is not None and grid_s
            else None
        ),
        "phase_s": phase_s,
    }


def report_json(
    records: list[dict], manifest: RunManifest | None
) -> dict:
    """Machine-readable report of one trace (``repro report --json``).

    The same sources and fallbacks as :func:`render_report` — manifest
    rollups where present, stream-derived aggregates otherwise — but as
    one JSON-serialisable document, so tools consume reports without
    scraping the text tables.
    """
    counters: dict[str, float] = {}
    if manifest is not None:
        counters.update(manifest.metrics.get("counters", {}))
    if not counters:
        counters = dict(_event_counts(records))

    cache: dict[str, dict] = {}
    for layer, hits, misses, rate in _cache_rows(counters):
        cache[layer] = {
            "hits": float(hits),
            "misses": float(misses),
            "hit_rate_pct": rate,
        }

    spans = (
        manifest.metrics.get("spans", {}) if manifest is not None else {}
    ) or _span_rollup(records)

    study = [
        {
            "algorithm": algorithm,
            "simulator": simulator,
            "runs": runs,
            "mean_sim_makespan": mean_sim,
            "mean_exp_makespan": mean_exp,
            "mean_abs_error_pct": err,
        }
        for algorithm, simulator, runs, mean_sim, mean_exp, err
        in _study_breakdown(records)
    ]

    timeline = {
        name[len("timeline."):]: value
        for name, value in counters.items()
        if name.startswith("timeline.")
    }

    return {
        "schema": 1,
        "manifest": manifest.to_dict() if manifest is not None else None,
        "records": len(records),
        "events": _event_counts(records),
        "counters": dict(sorted(counters.items())),
        "cache": cache,
        "spans": spans,
        "timeline": timeline,
        "study": study,
        # End-to-end cells/sec and pool-dispatch share; None for traces
        # without a study sweep.
        "throughput": _study_throughput(counters, spans),
        # Wall-clock profile rollup (span paths + kernel cost table);
        # present only when the run attached a Profiler.
        "profile": (
            manifest.metrics.get("profile")
            if manifest is not None
            else None
        ),
    }


def _count(value: float) -> str:
    """``{:g}``, but every digit of an integral value of 10^6 or more."""
    if abs(value) >= 1e6 and float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def render_report(
    records: list[dict],
    manifest: RunManifest | None,
    *,
    top: int = 15,
) -> str:
    """Human-readable summary of one trace."""
    lines: list[str] = []
    if manifest is not None:
        lines.append(
            f"run: repro {manifest.version}  seed={manifest.seed}  "
            f"python={manifest.python}  created={manifest.created}"
        )
        if manifest.command:
            lines.append(f"command: {manifest.command}")
        if manifest.platform:
            plat = manifest.platform
            lines.append(
                f"platform: {plat.get('name', '?')} "
                f"({plat.get('num_nodes', '?')} nodes, "
                f"{plat.get('flops', 0) / 1e6:.0f} MFlop/s)"
            )
        if manifest.simulators:
            lines.append(f"simulators: {', '.join(manifest.simulators)}")
        if manifest.algorithms:
            lines.append(f"algorithms: {', '.join(manifest.algorithms)}")
    else:
        lines.append("(no manifest record in trace)")
    lines.append(f"records: {len(records)}")

    # Counters: manifest rollup first, event frequencies as fallback.
    counters: dict[str, float] = {}
    if manifest is not None:
        counters.update(manifest.metrics.get("counters", {}))
    if not counters:
        counters = dict(_event_counts(records))
    if counters:
        lines.append("")
        lines.append(f"top counters (of {len(counters)}):")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        lines.append(
            format_table(
                ["counter", "value"],
                [[name, _count(value)] for name, value in ranked[:top]],
            )
        )

    cache_rows = _cache_rows(counters)
    if cache_rows:
        lines.append("")
        lines.append("result cache (per layer):")
        lines.append(
            format_table(
                ["layer", "hits", "misses", "hit rate %"],
                [
                    [layer, _count(hits), _count(misses), f"{rate:.1f}"]
                    for layer, hits, misses, rate in cache_rows
                ],
            )
        )
        for name in ("cache.bytes_read", "cache.bytes_written"):
            if name in counters:
                lines.append(f"{name}: {_count(counters[name])}")

    spans = (
        manifest.metrics.get("spans", {}) if manifest is not None else {}
    ) or _span_rollup(records)
    if spans:
        lines.append("")
        lines.append("span timings:")
        rows = [
            [
                name,
                agg["count"],
                f"{agg['total_s']:.4f}",
                f"{1e3 * agg.get('mean_s', 0.0):.3f}",
                f"{1e3 * agg['max_s']:.3f}",
            ]
            for name, agg in sorted(
                spans.items(), key=lambda kv: -kv[1]["total_s"]
            )
        ]
        lines.append(
            format_table(
                ["span", "count", "total [s]", "mean [ms]", "max [ms]"], rows
            )
        )

    profile = (
        manifest.metrics.get("profile") if manifest is not None else None
    )
    if profile:
        prof_spans = profile.get("spans", {})
        kernels = profile.get("kernels", {})
        lines.append("")
        lines.append(
            f"wall-clock profile: {len(prof_spans)} span paths, "
            f"{len(kernels)} kernel rows "
            "(full detail: repro report --json)"
        )
        if kernels:
            rows = [
                [
                    key.rsplit(";", 1)[0],
                    key.rsplit(";", 1)[1],
                    agg["count"],
                    f"{1e6 * agg['total_s'] / agg['count']:.1f}"
                    if agg["count"]
                    else "-",
                ]
                for key, agg in sorted(kernels.items())
            ]
            lines.append(
                format_table(
                    ["kernel", "size<=", "calls", "mean [us]"], rows[:top]
                )
            )

    timeline_counts = {
        name[len("timeline."):]: value
        for name, value in counters.items()
        if name.startswith("timeline.")
    }
    if timeline_counts:
        lines.append("")
        lines.append("simulated-time timeline (see --timeline-out):")
        lines.append(
            format_table(
                ["kind", "records"],
                [
                    [kind, _count(value)]
                    for kind, value in sorted(timeline_counts.items())
                ],
            )
        )

    throughput = _study_throughput(counters, spans)
    if throughput:
        # Ratios are None for degenerate sweeps (zero cells, or a grid
        # wall-clock that rounded to zero): render a dash, never divide.
        rate = throughput["cells_per_sec"]
        rate_s = f"{rate:.1f}" if rate is not None else "-"
        lines.append("")
        lines.append(
            f"study throughput: {_count(throughput['cells'])} cells in "
            f"{throughput['grid_s']:.3f} s = "
            f"{rate_s} cells/s end to end"
        )
        dispatch_s = throughput["dispatch_s"]
        dispatch_pct = throughput["dispatch_pct"]
        lines.append(
            "  pool dispatch: "
            + (
                f"{dispatch_s:.3f} s" if dispatch_s is not None else "-"
            )
            + " blocked on futures ("
            + (
                f"{dispatch_pct:.1f} %"
                if dispatch_pct is not None
                else "-"
            )
            + f" of the sweep); pipeline phases: "
            f"{throughput['phase_s']:.3f} s summed across processes"
        )

    breakdown = _study_breakdown(records)
    if breakdown:
        lines.append("")
        lines.append("per-(algorithm, simulator) makespans:")
        lines.append(
            format_table(
                [
                    "algorithm",
                    "simulator",
                    "runs",
                    "mean sim [s]",
                    "mean exp [s]",
                    "mean |err| %",
                ],
                [
                    row[:3] + [f"{row[3]:.2f}", f"{row[4]:.2f}", f"{row[5]:.1f}"]
                    for row in breakdown
                ],
            )
        )
    return "\n".join(lines)


def report_file(path: Union[str, Path], *, top: int = 15) -> str:
    """Convenience: load ``path`` and render its report."""
    records, manifest = load_trace(path)
    return render_report(records, manifest, top=top)
