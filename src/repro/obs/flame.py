"""Profile exporters: collapsed stacks and a Chrome-trace wall lane.

Two render targets for a :class:`~repro.obs.prof.Profiler`:

* :func:`collapsed_stacks` — Brendan Gregg's collapsed-stack text
  (``path;to;frame <value>``), the input format of ``flamegraph.pl``,
  speedscope and most flamegraph viewers.  Values are integer
  microseconds of *self* time (a frame's total minus its children's),
  so the flamegraph's widths add up correctly.
* :func:`chrome_profile_events` — the aggregate span tree laid out as
  nested ``"X"`` (complete) slices in Chrome-trace format, on its own
  ``pid`` so it composes with the simulated-time timeline lanes of
  :func:`repro.obs.export.chrome_trace` in one Perfetto view
  (``repro profile --what wall --chrome``).  The lane is an *aggregate*
  layout, not a replay: siblings are placed sequentially and a parent
  spans at least its children, so nesting is strict even when clock
  jitter makes children sum past their parent.
"""

from __future__ import annotations

from repro.obs.prof import Profiler
from repro.obs.recorder import PATH_SEP

__all__ = [
    "chrome_profile_events",
    "chrome_profile_trace",
    "collapsed_stacks",
    "parse_collapsed",
    "paths_from_chrome",
]

#: Process id of the wall-clock lane; the simulated-time timeline
#: export uses pid 1, so the two sort as separate process groups.
PROFILE_PID = 2


def _micros(profiler: Profiler) -> dict[tuple[str, ...], int]:
    """Explicit span totals in integer microseconds, path-keyed."""
    return {
        path: int(round(stats.total * 1e6))
        for path, stats in profiler.spans.items()
    }


def _children(
    totals: dict[tuple[str, ...], int]
) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
    """Parent -> sorted direct children, including implicit parents.

    A merged profile can hold a path whose prefix was never recorded
    itself (an orphan); implicit parents are materialized so the tree
    walk always reaches every explicit node.
    """
    children: dict[tuple[str, ...], list[tuple[str, ...]]] = {(): []}
    known: set[tuple[str, ...]] = {()}
    for path in sorted(totals):
        for depth in range(1, len(path) + 1):
            node = path[:depth]
            if node in known:
                continue
            known.add(node)
            children.setdefault(node[:-1], []).append(node)
            children.setdefault(node, [])
    return children


def collapsed_stacks(profiler: Profiler) -> str:
    """Collapsed-stack flamegraph text (one sorted line per span path).

    Each recorded path appears exactly once with its *self* time in
    integer microseconds (total minus direct children, clamped at
    zero), so :func:`parse_collapsed` round-trips the mapping exactly.
    """
    totals = _micros(profiler)
    children = _children(totals)
    lines = []
    for path in sorted(totals):
        child_sum = sum(totals.get(c, 0) for c in children.get(path, ()))
        self_us = totals[path] - child_sum
        if self_us < 0:
            self_us = 0
        lines.append(f"{PATH_SEP.join(path)} {self_us}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Inverse of :func:`collapsed_stacks` (used by the round-trip tests).

    Accepts any well-formed collapsed-stack text: one ``path <int>``
    per line, frames separated by ``;``.  Repeated paths accumulate,
    matching how flamegraph tools fold duplicate lines.
    """
    samples: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        stack, sep, value = line.rpartition(" ")
        if not sep or not stack:
            raise ValueError(
                f"line {lineno}: expected 'path;to;frame <value>', "
                f"got {line!r}"
            )
        try:
            count = int(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: sample value {value!r} is not an integer"
            ) from None
        path = tuple(stack.split(PATH_SEP))
        samples[path] = samples.get(path, 0) + count
    return samples


def chrome_profile_events(
    profiler: Profiler, *, pid: int = PROFILE_PID, tid: int = 1
) -> list[dict]:
    """The aggregate span tree as nested Chrome-trace ``"X"`` slices.

    Siblings are laid out sequentially inside their parent starting at
    the parent's timestamp; a parent's duration is widened to cover its
    children when measurement jitter makes them sum past it.  Every
    slice carries its full path and call count in ``args`` so the tree
    is recoverable from the JSON (:func:`paths_from_chrome`).
    """
    totals = _micros(profiler)
    children = _children(totals)

    def duration(path: tuple[str, ...]) -> int:
        own = totals.get(path, 0)
        child_sum = sum(duration(c) for c in children.get(path, ()))
        return own if own >= child_sum else child_sum

    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "wall-clock profile"},
        }
    ]

    def emit(path: tuple[str, ...], start: int) -> int:
        dur = duration(path)
        stats = profiler.spans.get(path)
        events.append(
            {
                "name": path[-1],
                "cat": "profile",
                "ph": "X",
                "ts": start,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "args": {
                    "path": PATH_SEP.join(path),
                    "count": stats.count if stats is not None else 0,
                },
            }
        )
        cursor = start
        for child in children.get(path, ()):
            cursor = emit(child, cursor)
        return start + dur

    cursor = 0
    for root in children[()]:
        cursor = emit(root, cursor)
    return events


def chrome_profile_trace(profiler: Profiler) -> dict:
    """A standalone Chrome-trace document holding only the wall lane."""
    return {
        "traceEvents": chrome_profile_events(profiler),
        "displayTimeUnit": "ms",
    }


def paths_from_chrome(events: list[dict]) -> dict[tuple[str, ...], int]:
    """Recover ``{span path: call count}`` from a profile lane's events.

    The inverse the round-trip tests need: metadata events are skipped,
    slice events contribute the path/count recorded in their ``args``.
    """
    paths: dict[tuple[str, ...], int] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        path = args.get("path")
        if path is None:
            raise ValueError(
                f"profile slice {event.get('name')!r} lacks args.path"
            )
        paths[tuple(path.split(PATH_SEP))] = args.get("count", 0)
    return paths
