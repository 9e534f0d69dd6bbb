"""Profiler span/probe accounting."""

from __future__ import annotations

import time

import pytest

from repro.obs.prof import Profiler, size_bucket
from repro.obs.recorder import Recorder, SpanStats


class _Clock:
    """Stands in for ``time.perf_counter``; only :meth:`advance` moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    """Exact span durations: the recorder reads ``time.perf_counter``
    at span entry and exit."""
    fake = _Clock()
    monkeypatch.setattr(time, "perf_counter", fake)
    return fake


def _row(stats: SpanStats) -> list:
    return [stats.count, stats.total, stats.min, stats.max]


# ----------------------------------------------------------------------
# size_bucket
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, bucket",
    [(-3, 0), (0, 0), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8),
     (9, 16), (100, 128), (128, 128), (129, 256)],
)
def test_size_bucket(n, bucket):
    assert size_bucket(n) == bucket


# ----------------------------------------------------------------------
# Profiler core
# ----------------------------------------------------------------------
def test_nested_spans_build_path_tree(clock):
    prof = Profiler()
    rec = Recorder(profiler=prof)
    with rec.span("outer"):
        with rec.span("inner"):
            clock.advance(0.25)
        clock.advance(0.75)
    assert _row(prof.spans[("outer",)]) == [1, 1.0, 1.0, 1.0]
    assert _row(prof.spans[("outer", "inner")]) == [1, 0.25, 0.25, 0.25]
    # Both spans closed: the next measurement lands at the root again.
    rec.timing("after", 0.5)
    assert ("after",) in prof.spans


def test_repeated_spans_accumulate(clock):
    prof = Profiler()
    rec = Recorder(profiler=prof)
    for seconds in (1.0, 3.0, 2.0):
        with rec.span("step"):
            clock.advance(seconds)
    assert _row(prof.spans[("step",)]) == [3, 6.0, 1.0, 3.0]


def test_timing_attaches_under_open_span():
    prof = Profiler()
    rec = Recorder(profiler=prof)
    with rec.span("parent"):
        rec.timing("solve", 0.5)
        rec.timing("solve", 0.25)
    assert _row(prof.spans[("parent", "solve")]) == [2, 0.75, 0.25, 0.5]


def test_probe_buckets_sizes():
    prof = Profiler()
    prof.probe("solve_rates", 3, 0.1)
    prof.probe("solve_rates", 4, 0.3)  # same bucket (4)
    prof.probe("solve_rates", 5, 0.2)  # bucket 8
    assert _row(prof.kernels[("solve_rates", 4)]) == [2, 0.4, 0.1, 0.3]
    assert _row(prof.kernels[("solve_rates", 8)]) == [1, 0.2, 0.2, 0.2]
    assert prof.kernel_table() == [
        ("solve_rates", 4, 2, 0.4, 0.2),
        ("solve_rates", 8, 1, 0.2, 0.2),
    ]


def test_export_absorb_round_trip_merges(clock):
    a = Recorder(profiler=Profiler())
    with a.span("phase"):
        clock.advance(1.0)
    a.profiler.probe("critical_path_dp", 4, 0.5)
    b = Recorder(profiler=Profiler())
    with b.span("phase"):
        with b.span("child"):
            clock.advance(0.5)
        clock.advance(1.5)
    b.profiler.probe("critical_path_dp", 4, 0.25)
    merged = Recorder(profiler=Profiler())
    merged.absorb(a.export_state())
    merged.absorb(b.export_state())
    spans, kernels = merged.profiler.spans, merged.profiler.kernels
    assert _row(spans[("phase",)]) == [2, 3.0, 1.0, 2.0]
    assert _row(spans[("phase", "child")]) == [1, 0.5, 0.5, 0.5]
    assert _row(kernels[("critical_path_dp", 4)]) == [2, 0.75, 0.25, 0.5]
    # Absorption order does not change the merged state.
    other = Recorder(profiler=Profiler())
    other.absorb(b.export_state())
    other.absorb(a.export_state())
    assert other.export_state() == merged.export_state()


def test_structure_ignores_durations(clock):
    fast, slow = Profiler(), Profiler()
    for prof, seconds in ((fast, 0.001), (slow, 123.0)):
        with Recorder(profiler=prof).span("a"):
            clock.advance(seconds)
        prof.probe("alloc_grow", 7, seconds)
    assert fast.structure() == slow.structure()
    assert fast.structure()["spans"] == {"a": 1}
    assert fast.structure()["kernels"] == {"alloc_grow;8": 1}


def test_render_lists_spans_and_kernels():
    prof = Profiler()
    rec = Recorder(profiler=prof)
    with rec.span("study"):
        rec.timing("solve", 0.5)
    prof.probe("solve_rates", 12, 0.001)
    text = prof.render()
    assert "study" in text
    assert "solve" in text
    assert "solve_rates" in text
    # Empty profilers render placeholders, not empty tables.
    empty = Profiler().render()
    assert "no spans recorded" in empty
    assert "no kernel probes recorded" in empty


def test_recorder_span_feeds_profiler():
    prof = Profiler()
    rec = Recorder(profiler=prof)
    assert rec.enabled  # a profiler alone enables recording
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        rec.timing("leafed", 0.125)
    assert ("outer",) in prof.spans
    assert ("outer", "inner") in prof.spans
    assert prof.spans[("outer", "leafed")].total == 0.125
    # The profiler's tree is the recorder's one table, not a copy.
    assert prof.spans is rec.span_paths


def test_recorder_export_state_carries_profile():
    prof = Profiler()
    rec = Recorder(profiler=prof)
    with rec.span("work"):
        pass
    prof.probe("solve_rates", 3, 0.5)
    state = rec.export_state()
    assert "work" in state["spans"]
    assert "solve_rates;4" in state["kernels"]
    parent = Recorder(profiler=Profiler())
    parent.absorb(state)
    assert ("work",) in parent.profiler.spans
    assert parent.metrics()["profile"]["spans"]["work"]["count"] == 1
    assert parent.profiler.kernels[("solve_rates", 4)].count == 1


def test_recorder_without_profiler_keeps_metrics_shape():
    rec = Recorder.to_memory()
    with rec.span("work"):
        pass
    assert "profile" not in rec.metrics()
    assert "kernels" not in rec.export_state()
