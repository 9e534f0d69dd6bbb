"""Profiler span/probe accounting."""

from __future__ import annotations

import pytest

from repro.obs.prof import Profiler, size_bucket
from repro.obs.recorder import Recorder


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
def test_push_pop_builds_path_tree():
    prof = Profiler()
    prof.push("outer")
    prof.push("inner")
    assert prof.current_path() == ("outer", "inner")
    prof.pop(0.25)
    prof.pop(1.0)
    assert prof.spans[("outer",)] == [1, 1.0, 1.0, 1.0]
    assert prof.spans[("outer", "inner")] == [1, 0.25, 0.25, 0.25]
    assert prof.current_path() == ()


def test_repeated_spans_accumulate():
    prof = Profiler()
    for seconds in (1.0, 3.0, 2.0):
        prof.push("step")
        prof.pop(seconds)
    assert prof.spans[("step",)] == [3, 6.0, 1.0, 3.0]


def test_leaf_attaches_under_current_path():
    prof = Profiler()
    prof.push("parent")
    prof.leaf("solve", 0.5)
    prof.leaf("solve", 0.25)
    prof.pop(1.0)
    assert prof.spans[("parent", "solve")] == [2, 0.75, 0.25, 0.5]


def test_probe_buckets_sizes():
    prof = Profiler()
    prof.probe("solve_rates", 3, 0.1)
    prof.probe("solve_rates", 4, 0.3)  # same bucket (4)
    prof.probe("solve_rates", 5, 0.2)  # bucket 8
    assert prof.kernels[("solve_rates", 4)] == [2, 0.4, 0.1, 0.3]
    assert prof.kernels[("solve_rates", 8)] == [1, 0.2, 0.2, 0.2]
    assert prof.kernel_table() == [
        ("solve_rates", 4, 2, 0.4, 0.2),
        ("solve_rates", 8, 1, 0.2, 0.2),
    ]


def test_export_absorb_round_trip_merges():
    a = Profiler()
    a.push("phase")
    a.pop(1.0)
    a.probe("critical_path_dp", 4, 0.5)
    b = Profiler()
    b.push("phase")
    b.push("child")
    b.pop(0.5)
    b.pop(2.0)
    b.probe("critical_path_dp", 4, 0.25)
    merged = Profiler()
    merged.absorb(a.export_state())
    merged.absorb(b.export_state())
    assert merged.spans[("phase",)] == [2, 3.0, 1.0, 2.0]
    assert merged.spans[("phase", "child")] == [1, 0.5, 0.5, 0.5]
    assert merged.kernels[("critical_path_dp", 4)] == [2, 0.75, 0.25, 0.5]
    # Absorption order does not change the merged state.
    other = Profiler()
    other.absorb(b.export_state())
    other.absorb(a.export_state())
    assert other.export_state() == merged.export_state()


def test_structure_ignores_durations():
    fast, slow = Profiler(), Profiler()
    for prof, seconds in ((fast, 0.001), (slow, 123.0)):
        prof.push("a")
        prof.pop(seconds)
        prof.probe("alloc_grow", 7, seconds)
    assert fast.structure() == slow.structure()
    assert fast.structure()["spans"] == {"a": 1}
    assert fast.structure()["kernels"] == {"alloc_grow;8": 1}


def test_render_lists_spans_and_kernels():
    prof = Profiler()
    prof.push("study")
    prof.leaf("solve", 0.5)
    prof.pop(1.0)
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
    assert prof.spans[("outer", "leafed")][1] == 0.125


def test_recorder_export_state_carries_profile():
    prof = Profiler()
    rec = Recorder(profiler=prof)
    with rec.span("work"):
        pass
    state = rec.export_state()
    assert "work" in state["profile"]["spans"]
    parent = Recorder(profiler=Profiler())
    parent.absorb(state)
    assert ("work",) in parent.profiler.spans
    assert parent.metrics()["profile"]["spans"]["work"]["count"] == 1


def test_recorder_without_profiler_keeps_metrics_shape():
    rec = Recorder.to_memory()
    with rec.span("work"):
        pass
    assert "profile" not in rec.metrics()
    assert "profile" not in rec.export_state()
