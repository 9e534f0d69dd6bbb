"""The parallel study runner must be indistinguishable from the serial one."""

from __future__ import annotations

import pytest

from repro.dag.generator import generate_paper_dags
from repro.obs.recorder import Recorder, recording
from repro.obs.sinks import MemorySink
from repro.obs.timeline import Timeline, timeline_lines
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite
from repro.experiments.runner import run_study
from repro.testbed.tgrid import TGridEmulator


@pytest.fixture(scope="module")
def study_inputs():
    platform = bayreuth_cluster(8)
    emulator = TGridEmulator(platform, seed=0)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:3]
    return dags, suite, emulator


def test_workers_must_be_positive(study_inputs):
    dags, suite, emulator = study_inputs
    with pytest.raises(ValueError):
        run_study(dags, [suite], emulator, workers=0)


def test_parallel_equals_serial_record_for_record(study_inputs):
    dags, suite, emulator = study_inputs
    serial = run_study(dags, [suite], emulator, workers=1)
    parallel = run_study(dags, [suite], emulator, workers=2)
    assert len(serial.records) == len(dags) * 2
    # Same records, same values, same order — not approximately: the
    # grid cells are deterministic and order-independent.
    assert serial.records == parallel.records


def test_parallel_merges_observability_deterministically(study_inputs):
    dags, suite, emulator = study_inputs
    recorders = []
    for workers in (1, 2):
        rec = Recorder.to_memory()
        with recording(rec):
            run_study(dags, [suite], emulator, workers=workers)
        recorders.append(rec)
    serial, parallel = recorders

    # runner.workers_clamped fires whenever the requested pool exceeds
    # the host's cores — true for the workers=2 leg on 1-core runners —
    # and is the one counter allowed to differ between the modes.
    def counters(rec_obj):
        return {
            k: v
            for k, v in rec_obj.metrics()["counters"].items()
            if k != "runner.workers_clamped"
        }

    assert counters(serial) == counters(parallel)
    # The per-record study events arrive in grid submission order in
    # both modes.
    for rec_obj in (serial, parallel):
        assert rec_obj.sink.records  # something was recorded
    serial_events = [
        r for r in serial.sink.records if r.get("name") == "study.record"
    ]
    parallel_events = [
        r for r in parallel.sink.records if r.get("name") == "study.record"
    ]
    assert serial_events == parallel_events
    # Span aggregates merge: same span names, same counts (durations
    # are wall-clock and may differ).
    s_spans = serial.metrics()["spans"]
    p_spans = parallel.metrics()["spans"]
    assert set(s_spans) == set(p_spans)
    for name in s_spans:
        assert s_spans[name]["count"] == p_spans[name]["count"]


def test_parallel_timeline_matches_serial_byte_for_byte(study_inputs):
    dags, suite, emulator = study_inputs
    timelines = []
    for workers in (1, 2):
        rec = Recorder(timeline=Timeline())
        with recording(rec):
            run_study(dags, [suite], emulator, workers=workers)
        timelines.append(rec.timeline)
    serial, parallel = timelines
    assert serial.run_count == parallel.run_count > 0
    # Worker timelines are absorbed in grid submission order and their
    # run ids renumbered, so the merged timeline is byte-identical to
    # serial emission — simulated time has no wall-clock jitter.
    assert timeline_lines(parallel.records) == timeline_lines(serial.records)


def test_absorb_determinism_with_interleaved_spans_and_events():
    # Workers interleave events, counters, spans, and timeline runs;
    # absorbing their payloads in a fixed order must always produce the
    # same merged state regardless of how each worker interleaved them.
    def worker_state(idx):
        rec = Recorder(MemorySink(), timeline=Timeline())
        rec.event("cell.start", idx=idx)
        with rec.span("cell.work", idx=idx):
            rec.timeline.begin_run(dag=f"d{idx}", algorithm="hcpa")
            rec.timeline.task(0, (0,), 0.0, 1.0 + idx, 0.0)
            rec.timeline.end_run(makespan=1.0 + idx, tasks=1, xfers=0)
            rec.count("cells")
        rec.event("cell.done", idx=idx)
        return rec.export_state()

    states = [worker_state(i) for i in range(3)]
    parents = []
    for _ in range(2):
        parent = Recorder(MemorySink(), timeline=Timeline())
        for state in states:
            parent.absorb(state)
        parents.append(parent)
    first, second = parents
    assert first.sink.records == second.sink.records
    assert [r["idx"] for r in first.sink.records if r["name"] == "cell.start"] \
        == [0, 1, 2]
    assert first.counters["cells"] == 3
    assert first.spans["cell.work"].count == 3
    assert timeline_lines(first.timeline.records) == timeline_lines(
        second.timeline.records
    )
    runs = [r for r in first.timeline.records if r["kind"] == "run"]
    assert [r["run"] for r in runs] == [0, 1, 2]
    assert [r["dag"] for r in runs] == ["d0", "d1", "d2"]


def test_parallel_study_attaches_manifest(study_inputs):
    dags, suite, emulator = study_inputs
    result = run_study(dags, [suite], emulator, workers=2)
    assert result.manifest is not None
    assert result.manifest.num_records == len(result.records)
