"""A pooled study must be indistinguishable from an in-process one.

The grid walk (see :mod:`repro.experiments.runner`) may regroup the
grid into arbitrary chunks, pre-lower layouts in the parent, replay
cached cells inside its chunks and ship one compact observability
payload per chunk — but none of that is allowed to show: records,
counters, events, timeline lines and profiler structure must equal the
``workers=1`` study's bit for bit at every (workers, chunk)
combination.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.cache import ResultCache
from repro.dag.generator import generate_paper_dags
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_study
from repro.obs.live import LiveTelemetry
from repro.obs.prof import Profiler
from repro.obs.recorder import Recorder, get_recorder, recording
from repro.obs.sinks import MemorySink
from repro.obs.timeline import Timeline, timeline_lines
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite
from repro.testbed.tgrid import TGridEmulator


@pytest.fixture(scope="module")
def study_inputs():
    platform = bayreuth_cluster(8)
    emulator = TGridEmulator(platform, seed=0)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:3]
    return dags, suite, emulator


def _observed_study(study_inputs, *, workers, chunk=0, cache=None,
                    telemetry=None):
    """One fully-observed study; returns its comparable facets."""
    dags, suite, emulator = study_inputs
    sink = MemorySink()
    rec = Recorder(sink, timeline=Timeline(), profiler=Profiler())
    with recording(rec):
        result = run_study(
            dags, [suite], emulator, workers=workers, chunk=chunk,
            cache=cache, telemetry=telemetry,
        )
    # The clamp counter legitimately differs across hosts (it fires
    # whenever the requested pool exceeds the core count).
    counters = {
        k: v
        for k, v in rec.metrics()["counters"].items()
        if k != "runner.workers_clamped"
    }
    return {
        "records": result.records,
        "events": [r for r in sink.records if r.get("type") == "event"],
        "counters": counters,
        "span_counts": {
            name: agg["count"]
            for name, agg in rec.metrics()["spans"].items()
        },
        "timeline": timeline_lines(rec.timeline.records),
        "profile": rec.profiler.structure(),
    }


def test_chunked_matches_serial_on_every_facet(study_inputs):
    serial = _observed_study(study_inputs, workers=1)
    assert serial["records"]  # the study actually ran
    for workers, chunk in [(2, 1), (2, 4), (4, 1), (4, 4), (4, 10**9)]:
        chunked = _observed_study(
            study_inputs, workers=workers, chunk=chunk
        )
        for facet in ("records", "events", "counters", "span_counts",
                      "timeline", "profile"):
            assert chunked[facet] == serial[facet], (
                f"{facet} diverged at workers={workers}, chunk={chunk}"
            )


def test_chunked_cold_and_warm_cache_match_serial(study_inputs, tmp_path):
    dags, suite, emulator = study_inputs

    def partly_warm(name):
        # Only the middle DAG is cached, so the pool's chunks mix
        # cache hits with misses.
        run_study(dags[1:2], [suite], emulator,
                  cache=ResultCache(tmp_path / name))
        return ResultCache(tmp_path / name)

    serial_cold = _observed_study(
        study_inputs, workers=1, cache=ResultCache(tmp_path / "serial")
    )
    serial_warm = _observed_study(
        study_inputs, workers=1, cache=ResultCache(tmp_path / "serial")
    )
    serial_partial = _observed_study(
        study_inputs, workers=1, cache=partly_warm("serial_partial")
    )
    cold = _observed_study(
        study_inputs, workers=4, chunk=2,
        cache=ResultCache(tmp_path / "chunked"),
    )
    warm = _observed_study(
        study_inputs, workers=4, chunk=2,
        cache=ResultCache(tmp_path / "chunked"),
    )
    runs = [("cold", serial_cold, cold), ("warm", serial_warm, warm)]
    # The pool replays the two hits (positions 2 and 3) inside its
    # chunks: chunk=2 gives them a chunk of their own, chunk=3 puts
    # each in a chunk with two misses.
    for chunk in (2, 3):
        partial = _observed_study(
            study_inputs, workers=4, chunk=chunk,
            cache=partly_warm(f"chunked_partial_{chunk}"),
        )
        # The middle DAG's two cells hit; the other four cells miss.
        assert partial["counters"]["cache.hits"] == 2
        assert partial["counters"]["cache.misses"] == 4
        runs.append((f"partly warm, chunk={chunk}", serial_partial, partial))
    for label, a, b in runs:
        for facet in ("records", "events", "counters", "span_counts",
                      "timeline", "profile"):
            assert a[facet] == b[facet], f"{facet} diverged on {label} run"
    # The warm runs replayed every cell from the cache.
    assert warm["counters"]["cache.hits"] > 0
    assert warm["counters"].get("cache.misses", 0) == 0


def _forbid(what):
    def _fail(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(f"study {what}")

    return _fail


def test_warm_study_never_touches_the_pool(study_inputs, tmp_path,
                                           monkeypatch, fast_heartbeat):
    dags, suite, emulator = study_inputs
    cache = ResultCache(tmp_path / "cache")
    cold = run_study(dags, [suite], emulator, workers=2, cache=cache)

    monkeypatch.setattr(
        runner_mod, "ProcessPoolExecutor",
        _forbid("constructed a process pool"),
    )
    warm = run_study(dags, [suite], emulator, workers=2, cache=cache)
    assert warm.records == cold.records

    # A one-worker study stays in process: cold, warm and fully
    # observed, it neither forks a pool nor probes the cache.
    monkeypatch.setattr(ResultCache, "contains", _forbid("probed the cache"))
    for _run in ("cold", "warm"):
        result = run_study(
            dags, [suite], emulator, workers=1,
            cache=ResultCache(tmp_path / "serial"),
        )
        assert result.records == cold.records
    telemetry = LiveTelemetry().start()
    try:
        observed = _observed_study(
            study_inputs, workers=1, telemetry=telemetry
        )
    finally:
        telemetry.close()
    assert observed["records"] == cold.records


def test_empty_grid_parallel(study_inputs):
    _dags, suite, emulator = study_inputs
    result = run_study([], [suite], emulator, workers=4, chunk=4)
    assert result.records == []
    assert result.manifest is not None


def test_single_cell_parallel(study_inputs):
    dags, suite, emulator = study_inputs
    serial = run_study(
        dags[:1], [suite], emulator, algorithms=("hcpa",), workers=1
    )
    chunked = run_study(
        dags[:1], [suite], emulator, algorithms=("hcpa",), workers=4,
        chunk=4,
    )
    assert len(serial.records) == 1
    assert chunked.records == serial.records


def test_workers_clamped_to_cpu_count(study_inputs, monkeypatch):
    dags, suite, emulator = study_inputs
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 1)
    # One core leaves one worker, and a one-worker pool would only add
    # the fork, pickling and merge: the clamped study stays in process.
    monkeypatch.setattr(
        runner_mod, "ProcessPoolExecutor",
        _forbid("constructed a process pool"),
    )
    rec = Recorder.to_memory()
    with recording(rec):
        clamped = run_study(dags[:1], [suite], emulator, workers=8)
    assert rec.counters["runner.workers_clamped"] == 1
    serial = run_study(dags[:1], [suite], emulator, workers=1)
    assert clamped.records == serial.records


def test_workers_within_cpu_count_not_clamped(study_inputs, monkeypatch):
    dags, suite, emulator = study_inputs
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 64)
    rec = Recorder.to_memory()
    with recording(rec):
        run_study(dags[:1], [suite], emulator, workers=2)
    assert "runner.workers_clamped" not in rec.counters


@pytest.mark.parametrize("workers", [1, 2])
def test_study_spans_name_their_cell(study_inputs, monkeypatch, workers):
    """A trace ties each study span to its cell by field, not position."""
    dags, suite, emulator = study_inputs
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 64)
    sink = MemorySink()
    with recording(Recorder(sink)):
        result = run_study(dags, [suite], emulator, workers=workers)
    spans = [
        (r["name"], r["dag"], r["algorithm"], r["simulator"])
        for r in sink.records
        if r["type"] == "span" and r["name"].startswith("study.")
    ]
    assert spans == [
        (phase, r.dag_label, r.algorithm, r.simulator)
        for r in result.records
        for phase in ("study.schedule", "study.simulate", "study.execute")
    ]


class TestFrozenHeap:
    """A pooled study freezes the heap its workers fork from and gives
    the caller back its own freeze count on every exit."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # Four CPUs keep a 1-CPU host forking a two-worker pool.
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 4)

    def test_study_leaves_nothing_frozen(self, study_inputs):
        dags, suite, emulator = study_inputs
        assert gc.get_freeze_count() == 0
        run_study(dags, [suite], emulator, workers=2)
        assert gc.get_freeze_count() == 0

    def test_failing_cell_leaves_nothing_frozen(self, study_inputs,
                                                monkeypatch):
        dags, suite, emulator = study_inputs
        run = runner_mod._CellRunner.run

        def failing(self, pos):
            if pos == 3:
                raise RuntimeError("cell 3 failed")
            return run(self, pos)

        monkeypatch.setattr(runner_mod._CellRunner, "run", failing)
        with pytest.raises(RuntimeError, match="cell 3 failed"):
            run_study(dags, [suite], emulator, workers=2)
        assert gc.get_freeze_count() == 0

    def test_callers_freeze_is_left_alone(self, study_inputs):
        dags, suite, emulator = study_inputs
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            run_study(dags, [suite], emulator, workers=2)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_workers_run_in_a_frozen_heap(self, study_inputs, monkeypatch):
        dags, suite, emulator = study_inputs
        parent = os.getpid()
        run = runner_mod._CellRunner.run

        def probed(self, pos):
            get_recorder().event(
                "probe", pid=os.getpid(), frozen=gc.get_freeze_count()
            )
            return run(self, pos)

        monkeypatch.setattr(runner_mod._CellRunner, "run", probed)
        sink = MemorySink()
        with recording(Recorder(sink)):
            result = run_study(dags, [suite], emulator, workers=2)
        probes = [r for r in sink.records if r.get("name") == "probe"]
        assert len(probes) == len(result.records) == 6
        assert all(p["pid"] != parent for p in probes)
        assert all(p["frozen"] > 0 for p in probes)
        assert gc.get_freeze_count() == 0


class TestAbsorbEmptyWorkerExport:
    """Absorbing an empty export is a no-op.

    A payload with no records, no counters, no spans and a zero-run
    timeline must leave the absorbing recorder unchanged — and must
    not disturb the run numbering of payloads absorbed after it.
    """

    @staticmethod
    def _empty_export():
        worker = Recorder(
            MemorySink(), timeline=Timeline(), profiler=Profiler()
        )
        return worker.export_state()

    def test_recorder_absorb_empty_export_is_noop(self):
        rec = Recorder(MemorySink(), timeline=Timeline(), profiler=Profiler())
        with recording(rec):
            rec.count("runner.cells", 2)
            with rec.span("study.cell"):
                pass
        before = (
            list(rec.sink.records),
            dict(rec.counters),
            rec.metrics()["spans"],
            timeline_lines(rec.timeline.records),
            rec.profiler.structure(),
        )
        rec.absorb(self._empty_export())
        after = (
            list(rec.sink.records),
            dict(rec.counters),
            rec.metrics()["spans"],
            timeline_lines(rec.timeline.records),
            rec.profiler.structure(),
        )
        assert after == before

    def test_timeline_absorb_empty_slice_keeps_run_numbering(self):
        parent = Timeline()
        parent.begin_run(dag="d0", algorithm="hcpa", model="m")
        parent.end_run(makespan=1.0, tasks=0, xfers=0)

        # An empty export: zero runs, no records.
        parent.absorb(Timeline().export_state())
        assert parent._run_seq == 1

        # The next real worker export still lands at run 1, exactly as
        # if the empty one had never been absorbed.
        worker = Timeline()
        worker.begin_run(dag="d1", algorithm="mcpa", model="m")
        worker.end_run(makespan=2.0, tasks=0, xfers=0)
        parent.absorb(worker.export_state())
        runs = [
            r["run"] for r in parent.records if r.get("kind") == "run"
        ]
        assert runs == [0, 1]

    def test_recorder_absorb_empty_then_full_export(self):
        rec = Recorder(MemorySink(), timeline=Timeline())
        with recording(rec):
            rec.absorb(self._empty_export())
            worker = Recorder(MemorySink(), timeline=Timeline())
            worker.count("runner.cells", 1)
            worker.timeline.begin_run(dag="d", algorithm="hcpa", model="m")
            worker.timeline.end_run(makespan=1.0, tasks=0, xfers=0)
            rec.absorb(worker.export_state())
        assert rec.counters["runner.cells"] == 1
        runs = [r["run"] for r in rec.timeline.records if r.get("kind") == "run"]
        assert runs == [0]


def test_live_telemetry_does_not_perturb_study(study_inputs,
                                               fast_heartbeat):
    """Bit-identity with the live bus attached, serial and pooled.

    The telemetry channel is strictly observational; every comparable
    facet must equal the detached run's — and the bus itself must have
    seen every cell (6 cells: 3 dags x 2 algorithms).
    """
    detached = {
        workers: _observed_study(study_inputs, workers=workers)
        for workers in (1, 2)
    }
    for workers in (1, 2):
        telemetry = LiveTelemetry().start()
        try:
            attached = _observed_study(
                study_inputs, workers=workers, telemetry=telemetry
            )
        finally:
            telemetry.close()
        for facet in ("records", "events", "counters", "span_counts",
                      "timeline", "profile"):
            assert attached[facet] == detached[workers][facet], (
                f"{facet} diverged with telemetry at workers={workers}"
            )
        snap = telemetry.snapshot()
        assert snap["study"]["total"] == 6
        assert snap["study"]["done"] == 6
        assert snap["phase"] == "done"


def test_live_telemetry_counts_cache_hits(study_inputs, tmp_path,
                                          monkeypatch, fast_heartbeat):
    dags, suite, emulator = study_inputs
    cache = ResultCache(tmp_path / "cache")
    run_study(dags, [suite], emulator, cache=cache)  # populate
    telemetry = LiveTelemetry().start()
    try:
        warm = run_study(
            dags, [suite], emulator, workers=2, cache=cache,
            telemetry=telemetry,
        )
    finally:
        telemetry.close()
    assert warm.records
    snap = telemetry.snapshot()
    assert snap["study"]["done"] == 6
    assert snap["study"]["cache_hits"] == 6

    # A partly warm grid (middle DAG cached) forks a pool, and a pool
    # runs every cell: its two hits count from the workers, and no
    # cell runs in the parent.  Four CPUs keep a 1-CPU host forking.
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 4)
    partial = ResultCache(tmp_path / "partial")
    run_study(dags[1:2], [suite], emulator, cache=partial)
    telemetry = LiveTelemetry().start()
    try:
        run_study(
            dags, [suite], emulator, workers=2, cache=partial,
            telemetry=telemetry,
        )
    finally:
        telemetry.close()
    snap = telemetry.snapshot()
    assert snap["study"]["done"] == 6
    assert snap["study"]["cache_hits"] == 2
    assert not [w for w in snap["workers"] if w["local"]], snap["workers"]


def test_live_telemetry_counts_cache_hits_in_the_parent(study_inputs,
                                                        tmp_path,
                                                        fast_heartbeat):
    """A study whose cells run in the parent reports what each did."""
    dags, suite, emulator = study_inputs

    def live_study(cache):
        telemetry = LiveTelemetry().start()
        try:
            run_study(
                dags, [suite], emulator, workers=1, cache=cache,
                telemetry=telemetry,
            )
        finally:
            telemetry.close()
        return telemetry

    cache = ResultCache(tmp_path / "cache")
    run_study(dags, [suite], emulator, cache=cache)  # populate
    snap = live_study(cache).snapshot()
    assert snap["study"]["done"] == 6
    assert snap["study"]["cache_hits"] == 6
    assert snap["study"]["in_flight"] == 0
    assert [w["local"] for w in snap["workers"]] == [True]

    # Partly warm (middle DAG cached): two hits and four computed
    # cells, whose durations alone feed the straggler median.
    partial = ResultCache(tmp_path / "partial")
    run_study(dags[1:2], [suite], emulator, cache=partial)
    telemetry = live_study(partial)
    snap = telemetry.snapshot()
    assert snap["study"]["done"] == 6
    assert snap["study"]["cache_hits"] == 2
    assert len(telemetry.state.durations) == 4


def test_negative_chunk_raises(study_inputs):
    dags, suite, emulator = study_inputs
    for workers in (1, 2):
        with pytest.raises(ValueError, match="chunk size"):
            run_study(dags, [suite], emulator, workers=workers, chunk=-1)
