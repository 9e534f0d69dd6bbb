"""Live study telemetry: folding, health checks, snapshots, rendering.

Everything here exercises :mod:`repro.obs.live` without a real study —
events are hand-folded at controlled timestamps so straggler/stall
logic and the EWMA are deterministic.  End-to-end coverage (telemetry
attached to actual study sweeps, bit-identity with it detached) lives
in ``tests/experiments/test_runner_chunked.py``.
"""

from __future__ import annotations

import io
import multiprocessing
import time

import pytest

from repro.obs import live
from repro.obs.export import validate_openmetrics
from repro.obs.live import (
    SNAPSHOT_SCHEMA,
    LiveStudyState,
    LiveTelemetry,
    ProgressPrinter,
    WorkerEmitter,
    live_openmetrics_lines,
    load_snapshot,
    render_progress_line,
    render_top,
)


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# ----------------------------------------------------------------------
# LiveStudyState: the fold
# ----------------------------------------------------------------------
class TestLiveStudyState:
    def test_begin_study_accumulates_totals(self):
        state = LiveStudyState()
        state.begin_study(10, 4)
        state.begin_study(5, 2)
        assert state.total == 15
        assert state.workers_expected == 4  # max, not sum
        assert state.phase == "running"

    def test_start_finish_cycle(self):
        state = LiveStudyState()
        state.begin_study(2, 1)
        state.fold(("start", 7, 100.0, 0, "analytic:mm/hcpa"))
        entry = state.workers[7]
        assert entry["cell"] == "analytic:mm/hcpa"
        assert entry["pos"] == 0
        state.fold(("finish", 7, 101.5, 0, "analytic:mm/hcpa", 1.5))
        assert state.done == 1
        assert state.workers[7]["cell"] is None
        assert state.workers[7]["done"] == 1
        assert list(state.durations) == [1.5]
        assert state.phase == "running"  # 1 of 2

    def test_cache_hit_counts_as_done(self):
        state = LiveStudyState()
        state.begin_study(1, 0)
        state.fold(("hit", 0, 100.0, 0, "analytic:mm/hcpa"))
        assert state.done == 1
        assert state.cache_hits == 1
        assert state.phase == "done"

    def test_cache_hit_ends_its_cell(self):
        state = LiveStudyState()
        state.begin_study(2, 0)
        state.fold(("start", 0, 100.0, 0, "analytic:mm/hcpa"))
        state.fold(("hit", 0, 100.1, 0, "analytic:mm/hcpa"))
        assert state.workers[0]["cell"] is None
        assert state.workers[0]["pos"] is None
        assert state.snapshot()["study"]["in_flight"] == 0
        # A replayed cell is no sample of a computed cell's duration.
        assert list(state.durations) == []

    def test_chunk_claims_accumulate(self):
        state = LiveStudyState()
        state.fold(("chunk", 7, 100.0, 4))
        state.fold(("chunk", 8, 100.0, 4))
        assert state.chunks_claimed == 2

    def test_ewma_rate_from_finish_timestamps(self):
        state = LiveStudyState()
        state.begin_study(10, 1)
        # Finishes exactly 1 s apart: instantaneous rate is always
        # 1 cell/s, so the EWMA converges there with no jitter.
        for k in range(4):
            state.fold(("finish", 1, 100.0 + k, k, "c", 0.5))
        assert state.ewma_rate == pytest.approx(1.0)

    def test_median_duration_needs_min_samples(self, monkeypatch):
        monkeypatch.setattr(live, "MIN_SAMPLES", 3)
        state = LiveStudyState()
        for k, dur in enumerate((1.0, 9.0)):
            state.fold(("finish", 1, 100.0 + k, k, "c", dur))
        assert state.median_duration() is None
        state.fold(("finish", 1, 103.0, 2, "c", 2.0))
        assert state.median_duration() == pytest.approx(2.0)

    def test_straggler_flagged_once_per_cell(self, monkeypatch):
        monkeypatch.setattr(live, "MIN_SAMPLES", 2)
        monkeypatch.setattr(live, "STALL_AFTER_BEATS", 10**9)
        state = LiveStudyState()
        state.begin_study(10, 2)
        for k in range(2):
            state.fold(("finish", 1, 100.0 + k, k, "fast", 1.0))
        state.fold(("start", 2, 101.0, 5, "slow-cell"))
        # Age 2 s < 4 x median(1.0): healthy.
        assert state.check_health(103.0) == []
        # Age 5 s > 4 s: straggler, raised exactly once.
        raised = state.check_health(106.0)
        assert [e["kind"] for e in raised] == ["straggler"]
        assert raised[0]["cell"] == "slow-cell"
        assert state.counters["runner.stragglers"] == 1
        assert state.check_health(200.0) == []  # not re-raised
        assert state.counters["runner.stragglers"] == 1

    def test_stall_flags_silent_pool_worker_only(self, monkeypatch):
        # Stalled after 6 missed beats of 0.5 s: 3 s of silence.
        monkeypatch.setattr(live, "HEARTBEAT_S", 0.5)
        monkeypatch.setattr(live, "STALL_AFTER_BEATS", 6)
        state = LiveStudyState()
        state.begin_study(10, 2)
        state.fold(("start", 7, 100.0, 0, "pool-cell"))
        state.fold(("start", 0, 100.0, 1, "parent-cell"))  # local
        raised = state.check_health(104.0)
        assert [e["kind"] for e in raised] == ["stall"]
        assert raised[0]["worker"] == 7
        assert state.counters["runner.stalls"] == 1
        # A heartbeat resets last_seen; no further stall.
        state.fold(("hb", 7, 105.0, 0, 5.0))
        state.workers[7]["stalled"] = False
        assert state.check_health(106.0) == []

    def test_snapshot_shape(self):
        state = LiveStudyState()
        state.begin_study(4, 2)
        state.fold(("start", 7, time.monotonic(), 0, "cell-a"))
        snap = state.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["phase"] == "running"
        assert snap["study"]["total"] == 4
        assert snap["study"]["in_flight"] == 1
        assert snap["workers"][0]["cell"] == "cell-a"
        assert snap["workers"][0]["age_s"] is not None


# ----------------------------------------------------------------------
# LiveTelemetry: lifecycle, queue path, snapshot file
# ----------------------------------------------------------------------
class TestLiveTelemetry:
    def test_parent_local_emission_without_start(self):
        # The parent's emitter folds directly; no drain thread is
        # required for a serial study.
        telemetry = LiveTelemetry()
        telemetry.begin_study(2, 0)
        emitter = telemetry.emitter()
        emitter.cell_started(0, "a")
        emitter.cell_finished(0, "a")
        emitter.cell_started(1, "b")
        emitter.cell_finished(1, "b", hit=True)
        snap = telemetry.snapshot()
        assert snap["study"]["done"] == 2
        assert snap["study"]["cache_hits"] == 1
        assert snap["phase"] == "done"
        # Both cells ran in the parent, and neither is still in flight.
        assert [
            (w["worker"], w["local"], w["cell"]) for w in snap["workers"]
        ] == [(0, True, None)]

    def test_queue_events_reach_the_fold(self, fast_heartbeat):
        telemetry = LiveTelemetry().start()
        try:
            queue = telemetry.connect(multiprocessing.get_context())
            emitter = WorkerEmitter(queue)
            telemetry.begin_study(1, 1)
            emitter.chunk_claimed(1)
            emitter.cell_started(0, "queued-cell")
            emitter.cell_finished(0, "queued-cell")
            assert _wait_until(
                lambda: telemetry.snapshot()["study"]["done"] == 1
            )
            snap = telemetry.snapshot()
            assert snap["study"]["chunks_claimed"] == 1
            # The emitter's pid shows up as a (non-local) pool worker.
            workers = {w["worker"]: w for w in snap["workers"]}
            assert emitter.pid in workers
            assert not workers[emitter.pid]["local"]
            emitter.close()
        finally:
            telemetry.close()

    def test_close_is_idempotent_and_forces_done(self, fast_heartbeat):
        telemetry = LiveTelemetry().start()
        telemetry.begin_study(5, 1)
        telemetry.close()
        telemetry.close()
        assert telemetry.snapshot()["phase"] == "done"

    def test_snapshot_file_round_trip(self, tmp_path, fast_heartbeat):
        path = tmp_path / "live.json"
        telemetry = LiveTelemetry(snapshot_path=path).start()
        telemetry.begin_study(1, 0)
        emitter = telemetry.emitter()
        emitter.cell_started(0, "a")
        emitter.cell_finished(0, "a")
        telemetry.close()
        snap = load_snapshot(path)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["phase"] == "done"
        assert snap["study"]["done"] == 1
        # No stray temp files from the atomic rewrite.
        assert list(tmp_path.iterdir()) == [path]

    def test_load_snapshot_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError, match="not a live telemetry"):
            load_snapshot(path)

    def test_straggler_event_reaches_listeners(self, monkeypatch,
                                               fast_heartbeat):
        monkeypatch.setattr(live, "STRAGGLER_FACTOR", 0.1)
        monkeypatch.setattr(live, "MIN_SAMPLES", 1)
        telemetry = LiveTelemetry().start()
        seen: list[dict] = []
        telemetry.listeners.append(seen.append)
        try:
            telemetry.begin_study(2, 1)
            emitter = telemetry.emitter()
            emitter.cell_started(0, "fast")
            emitter.cell_finished(0, "fast")
            # In-flight cell soon older than 0.1 x the fast cell's time.
            emitter.cell_started(1, "slow")
            assert _wait_until(
                lambda: any(e["kind"] == "straggler" for e in seen)
            )
            snap = telemetry.snapshot()
            assert snap["counters"]["runner.stragglers"] == 1
            assert any(e["kind"] == "straggler" for e in snap["events"])
        finally:
            telemetry.close()


# ----------------------------------------------------------------------
# Snapshot consumers
# ----------------------------------------------------------------------
def _busy_snapshot() -> dict:
    state = LiveStudyState()
    state.begin_study(8, 2)
    for k in range(5):
        state.fold(("finish", 7, 100.0 + k, k, "done-cell", 1.0))
    state.fold(("hit", 0, 105.0, 5, "hit-cell"))
    state.fold(("start", 8, 106.0, 6, 'cell"with\\odd\nchars'))
    state.counters["runner.stragglers"] = 1
    return state.snapshot()


def test_live_openmetrics_lines_validate():
    snap = _busy_snapshot()
    text = "\n".join(live_openmetrics_lines(snap)) + "\n"
    validate_openmetrics(text)
    assert 'repro_live_cells{state="done"} 6' in text
    assert 'repro_live_cells{state="total"} 8' in text
    assert 'repro_live_worker_cells{worker="7"} 5' in text
    assert 'repro_counter_total{name="runner.stragglers"} 1' in text


def test_live_openmetrics_counters_print_every_digit():
    snap = LiveStudyState().snapshot()
    snap["counters"] = {"runner.stalls": 2, "runner.stragglers": 1_234_567}
    lines = live_openmetrics_lines(snap)
    validate_openmetrics("\n".join(lines) + "\n")
    assert 'repro_counter_total{name="runner.stragglers"} 1234567' in lines
    assert 'repro_counter_total{name="runner.stalls"} 2' in lines


def test_live_openmetrics_of_idle_state_validates():
    text = "\n".join(live_openmetrics_lines(LiveStudyState().snapshot()))
    validate_openmetrics(text + "\n")


def test_render_progress_line():
    line = render_progress_line(_busy_snapshot())
    assert "cells 6/8" in line
    assert "hits 1" in line
    assert "stragglers 1" in line


def test_render_top_lists_workers():
    top = render_top(_busy_snapshot())
    assert "worker" in top
    assert "done-cell" not in top  # finished cells leave the table
    assert "parent" in top  # the local cache-hit lane
    assert "in-flight cell" in top


def test_progress_printer_writes_final_line(monkeypatch, fast_heartbeat):
    monkeypatch.setattr(live, "PROGRESS_INTERVAL_S", 0.05)
    telemetry = LiveTelemetry().start()
    stream = io.StringIO()
    printer = ProgressPrinter(telemetry, stream=stream)
    try:
        telemetry.begin_study(1, 0)
        emitter = telemetry.emitter()
        emitter.cell_started(0, "a")
        emitter.cell_finished(0, "a")
    finally:
        printer.close()
        telemetry.close()
    out = stream.getvalue()
    assert "cells 1/1" in out
    assert "done" in out
