"""Tests for the simulated-time Timeline: emission, context, merge."""

import pytest

from repro.obs.recorder import Recorder
from repro.obs.report import TraceReadError
from repro.obs.sinks import MemorySink
from repro.obs.timeline import Timeline, load_timeline, timeline_lines


class TestEmission:
    def test_header_written_once_lazily(self):
        tl = Timeline()
        assert tl.records == []
        tl.share(0.0, "a", 1.0)
        tl.share(1.0, "a", 2.0)
        metas = [r for r in tl.records if r["kind"] == "meta"]
        assert len(metas) == 1
        assert metas[0] == {"kind": "meta", "schema": 1, "source": "repro"}
        assert tl.records[0]["kind"] == "meta"

    def test_typed_records_carry_their_fields(self):
        tl = Timeline()
        tl.alloc(3, 2, 10.0, 5.0, 1)
        tl.alloc_done("criterion", 7, 4.0, 5.0, 3)
        tl.task(1, (0, 1), 0.0, 2.5, 0.25)
        tl.xfer(1, 2, 2.5, 3.0, 0.1, 1e6)
        kinds = [r["kind"] for r in tl.records]
        assert kinds == ["meta", "alloc", "alloc_done", "task", "xfer"]
        task = tl.records[3]
        assert task["hosts"] == [0, 1]
        assert task["startup"] == 0.25
        assert tl.counts["task"] == 1

    def test_run_scope_tags_records(self):
        tl = Timeline()
        run_id = tl.begin_run(dag="d", algorithm="hcpa", model="analytic")
        tl.task(0, (0,), 0.0, 1.0, 0.0)
        tl.end_run(makespan=1.0, tasks=1, xfers=0)
        assert run_id == 0
        task, run = tl.records[1], tl.records[2]
        assert task["run"] == 0 and task["role"] == "sim"
        assert task["dag"] == "d" and task["algorithm"] == "hcpa"
        assert run["kind"] == "run" and run["makespan"] == 1.0
        assert tl.run_count == 1

    def test_context_overrides_role_default(self):
        tl = Timeline()
        with tl.context(role="experiment", variant="profile"):
            tl.begin_run(dag="d", algorithm="mcpa", model="m")
            tl.end_run(makespan=0.0, tasks=0, xfers=0)
        run = tl.records[-1]
        assert run["role"] == "experiment"
        assert run["variant"] == "profile"

    def test_nested_runs_number_sequentially(self):
        tl = Timeline()
        assert tl.begin_run(dag="a") == 0
        tl.end_run(makespan=0.0, tasks=0, xfers=0)
        assert tl.begin_run(dag="b") == 1
        tl.end_run(makespan=0.0, tasks=0, xfers=0)
        assert [r["run"] for r in tl.records if r["kind"] == "run"] == [0, 1]

    def test_end_run_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Timeline().end_run()

    def test_abort_run_pops_without_record(self):
        tl = Timeline()
        tl.begin_run(dag="d")
        tl.abort_run()
        assert all(r["kind"] != "run" for r in tl.records)
        tl.share(0.0, "a", 1.0)
        assert "run" not in tl.records[-1]


class TestMerge:
    def _worker_state(self, dag):
        tl = Timeline()
        tl.begin_run(dag=dag, algorithm="hcpa", model="m")
        tl.task(0, (0,), 0.0, 1.0, 0.0)
        tl.end_run(makespan=1.0, tasks=1, xfers=0)
        return tl.export_state()

    def test_absorb_renumbers_runs_by_offset(self):
        parent = Timeline()
        parent.absorb(self._worker_state("a"))
        parent.absorb(self._worker_state("b"))
        runs = [r for r in parent.records if r["kind"] == "run"]
        assert [r["run"] for r in runs] == [0, 1]
        assert [r["dag"] for r in runs] == ["a", "b"]
        assert parent.run_count == 2
        # One merged header, worker headers dropped.
        assert sum(r["kind"] == "meta" for r in parent.records) == 1
        assert parent.counts["task"] == 2

    def test_absorb_matches_serial_emission(self):
        serial = Timeline()
        for dag in ("a", "b"):
            serial.begin_run(dag=dag, algorithm="hcpa", model="m")
            serial.task(0, (0,), 0.0, 1.0, 0.0)
            serial.end_run(makespan=1.0, tasks=1, xfers=0)
        merged = Timeline()
        merged.absorb(self._worker_state("a"))
        merged.absorb(self._worker_state("b"))
        assert timeline_lines(merged.records) == timeline_lines(serial.records)

    def test_absorb_through_recorder(self):
        worker = Recorder(MemorySink(), timeline=Timeline())
        worker.timeline.begin_run(dag="a")
        worker.timeline.end_run(makespan=0.0, tasks=0, xfers=0)
        parent = Recorder(MemorySink(), timeline=Timeline())
        parent.absorb(worker.export_state())
        assert parent.timeline.run_count == 1
        assert [r["kind"] for r in parent.timeline.records] == ["meta", "run"]

    def test_recorder_metrics_include_timeline_counters(self):
        rec = Recorder(MemorySink(), timeline=Timeline())
        rec.timeline.begin_run(dag="a")
        rec.timeline.task(0, (0,), 0.0, 1.0, 0.0)
        rec.timeline.end_run(makespan=1.0, tasks=1, xfers=0)
        counters = rec.metrics()["counters"]
        assert counters["timeline.task"] == 1
        assert counters["timeline.run"] == 1
        assert counters["timeline.runs"] == 1

    def test_recorder_with_timeline_only_is_enabled(self):
        rec = Recorder(timeline=Timeline())
        assert rec.enabled is True
        assert rec.timeline is not None


class TestSerialization:
    def test_to_file_roundtrip(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        tl = Timeline.to_file(path)
        tl.begin_run(dag="a", algorithm="hcpa", model="m")
        tl.task(0, (0, 1), 0.0, 2.0, 0.5)
        tl.end_run(makespan=2.0, tasks=1, xfers=0)
        tl.close()
        records = load_timeline(path)
        assert [r["kind"] for r in records] == ["meta", "task", "run"]
        assert records[1]["hosts"] == [0, 1]

    def test_load_timeline_missing_file(self, tmp_path):
        with pytest.raises(TraceReadError):
            load_timeline(tmp_path / "absent.jsonl")

    def test_load_timeline_rejects_trace_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "event", "name": "x"}\n')
        with pytest.raises(TraceReadError):
            load_timeline(path)

    def test_load_timeline_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta"}\nnot json\n')
        with pytest.raises(TraceReadError):
            load_timeline(path)
