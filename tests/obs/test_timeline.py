"""Tests for the simulated-time Timeline: emission, context, merge."""

import copy
import pickle

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


def _merged(kind, context, **fields):
    """A record as a dict-per-record timeline builds it: ``kind``, then
    the context fields, then the record's own fields."""
    record = {"kind": kind}
    record.update(context)
    record.update(fields)
    return record


def _emit_runs(tl, *dags):
    for dag in dags:
        with tl.context(variant="analytic", n=2000):
            tl.begin_run(dag=dag, algorithm="hcpa", model="m")
            tl.share(0.0, "t0", 1.5)
            tl.task(0, (0, 1), 0.0, 1.0, 0.25)
            tl.xfer(0, 1, 1.0, 1.5, 0.1, 1e6)
            tl.end_run(makespan=1.5, tasks=1, xfers=1)
    return tl


def _worker_export(*dags):
    return _emit_runs(Timeline(), *dags).export_state()


class TestRows:
    def test_records_equal_the_merged_dicts(self):
        tl = Timeline()
        cell = {"variant": "analytic", "n": 2000}
        alloc = dict(cell, dag="d", algorithm="hcpa", step=99)
        run = dict(cell, role="experiment", run=0, dag="d", model="m")
        with tl.context(**cell):
            with tl.context(dag="d", algorithm="hcpa", step=99):
                tl.alloc(3, 2, 10.0, 5.0, 1)
                tl.alloc_done("criterion", 7, 4.0, 5.0, 3)
            with tl.context(role="experiment"):
                tl.begin_run(dag="d", model="m")
                tl.share(0.5, "t0", 1.5)
                tl.task(0, (0, 1), 0.0, 2.5, 0.25)
                tl.task(1, [2], 2.5, 3.0, 0.0)
                tl.xfer(0, 1, 2.5, 3.0, 0.1, 1e6)
                tl.end_run(makespan=3.0, tasks=2, xfers=1, engine="x")
        expected = [
            {"kind": "meta", "schema": 1, "source": "repro"},
            # A context field the record also sets keeps its place and
            # takes the record's value.
            _merged("alloc", alloc, task=3, p=2, t_cp=10.0, t_a=5.0, step=1),
            _merged("alloc_done", alloc, reason="criterion", total_alloc=7,
                    t_cp=4.0, t_a=5.0, steps=3),
            _merged("share", run, t=0.5, action="t0", rate=1.5),
            _merged("task", run, task=0, hosts=[0, 1], start=0.0,
                    finish=2.5, startup=0.25),
            _merged("task", run, task=1, hosts=[2], start=2.5, finish=3.0,
                    startup=0.0),
            _merged("xfer", run, src=0, dst=1, start=2.5, finish=3.0,
                    overhead=0.1, volume=1e6),
            _merged("run", run, makespan=3.0, tasks=2, xfers=1, engine="x"),
        ]
        records = tl.records
        assert [list(r.items()) for r in records] == [
            list(r.items()) for r in expected
        ]
        assert [type(r["hosts"]) for r in records if r["kind"] == "task"] \
            == [list, list]
        assert timeline_lines(records) == timeline_lines(expected)

    def test_raw_dicts_keep_their_place_among_rows(self):
        tl = Timeline()
        tl.share(0.0, "a", 1.0)
        tl.sink.write({"kind": "note", "x": 1})
        tl.share(1.0, "a", 2.0)
        assert [r["kind"] for r in tl.records] == [
            "meta", "share", "note", "share",
        ]
        assert tl.records[2] == {"kind": "note", "x": 1}
        # A payload holding dicts absorbs them in place, rebased.
        parent = Timeline()
        parent.begin_run(dag="first")
        parent.end_run()
        state = _worker_export("d")
        state["records"].insert(2, {"kind": "note", "run": 0})
        parent.absorb(state)
        kinds = [(r["kind"], r.get("run")) for r in parent.records]
        assert kinds == [
            ("meta", None), ("run", 0), ("share", 1), ("note", 1),
            ("task", 1), ("xfer", 1), ("run", 1),
        ]

    def test_one_export_absorbs_alike_and_stays_unchanged(self):
        state = _worker_export("a", "b")
        snapshot = copy.deepcopy(state)
        parents = []
        for _ in range(2):
            parent = Timeline()
            parent.begin_run(dag="first")
            parent.end_run()
            parent.absorb(state)
            parents.append(parent)
        first, second = (timeline_lines(p.records) for p in parents)
        assert first == second
        assert [r["run"] for r in parents[0].records if "run" in r] == [
            0, 1, 1, 1, 1, 2, 2, 2, 2,
        ]
        assert state == snapshot

    def test_pickled_export_carries_one_context_per_run(self):
        state = pickle.loads(pickle.dumps(_worker_export("a", "b")))
        contexts: dict[int, set[int]] = {}
        for row in state["records"]:
            if type(row) is tuple:
                _kind, context, _values = row
                contexts.setdefault(context["run"], set()).add(id(context))
        assert sorted(contexts) == [0, 1]
        assert all(len(ids) == 1 for ids in contexts.values())

    def test_file_timeline_writes_absorbed_rows_as_lines(self, tmp_path):
        serial = _emit_runs(Timeline(), "a", "b")
        path = tmp_path / "tl.jsonl"
        merged = Timeline.to_file(path)
        merged.absorb(_worker_export("a"))
        merged.absorb(_worker_export("b"))
        merged.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == timeline_lines(serial.records)
        assert merged.counts == serial.counts
        assert merged.records is None


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
