"""Tests for trace loading and report rendering."""

import json

import pytest

from repro.obs.manifest import RunManifest, emit_manifest
from repro.obs.recorder import Recorder
from repro.obs.report import (
    TraceReadError,
    load_trace,
    render_report,
    report_file,
    report_json,
)
from repro.obs.sinks import JsonlSink


def _write_trace(path, records, manifest=None):
    rec = Recorder(JsonlSink(path))
    for record in records:
        rec.sink.write(record)
    if manifest is not None:
        emit_manifest(rec, manifest)
    rec.close()


class TestLoadTrace:
    def test_splits_records_and_manifest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(
            path,
            [{"type": "event", "name": "a"}, {"type": "span", "name": "s",
                                              "dur_s": 0.1}],
            RunManifest(seed=4),
        )
        records, manifest = load_trace(path)
        assert len(records) == 2
        assert manifest is not None and manifest.seed == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceReadError, match="not found"):
            load_trace(tmp_path / "nope.jsonl")

    def test_invalid_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(TraceReadError, match="bad.jsonl:2"):
            load_trace(path)

    def test_non_object_record_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(TraceReadError, match="not an object"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"event","name":"a"}\n\n')
        records, manifest = load_trace(path)
        assert len(records) == 1 and manifest is None


class TestRenderReport:
    def _study_events(self):
        out = []
        for algorithm, sim_mk, exp_mk in [
            ("hcpa", 10.0, 12.0),
            ("hcpa", 20.0, 22.0),
            ("mcpa", 9.0, 12.0),
        ]:
            out.append(
                {
                    "type": "event",
                    "name": "study.record",
                    "dag": "d",
                    "algorithm": algorithm,
                    "simulator": "analytic",
                    "sim_makespan": sim_mk,
                    "exp_makespan": exp_mk,
                }
            )
        return out

    def test_contains_manifest_header_and_breakdown(self):
        manifest = RunManifest(
            seed=0,
            version="1.1.0",
            platform={"name": "bayreuth", "num_nodes": 32, "flops": 250e6},
            simulators=["analytic"],
            algorithms=["hcpa", "mcpa"],
            metrics={
                "counters": {"engine.steps": 100},
                "spans": {
                    "study.simulate": {
                        "count": 3, "total_s": 0.3, "mean_s": 0.1,
                        "min_s": 0.05, "max_s": 0.2,
                    }
                },
            },
        )
        text = render_report(self._study_events(), manifest)
        assert "repro 1.1.0" in text
        assert "bayreuth" in text
        assert "engine.steps" in text
        assert "study.simulate" in text
        assert "hcpa" in text and "mcpa" in text
        # hcpa mean simulated makespan (10+20)/2.
        assert "15.00" in text

    def test_works_without_manifest(self):
        text = render_report(self._study_events(), None)
        assert "no manifest" in text
        assert "study.record" in text  # event-frequency fallback
        assert "hcpa" in text

    def test_top_limits_counter_rows(self):
        manifest = RunManifest(
            metrics={"counters": {f"c{i}": i for i in range(30)}, "spans": {}}
        )
        text = render_report([], manifest, top=5)
        assert "top counters (of 30)" in text
        assert "c29" in text  # biggest survives the cut
        assert "c1\n" not in text

    @staticmethod
    def _span(count, total_s):
        return {
            "count": count, "total_s": total_s,
            "mean_s": total_s / count if count else 0.0,
            "min_s": 0.0, "max_s": total_s,
        }

    def test_throughput_section_renders_ratios(self):
        manifest = RunManifest(
            metrics={
                "counters": {"study.runs": 6},
                "spans": {
                    "study.grid": self._span(1, 3.0),
                    "study.dispatch": self._span(2, 1.5),
                },
            }
        )
        text = render_report([], manifest)
        assert "study throughput: 6 cells in 3.000 s = 2.0 cells/s" in text
        assert "pool dispatch: 1.500 s blocked on futures (50.0 %" in text

    def test_zero_cell_study_renders_dashes_not_zero_division(self):
        """Regression: an empty-grid sweep times a 0-cell, ~0 s grid.

        The throughput section must render with dashes instead of
        raising ZeroDivisionError (or formatting None).
        """
        manifest = RunManifest(
            metrics={
                "counters": {"study.runs": 0},
                "spans": {"study.grid": self._span(1, 0.0)},
            }
        )
        text = render_report([], manifest)
        assert "study throughput: 0 cells in 0.000 s = - cells/s" in text
        assert "pool dispatch: - blocked on futures (-" in text

    def test_all_cached_serial_replay_renders_dispatch_dash(self):
        """A warm serial replay has a grid but never touched the pool."""
        manifest = RunManifest(
            metrics={
                "counters": {"study.runs": 6},
                "spans": {"study.grid": self._span(1, 0.4)},
            }
        )
        text = render_report([], manifest)
        assert "15.0 cells/s" in text
        assert "pool dispatch: - blocked on futures" in text

    def test_no_grid_span_means_no_throughput_section(self):
        manifest = RunManifest(
            metrics={"counters": {"study.runs": 6}, "spans": {}}
        )
        assert "study throughput" not in render_report([], manifest)

    def test_report_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, self._study_events(), RunManifest(seed=1))
        text = report_file(path)
        assert "seed=1" in text
        assert "per-(algorithm, simulator) makespans:" in text


class TestReportJson:
    def test_cache_table_and_section_agree(self):
        manifest = RunManifest(
            metrics={
                "counters": {"cache.cell.hits": 3, "cache.cell.misses": 1},
                "spans": {},
            }
        )
        text = render_report([], manifest)
        assert ["cell", "3", "1", "75.0"] in [
            line.split() for line in text.splitlines()
        ]
        assert report_json([], manifest)["cache"] == {
            "cell": {"hits": 3.0, "misses": 1.0, "hit_rate_pct": 75.0}
        }

    def test_cache_section_carries_exact_counts(self):
        manifest = RunManifest(
            metrics={
                "counters": {
                    "cache.cell.hits": 1_234_567,
                    "cache.cell.misses": 3,
                },
                "spans": {},
            }
        )
        assert report_json([], manifest)["cache"] == {
            "cell": {
                "hits": 1234567.0,
                "misses": 3.0,
                "hit_rate_pct": 100.0 * 1_234_567 / 1_234_570,
            }
        }


    def test_text_prints_large_counts_in_full(self):
        span = {"count": 1, "total_s": 2.0, "mean_s": 2.0,
                "min_s": 2.0, "max_s": 2.0}
        manifest = RunManifest(
            metrics={
                "counters": {
                    "cache.cell.hits": 1_234_567,
                    "cache.cell.misses": 3,
                    "cache.bytes_read": 9_876_543_210,
                    "timeline.task": 2_000_001,
                    "study.runs": 1_234_570,
                    "sched.ratio": 2.5,
                },
                "spans": {"study.grid": span},
            }
        )
        text = render_report([], manifest)
        rows = [line.split() for line in text.splitlines()]
        assert ["cache.cell.hits", "1234567"] in rows
        assert ["cell", "1234567", "3", "100.0"] in rows
        assert "cache.bytes_read: 9876543210" in text
        assert ["task", "2000001"] in rows
        assert "study throughput: 1234570 cells in 2.000 s" in text
        # Below 10^6, and for fractions, the text is what {:g} prints.
        assert ["cache.cell.misses", "3"] in rows
        assert ["sched.ratio", "2.5"] in rows
        assert "e+06" not in text and "e+09" not in text


class TestReportFromRealRun:
    def test_engine_and_scheduler_signals_present(self, tmp_path):
        """A real traced simulation produces the documented event schema."""
        from repro.obs.recorder import recording
        from repro.dag.generator import DagParameters, generate_dag
        from repro.models.analytical import AnalyticalTaskModel
        from repro.platform.personalities import bayreuth_cluster
        from repro.scheduling.costs import SchedulingCosts
        from repro.scheduling.driver import schedule_dag
        from repro.simgrid.simulator import ApplicationSimulator

        path = tmp_path / "run.jsonl"
        rec = Recorder(JsonlSink(path))
        with recording(rec):
            platform = bayreuth_cluster(8)
            graph = generate_dag(
                DagParameters(num_input_matrices=2, add_ratio=0.5, n=2000,
                              seed=3)
            )
            model = AnalyticalTaskModel(platform)
            costs = SchedulingCosts(graph, platform, model)
            schedule = schedule_dag(graph, costs, "hcpa")
            ApplicationSimulator(platform, model).run(graph, schedule)
        rec.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        names = {r.get("name") for r in lines}
        assert "engine.step" in names
        # Grow steps are counted here and recorded once, in the
        # timeline's alloc records, not as events.
        assert "sched.alloc_grow" not in names
        assert rec.counters["sched.alloc_grow_steps"] > 0
        assert "sched.alloc_done" in names
        assert "sim.run" in names
        spans = {r["name"] for r in lines if r["type"] == "span"}
        assert {"sched.allocate", "sched.map"} <= spans
        assert rec.counters["engine.steps"] > 0
        assert rec.counters["engine.solver_calls"] > 0
