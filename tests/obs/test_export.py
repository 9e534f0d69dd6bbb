"""Tests for the trace exporters: Chrome trace-event JSON, OpenMetrics."""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    export_file,
    openmetrics_lines,
    summarize_file,
    validate_chrome_trace,
    validate_openmetrics,
)
from repro.obs.recorder import Recorder, recording
from repro.obs.sinks import JsonlSink
from repro.obs.timeline import Timeline
from repro.obs.report import TraceReadError


def _timeline_records():
    tl = Timeline()
    with tl.context(variant="analytic", n=2000):
        tl.begin_run(dag="d", algorithm="hcpa", model="m")
        tl.task(0, (0, 1), 0.0, 2.0, 0.25)
        tl.xfer(0, 1, 2.0, 3.0, 0.1, 1e6)
        tl.task(1, (2,), 3.0, 5.0, 0.0)
        tl.end_run(makespan=5.0, tasks=2, xfers=1)
    return tl.records


class TestChromeTrace:
    def test_events_and_validation(self):
        trace = chrome_trace(_timeline_records())
        validate_chrome_trace(trace)
        events = trace["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        # task0 spans two hosts -> two slices; plus xfer and task1.
        assert len(slices) == 4
        t0 = [e for e in slices if e["name"] == "task0"]
        assert {e["tid"] for e in t0} == {0, 1}
        assert all(e["ts"] == 0.0 and e["dur"] == 2e6 for e in t0)
        (x,) = [e for e in slices if e["cat"] == "xfer"]
        assert x["tid"] == 1001  # lane for destination task 1
        metas = [e for e in events if e["ph"] == "M"]
        assert len(metas) == 1
        assert "analytic" in metas[0]["args"]["name"]
        assert "[sim]" in metas[0]["args"]["name"]

    def test_validation_rejects_bad_traces(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "pid": 0,
                            "tid": 0,
                            "name": "t",
                            "ts": float("nan"),
                            "dur": 1.0,
                        }
                    ]
                }
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "M", "pid": 0, "tid": 0, "args": {}}]}
            )

    def test_export_file_chrome(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        tl = Timeline.to_file(path)
        for record in _timeline_records():
            tl.sink.write(record)
        tl.close()
        text = export_file(path, "chrome")
        obj = json.loads(text)
        validate_chrome_trace(obj)

    def test_export_file_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_file(tmp_path / "x.jsonl", "svg")


class TestOpenMetrics:
    def test_timeline_rollup(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        tl = Timeline.to_file(path)
        for record in _timeline_records():
            tl.sink.write(record)
        tl.close()
        lines = openmetrics_lines(path)
        assert lines[-1] == "# EOF"
        text = "\n".join(lines)
        assert 'repro_timeline_records_total{kind="task"} 2' in text
        assert 'algorithm="hcpa"' in text
        assert "repro_run_makespan_seconds" in text

    def test_trace_rollup_uses_manifest(self, tmp_path):
        from repro.obs.manifest import RunManifest, emit_manifest
        from repro.platform.personalities import bayreuth_cluster

        path = tmp_path / "trace.jsonl"
        recorder = Recorder(JsonlSink(path))
        with recording(recorder):
            recorder.count("sim.runs", 3)
            with recorder.span("sched.allocate"):
                pass
            manifest = RunManifest.collect(
                seed=0, cluster=bayreuth_cluster(4), recorder=recorder
            )
            emit_manifest(recorder, manifest)
        recorder.close()
        text = "\n".join(openmetrics_lines(path))
        assert 'repro_counter_total{name="sim.runs"} 3' in text
        assert 'repro_span_seconds_total{name="sched.allocate"}' in text
        assert text.endswith("# EOF")

    def test_large_counts_print_every_digit(self, tmp_path):
        from repro.obs.manifest import RunManifest

        span = {"count": 2_345_678, "total_s": 1.5, "mean_s": 0.0,
                "min_s": 0.0, "max_s": 0.0}
        manifest = RunManifest(
            metrics={
                "counters": {"cache.cell.hits": 1_234_567, "sim.runs": 3},
                "spans": {"study.cell": span},
            }
        )
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({**manifest.to_dict(), "type": "manifest"}) + "\n"
        )
        lines = openmetrics_lines(path)
        validate_openmetrics("\n".join(lines) + "\n")
        assert 'repro_counter_total{name="cache.cell.hits"} 1234567' in lines
        assert 'repro_counter_total{name="sim.runs"} 3' in lines
        assert 'repro_span_seconds_count{name="study.cell"} 2345678' in lines

    def test_trace_without_manifest_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "event", "name": "x"}\n')
        with pytest.raises(TraceReadError):
            openmetrics_lines(path)


class TestValidateOpenMetrics:
    """The hand-rolled exposition checker behind the CI smoke scrape."""

    def test_accepts_both_exporter_flavors(self, tmp_path):
        # Timeline rollup.
        path = tmp_path / "tl.jsonl"
        tl = Timeline.to_file(path)
        for record in _timeline_records():
            tl.sink.write(record)
        tl.close()
        validate_openmetrics("\n".join(openmetrics_lines(path)) + "\n")
        # Trace-manifest rollup.
        from repro.obs.manifest import RunManifest, emit_manifest

        trace = tmp_path / "trace.jsonl"
        recorder = Recorder(JsonlSink(trace))
        with recording(recorder):
            recorder.count("sim.runs", 3)
            with recorder.span("sched.allocate"):
                pass
            emit_manifest(
                recorder, RunManifest.collect(seed=0, recorder=recorder)
            )
        recorder.close()
        validate_openmetrics("\n".join(openmetrics_lines(trace)) + "\n")

    def test_accepts_minimal_exposition(self):
        validate_openmetrics(
            "# TYPE up gauge\n"
            'up{host="a",note="esc\\"aped"} 1\n'
            "# TYPE hits counter\n"
            "hits_total 4\n"
            "# EOF"
        )

    def test_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            validate_openmetrics("# TYPE up gauge\nup 1\n")

    def test_rejects_content_after_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            validate_openmetrics("# TYPE up gauge\nup 1\n# EOF\nup 2\n# EOF")

    def test_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            validate_openmetrics("lonely_metric 1\n# EOF")

    def test_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            validate_openmetrics(
                "# TYPE up gauge\n# TYPE up gauge\nup 1\n# EOF"
            )

    def test_rejects_bad_type_and_keyword(self):
        with pytest.raises(ValueError, match="invalid TYPE"):
            validate_openmetrics("# TYPE up sparkline\nup 1\n# EOF")
        with pytest.raises(ValueError, match="unknown comment keyword"):
            validate_openmetrics("# NOTE up gauge\n# EOF")

    def test_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="label"):
            validate_openmetrics(
                '# TYPE up gauge\nup{host="unclosed} 1\n# EOF'
            )

    def test_rejects_non_finite_and_non_numeric_values(self):
        with pytest.raises(ValueError, match="not finite"):
            validate_openmetrics("# TYPE up gauge\nup nan\n# EOF")
        with pytest.raises(ValueError, match="not a number"):
            validate_openmetrics("# TYPE up gauge\nup high\n# EOF")

    def test_rejects_wrong_suffix_for_family_type(self):
        with pytest.raises(ValueError, match="suffix"):
            validate_openmetrics(
                "# TYPE hits counter\nhits_rate 1\n# EOF"
            )

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            validate_openmetrics(
                "# TYPE up gauge\nup 1\nbogus metric line\n# EOF"
            )


class TestSummary:
    def test_timeline_summary(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        tl = Timeline.to_file(path)
        for record in _timeline_records():
            tl.sink.write(record)
        tl.close()
        text = summarize_file(path)
        assert "record kinds:" in text
        assert "runs:" in text
        assert "hcpa" in text and "analytic" in text

    def test_trace_summary_falls_back_to_types(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "event", "name": "x"}\n')
        text = summarize_file(path)
        assert "record types:" in text


class TestDegenerateInputs:
    """Empty and header-only files get specific messages, not silence."""

    @staticmethod
    def _header_only(tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text('{"kind": "meta", "schema": 1, "source": "repro"}\n')
        return path

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceReadError, match="empty"):
            summarize_file(path)
        for fmt in ("chrome", "openmetrics"):
            with pytest.raises(TraceReadError, match="empty"):
                export_file(path, fmt)

    def test_header_only_export_rejected(self, tmp_path):
        path = self._header_only(tmp_path)
        for fmt in ("chrome", "openmetrics"):
            with pytest.raises(TraceReadError, match="header"):
                export_file(path, fmt)

    def test_header_only_summary_notes_missing_runs(self, tmp_path):
        text = summarize_file(self._header_only(tmp_path))
        assert "no run records" in text

    def test_manifest_only_trace_still_exports_openmetrics(self, tmp_path):
        # A --trace-out file whose only record is the manifest is not
        # "empty": its metric rollup is the whole export.
        path = tmp_path / "trace.jsonl"
        rec = Recorder.to_memory()
        with recording(rec):
            with rec.span("sched.allocate"):
                pass
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.collect(seed=0, recorder=rec)
        record = dict(manifest.to_dict())
        record["type"] = "manifest"
        path.write_text(json.dumps(record) + "\n")
        text = export_file(path, "openmetrics")
        assert "repro_span_seconds_total" in text
