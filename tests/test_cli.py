"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.simulator == "analytic"
        assert args.n == 2000
        assert args.seed == 0

    def test_unknown_figure_rejected_at_runtime(self, capsys):
        rc = main(["figures", "--only", "fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_workers_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "0", "study"])
        assert exc.value.code == 2
        assert "--workers: must be >= 1" in capsys.readouterr().err


class TestDagCommand:
    def test_table_output(self, capsys):
        assert main(["dag", "--width", "2", "--ratio", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "10 tasks" in out
        assert "matmul" in out or "matadd" in out

    def test_json_output_roundtrips(self, capsys):
        assert main(["dag", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tasks"]) == 10
        from repro.dag.graph import TaskGraph

        TaskGraph.from_dict(payload).validate()

    def test_seed_changes_dag(self, capsys):
        main(["--seed", "1", "dag", "--json"])
        a = capsys.readouterr().out
        main(["--seed", "2", "dag", "--json"])
        b = capsys.readouterr().out
        assert a != b


class TestSimulateCommand:
    def test_analytic_simulation(self, capsys):
        rc = main(["simulate", "--algorithm", "cpa"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated makespan" in out
        assert "experimental makespan" in out

    def test_gantt_flag(self, capsys):
        rc = main(["simulate", "--gantt"])
        assert rc == 0
        assert "Gantt chart" in capsys.readouterr().out

    def test_trace_json_flag(self, capsys):
        rc = main(["simulate", "--trace-json"])
        assert rc == 0
        out = capsys.readouterr().out
        # The JSON document starts at the first line that is exactly "{"
        # (the allocations line also contains braces, but inline).
        start = out.index("\n{") + 1
        payload = json.loads(out[start:])
        assert payload["makespan"] > 0


class TestStudyCommand:
    def test_analytic_study(self, capsys):
        rc = main(["study", "--simulator", "analytic", "--n", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrong comparisons" in out


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestObservabilityFlags:
    def test_study_trace_out_emits_jsonl_and_manifest(self, capsys, tmp_path):
        """Acceptance: study --trace-out emits a valid JSONL event stream
        plus manifest, and report summarises it."""
        trace = tmp_path / "t.jsonl"
        rc = main(["--trace-out", str(trace), "study",
                   "--simulator", "analytic"])
        assert rc == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        records = [json.loads(l) for l in lines]  # every line is JSON
        assert all(isinstance(r, dict) for r in records)
        manifest = records[-1]
        assert manifest["type"] == "manifest"
        assert manifest["command"] == "study"
        assert manifest["platform"]["num_nodes"] == 32
        counters = manifest["metrics"]["counters"]
        assert counters["engine.steps"] > 0
        assert counters["study.runs"] == 108  # 54 dags x 2 algorithms
        names = {r.get("name") for r in records}
        assert "study.record" in names
        assert "engine.step" in names

        rc = main(["report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        # Engine step counts, scheduler phase timings, per-(algorithm,
        # simulator) makespans — the three headline sections.
        assert "engine.steps" in out
        assert "sched.allocate" in out and "sched.map" in out
        assert "per-(algorithm, simulator) makespans:" in out
        assert "hcpa" in out and "mcpa" in out

    def test_trace_out_does_not_change_results(self, capsys, tmp_path):
        main(["simulate", "--algorithm", "hcpa"])
        plain = capsys.readouterr().out
        main(["--trace-out", str(tmp_path / "t.jsonl"), "simulate",
              "--algorithm", "hcpa"])
        traced = capsys.readouterr().out
        assert plain == traced

    def test_global_recorder_reset_after_command(self, tmp_path, capsys):
        from repro.obs import get_recorder

        main(["--trace-out", str(tmp_path / "t.jsonl"), "dag"])
        capsys.readouterr()
        assert get_recorder().enabled is False

    def test_metrics_flag_prints_rollup(self, capsys):
        rc = main(["--metrics", "simulate", "--algorithm", "mcpa"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "===== metrics =====" in out
        assert "engine.steps" in out
        assert "sched.allocate" in out


class TestTimelineCommands:
    def _timeline(self, tmp_path, name, seed="0"):
        path = tmp_path / name
        rc = main(["--seed", seed, "--timeline-out", str(path),
                   "simulate", "--algorithm", "hcpa"])
        assert rc == 0
        return path

    def test_timeline_out_writes_jsonl(self, capsys, tmp_path):
        path = self._timeline(tmp_path, "tl.jsonl")
        capsys.readouterr()
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert records[0] == {"kind": "meta", "schema": 1, "source": "repro"}
        kinds = {r["kind"] for r in records}
        assert {"alloc", "share", "task", "run"} <= kinds
        roles = {r["role"] for r in records if r["kind"] == "run"}
        assert roles == {"sim", "experiment"}

    def test_timeline_out_does_not_change_results(self, capsys, tmp_path):
        main(["simulate", "--algorithm", "hcpa"])
        plain = capsys.readouterr().out
        self._timeline(tmp_path, "tl.jsonl")
        traced = capsys.readouterr().out
        assert plain == traced

    def test_trace_export_chrome(self, capsys, tmp_path):
        from repro.obs.export import validate_chrome_trace

        path = self._timeline(tmp_path, "tl.jsonl")
        out_path = tmp_path / "tl.chrome.json"
        rc = main(["trace", "export", str(path), "--format", "chrome",
                   "--out", str(out_path)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        validate_chrome_trace(trace)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_export_openmetrics(self, capsys, tmp_path):
        path = self._timeline(tmp_path, "tl.jsonl")
        rc = main(["trace", "export", str(path), "--format", "openmetrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_timeline_records_total" in out
        assert out.rstrip().endswith("# EOF")

    def test_trace_summary(self, capsys, tmp_path):
        path = self._timeline(tmp_path, "tl.jsonl")
        rc = main(["trace", "summary", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "record kinds:" in out
        assert "hcpa" in out

    def test_run_records_with_engine_field_still_load(self, capsys, tmp_path):
        # Older timelines tag each run record with the engine that
        # produced it; the readers must take them as they are.
        path = self._timeline(tmp_path, "tl.jsonl")
        old = tmp_path / "old.jsonl"
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "run":
                record["engine"] = "object"
            lines.append(json.dumps(record))
        old.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", "summary", str(old)]) == 0
        assert "hcpa" in capsys.readouterr().out
        assert main(["diff", str(old), str(path)]) == 0
        assert "makespan delta" in capsys.readouterr().out

    def test_trace_export_missing_file_errors_cleanly(self, capsys, tmp_path):
        rc = main(["trace", "export", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err

    def test_diff_command(self, capsys, tmp_path):
        a = self._timeline(tmp_path, "a.jsonl", seed="0")
        b = self._timeline(tmp_path, "b.jsonl", seed="1")
        rc = main(["diff", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan delta" in out
        assert "exec" in out and "redist" in out

    def test_diff_rejects_non_timeline_input(self, capsys, tmp_path):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"type": "event", "name": "x"}\n')
        rc = main(["diff", str(bad), str(bad)])
        assert rc == 2
        assert capsys.readouterr().err

    def test_empty_file_errors_cleanly_everywhere(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for argv in (
            ["trace", "summary", str(empty)],
            ["trace", "export", str(empty), "--format", "chrome"],
            ["trace", "export", str(empty), "--format", "openmetrics"],
            ["diff", str(empty), str(empty)],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "empty" in captured.err
            assert "Traceback" not in captured.err

    def test_header_only_timeline_errors_cleanly(self, capsys, tmp_path):
        header = tmp_path / "header.jsonl"
        header.write_text('{"kind": "meta", "schema": 1, "source": "repro"}\n')
        for argv in (
            ["trace", "export", str(header), "--format", "chrome"],
            ["trace", "export", str(header), "--format", "openmetrics"],
        ):
            assert main(argv) == 2
            assert "header" in capsys.readouterr().err
        assert main(["diff", str(header), str(header)]) == 2
        assert "no completed runs" in capsys.readouterr().err
        # The summary still renders (the kind table is honest) but says
        # explicitly that no runs completed.
        assert main(["trace", "summary", str(header)]) == 0
        assert "no run records" in capsys.readouterr().out


class TestReportCommand:
    def test_missing_trace_errors_cleanly(self, capsys, tmp_path):
        rc = main(["report", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_trace_errors_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = main(["report", str(bad)])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_json_report_with_profile(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(["--trace-out", str(trace), "--profile",
                   "simulate", "--algorithm", "hcpa"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wall-clock profile" in out  # --profile prints the tree
        rc = main(["report", str(trace), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["manifest"]["seed"] == 0
        assert doc["counters"]
        assert doc["spans"]
        # The profiler rollup rode along in the manifest metrics.
        assert doc["profile"]["spans"]
        assert doc["profile"]["kernels"]

    def test_json_report_without_profile_is_null(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["--trace-out", str(trace), "dag"]) == 0
        capsys.readouterr()
        assert main(["report", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profile"] is None


class TestFiguresCommand:
    def test_single_figure_to_directory(self, capsys, tmp_path):
        rc = main(["figures", "--only", "fig3", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig3.txt").exists()
        assert "startup overhead" in capsys.readouterr().out

    def test_comparison_figure_writes_both_sizes(self, capsys, tmp_path):
        rc = main(["figures", "--only", "fig1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig1_2000.txt").exists()
        assert (tmp_path / "fig1_3000.txt").exists()


class TestProfileCommand:
    def test_startup_table(self, capsys):
        rc = main(["profile", "--what", "startup", "--trials", "3"])
        assert rc == 0
        assert "startup overhead" in capsys.readouterr().out

    def test_redistribution_table(self, capsys):
        rc = main(["profile", "--what", "redistribution", "--trials", "1"])
        assert rc == 0
        assert "redistribution overhead" in capsys.readouterr().out

    def test_wall_profile(self, capsys, tmp_path):
        from repro.obs.flame import parse_collapsed

        flame = tmp_path / "profile.folded"
        chrome = tmp_path / "profile.chrome.json"
        rc = main(["profile", "--what", "wall", "--dags", "1",
                   "--flame", str(flame), "--chrome", str(chrome)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "kernel cost table" in out
        stacks = parse_collapsed(flame.read_text())
        assert any(path[0] == "study.execute" for path in stacks)
        doc = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


class TestVarianceCommand:
    def test_runs_and_reports(self, capsys):
        rc = main(["variance", "--runs", "3", "--dags", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "noise-dominated" in out
        assert "stability" in out


class TestAttributionCommand:
    def test_decomposition_printed(self, capsys):
        rc = main(["attribution", "--algorithm", "hcpa"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel time" in out
        assert "startup overhead" in out
        assert "redistribution" in out
        assert "residual" in out


class TestCacheCommand:
    @staticmethod
    def _fill(root):
        """One calibration, one cell and one ``schedule`` entry.

        The ``schedule`` entry is keyed and laid out as ``repro
        simulate`` once wrote them: no code reads that layer now.
        """
        from repro.cache import CacheStore, canonical_hash, dag_fingerprint
        from repro.dag.generator import DagParameters, generate_dag
        from repro.models.analytical import AnalyticalTaskModel
        from repro.platform.personalities import bayreuth_cluster
        from repro.scheduling.costs import SchedulingCosts
        from repro.scheduling.driver import schedule_dag

        platform = bayreuth_cluster(8)
        model = AnalyticalTaskModel(platform)
        graph = generate_dag(DagParameters(num_input_matrices=2))
        costs = SchedulingCosts(graph, platform, model)
        store = CacheStore(root)
        store.put("calibration", canonical_hash({"suite": "profile"}), model)
        store.put("cell", canonical_hash({"algorithm": "hcpa"}), (1.0, 2.0, 8))
        key = {
            "algorithm": "hcpa",
            "dag": dag_fingerprint(graph),
            "costs": {
                "platform": platform,
                "task_model": model,
                "startup_model": costs.startup_model,
                "redistribution_model": costs.redistribution_model,
            },
        }
        store.put(
            "schedule", canonical_hash(key), schedule_dag(graph, costs, "hcpa")
        )

    @staticmethod
    def _layers(out):
        return [
            line.split()[0]
            for line in out.splitlines()
            if line.split()[:1] in (["calibration"], ["cell"], ["schedule"])
        ]

    def test_prune_removes_only_unread_layers(self, capsys, tmp_path):
        root = tmp_path / "cache"
        self._fill(root)
        assert main(["--cache-dir", str(root), "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2 " in out
        assert "stale: 1  corrupt: 0" in out
        assert self._layers(out) == ["calibration", "cell"]

        assert main(["--cache-dir", str(root), "cache", "prune"]) == 0
        assert "pruned 1 stale/corrupt entries" in capsys.readouterr().out
        assert sorted(p.parts[-3] for p in root.rglob("*.pkl")) == [
            "calibration", "cell"
        ]

        assert main(["--cache-dir", str(root), "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2 " in out
        assert "stale:" not in out
        assert self._layers(out) == ["calibration", "cell"]

        assert main(["--cache-dir", str(root), "cache", "clear"]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert not root.exists()

    def test_without_a_directory_is_an_error(self, capsys):
        assert main(["cache", "info"]) == 2
        assert "no cache directory" in capsys.readouterr().err
