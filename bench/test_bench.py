"""Tests of the study benchmark, in ``--quick`` mode (2 passes, 6 DAGs).

Run with ``python -m pytest bench/``.  Every test drives ``bench/run.py``
in a subprocess, as a user would.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Span name -> its per-pass self-time metric.  With
#: ``runner.unattributed_s`` these metrics sum to the parent's pass wall.
SELF_TIME_METRICS = {
    "scheduling.allocate": "scheduling.allocate_s",
    "scheduling.map": "scheduling.map_s",
    "scheduling.schedule": "scheduling.schedule_self_s",
    "simgrid.simulate": "simgrid.simulate_s",
    "testbed.engine": "testbed.engine_s",
    "testbed.execute": "testbed.self_s",
    "cache.hash": "cache.hash_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "cache.probe": "cache.probe_s",
    "runner.wait": "runner.dispatch_wait_s",
    "obs.export": "obs.export_s",
    "obs.absorb": "obs.absorb_s",
}
#: Calls each cell makes once on a workload without cache.
PER_CELL_CALLS = ("scheduling.allocate_calls", "simgrid.simulate_calls", "testbed.execute_calls")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--quick", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _sections(stdout: str) -> dict[str, str]:
    """The printed table of each workload, keyed by workload name."""
    out: dict[str, str] = {}
    name = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            name = line.split()[1]
            out[name] = ""
        elif name is not None:
            out[name] += line + "\n"
    return out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "untraced.json"
    proc = _run("--seed", "0", "--out", str(out))
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "traced.json"
    proc = _run("--seed", "0", "--trace", "--out", str(out))
    return proc, json.loads(out.read_text())


def test_every_end_to_end_metric_printed_with_unit(untraced):
    proc, _ = untraced
    assert proc.returncode == 0, proc.stderr
    tables = _sections(proc.stdout)
    assert sorted(tables) == sorted(WORKLOADS)
    for name in WORKLOADS:
        for metric in SPEC["end_to_end"] + [{"name": "failed_frac", "unit": "fraction"}]:
            assert any(
                line.split()[:2] == [metric["name"], metric["unit"]]
                for line in tables[name].splitlines()
            ), (name, metric["name"])


def test_every_layer_metric_printed_with_unit(traced):
    proc, _ = traced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tables = _sections(proc.stdout)
    for name in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert any(
                line.split()[:2] == [metric["name"], metric["unit"]]
                for line in tables[name].splitlines()
            ), (name, metric["name"])


def test_no_failures_at_head(untraced):
    _, data = untraced
    for name in WORKLOADS:
        w = data["workloads"][name]
        assert w["metrics"]["failed_frac"]["median"] == 0, name
        assert w["referenced"], name
        assert all(p["correct"] == p["cells"] for p in w["per_pass"])


def test_tampered_reference_fails_every_cell(tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    cold = reference["seeds"]["0"]["quick"]["cold"]
    cold[:] = ["0" * 64 for _ in cold]
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    proc = _run("--workload", "cold_serial", "--seed", "0", "--reference", str(tampered))
    assert proc.returncode == 1
    assert "failed_frac" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["cells_per_s"]["value"] == 0
    table = _sections(proc.stdout)["cold_serial"]
    failed_frac = next(line for line in table.splitlines() if line.split()[0] == "failed_frac")
    assert float(failed_frac.split()[2]) == 1.0


def test_traced_records_match_untraced(untraced, traced):
    _, plain = untraced
    _, data = traced
    for name in WORKLOADS:
        reference = {p["grid"]: p["digest"] for p in plain["workloads"][name]["per_pass"]}
        for p in data["workloads"][name]["per_pass"]:
            assert p["digest"] == reference[p["grid"]], (name, p["kind"], p["k"])


def _traced_passes(data: dict, name: str) -> list[dict]:
    return [p for p in data["workloads"][name]["per_pass"] if p["kind"] == "traced"]


def test_layer_self_times_add_up_to_pass_wall(traced):
    _, data = traced
    for name in ("cold_serial", "incremental_cache"):
        for p in _traced_passes(data, name):
            # Every span the parent recorded has a metric, so none is lost.
            assert set(p["parent_spans"]) <= set(SELF_TIME_METRICS), (name, p["parent_spans"])
            layers = p["layers"]
            attributed = sum(layers[m] for m in SELF_TIME_METRICS.values())
            total = attributed + layers["runner.unattributed_s"]
            assert abs(total - p["wall_s"]) < 1e-3, (name, total, p["wall_s"])
            # Self times, built from the span tree, must add up to the
            # root spans' durations, which lie within the pass wall timed
            # around run_study.
            assert abs(attributed - p["parent_busy_s"]) < 1e-3, (name, attributed, p["parent_busy_s"])
            assert 0 < p["parent_busy_s"] <= p["wall_s"], name


def test_each_cell_is_traced_once(traced):
    _, data = traced
    for name in ("cold_serial", "cold_pool", "observed_pool"):
        for p in _traced_passes(data, name):
            for metric in PER_CELL_CALLS:
                assert p["layers"][metric] == p["cells"], (name, metric)


def test_last_line_is_the_result_object():
    proc = _run("--workload", "cold_pool", "--seed", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_run_length_is_fixed():
    proc = _run("--workload", "cold_serial", "--seconds", str(SPEC["run_seconds"] + 1))
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cold_serial", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
