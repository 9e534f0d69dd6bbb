"""Profile *structure* is a pure function of the workload.

Wall-clock durations jitter run to run, but which spans nested under
which, how many times each fired, and which kernels ran at which size
buckets must be byte-identical across worker counts (deterministic
merge in submission order).
"""

from __future__ import annotations

import pytest

from repro.dag.generator import generate_paper_dags
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_study
from repro.obs.prof import Profiler
from repro.obs.recorder import Recorder, recording
from repro.obs.sinks import MemorySink
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


def _profiled_study(study_inputs, *, workers=1):
    dags, suite, emulator = study_inputs
    prof = Profiler()
    with recording(Recorder(MemorySink(), profiler=prof)):
        run_study(dags, [suite], emulator, workers=workers)
    return prof


def test_structure_identical_across_worker_counts(study_inputs):
    serial = _profiled_study(study_inputs, workers=1)
    parallel = _profiled_study(study_inputs, workers=2)
    assert serial.structure() == parallel.structure()
    # Not vacuous: the study actually produced spans and kernel probes.
    assert serial.structure()["spans"]
    assert serial.structure()["kernels"]


def test_worker_profiles_reach_the_parent_recorder(study_inputs):
    """With workers > 1 the probes come from subprocesses via absorb."""
    prof = _profiled_study(study_inputs, workers=2)
    kernels = {kernel for kernel, _bucket in prof.kernels}
    # The engine's solver and the scheduler's DP and grow sweep fired
    # inside pool workers and were merged back into the parent's
    # profiler.
    assert {"solve_rates", "critical_path_dp", "alloc_grow"} <= kernels


@pytest.mark.parametrize("workers", [1, 2])
def test_span_rollup_is_the_fold_of_the_tree(study_inputs, monkeypatch,
                                              workers):
    """Per-name span stats and the path tree come from one table."""
    dags, suite, emulator = study_inputs
    monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 64)
    rec = Recorder(MemorySink(), profiler=Profiler())
    with recording(rec):
        run_study(dags, [suite], emulator, workers=workers)
    metrics = rec.metrics()
    folded: dict[str, int] = {}
    for path, agg in metrics["profile"]["spans"].items():
        name = path.split(";")[-1]
        folded[name] = folded.get(name, 0) + agg["count"]
    assert folded
    assert {
        name: agg["count"] for name, agg in metrics["spans"].items()
    } == folded
