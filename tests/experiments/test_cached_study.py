"""Cached study re-execution must be invisible in the results.

Acceptance property of the result cache: records, traces and makespans
are bit-identical between a cold run (populating the cache), a warm
re-run (replaying from it) and a cache-disabled run — serially and
under a worker pool — while the warm run does no recomputation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import (
    CacheStore,
    ResultCache,
    canonical_hash,
    dag_fingerprint,
    emulator_fingerprint,
)
from repro.dag.generator import generate_paper_dags
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_study
from repro.obs.recorder import Recorder, recording
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import (
    build_analytical_suite,
    build_empirical_suite,
    build_profile_suite,
)
from repro.scheduling.schedule import Schedule
from repro.simgrid.simulator import ScheduleLowering
from repro.testbed.tgrid import TGridEmulator


@pytest.fixture(scope="module")
def study_inputs():
    platform = bayreuth_cluster(8)
    emulator = TGridEmulator(platform, seed=0)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:3]
    return dags, suite, emulator


def _run(study_inputs, cache, workers=1):
    dags, suite, emulator = study_inputs
    recorder = Recorder.to_memory()
    with recording(recorder):
        result = run_study(
            dags, [suite], emulator, workers=workers, cache=cache
        )
    return result, recorder.metrics()["counters"]


class TestStudyEquivalence:
    def test_cold_warm_disabled_all_identical(self, study_inputs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        baseline, _ = _run(study_inputs, cache=None)
        cold, cold_counters = _run(study_inputs, cache=cache)
        warm, warm_counters = _run(study_inputs, cache=cache)

        # RunRecord is a frozen dataclass: == is field-for-field, so
        # this compares every makespan bit-identically.
        assert cold.records == baseline.records
        assert warm.records == baseline.records

        assert cold_counters["cache.misses"] > 0
        assert "cache.hits" not in cold_counters
        assert warm_counters["cache.hits"] == cold_counters["cache.misses"]
        assert "cache.misses" not in warm_counters

    def test_runs_share_one_lowering_and_warm_cells_never_lower(
        self, study_inputs, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        lowerings, validations = [], []
        layout, validate = ScheduleLowering.layout, Schedule.validate
        monkeypatch.setattr(
            ScheduleLowering,
            "layout",
            lambda lowering, platform: (
                lowerings.append(lowering) or layout(lowering, platform)
            ),
        )
        monkeypatch.setattr(
            Schedule,
            "validate",
            lambda *args: validations.append(args) or validate(*args),
        )
        cold, _ = _run(study_inputs, cache=cache)
        # A cold cell's two runs take their layout from one lowering,
        # and its schedule is validated twice: by the driver that
        # builds it and by that lowering.
        cells = len(cold.records)
        assert len(lowerings) == 2 * cells
        assert all(a is b for a, b in zip(lowerings[::2], lowerings[1::2]))
        assert len(validations) == 2 * cells
        del lowerings[:], validations[:]
        _run(study_inputs, cache=cache)
        assert lowerings == validations == []

    def test_warm_replay_identical_under_worker_pool(
        self, study_inputs, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        baseline, _ = _run(study_inputs, cache=None)
        # Cold under the pool: workers share the store via atomic writes.
        cold, _ = _run(study_inputs, cache=cache, workers=2)
        warm, warm_counters = _run(study_inputs, cache=cache, workers=2)
        assert cold.records == baseline.records
        assert warm.records == baseline.records
        assert warm_counters["cache.hits"] > 0
        assert "cache.misses" not in warm_counters

    def test_per_layer_counters_cover_all_three_phases(
        self, study_inputs, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        _run(study_inputs, cache=cache)
        _, warm_counters = _run(study_inputs, cache=cache)
        dags, _suite, _emulator = study_inputs
        cells = len(dags) * 2  # two algorithms
        # One entry per cell covers its schedule and both its runs.
        assert warm_counters["cache.cell.hits"] == cells
        assert warm_counters["cache.hits"] == cells
        assert not [
            name
            for name in warm_counters
            if name.startswith(("cache.schedule.", "cache.simulation."))
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cell_reads_one_entry_and_a_miss_writes_one(
        self, study_inputs, tmp_path, monkeypatch, workers
    ):
        # Four CPUs keep a small host from clamping the study to one
        # worker, which would skip the planner's probe.
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 4)
        calls = {"get": 0, "put": 0, "contains": 0}
        for name in calls:
            original = getattr(CacheStore, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(CacheStore, name, counted)
        cache = ResultCache(tmp_path / "cache")
        cold, _ = _run(study_inputs, cache=cache)
        cells = len(cold.records)
        assert calls == {"get": cells, "put": cells, "contains": 0}
        calls.update(get=0, put=0)
        # A warm grid forks no pool, so every lookup is counted here.
        warm, _ = _run(study_inputs, cache=cache, workers=workers)
        assert warm.records == cold.records
        assert calls["get"] == cells
        assert calls["put"] == 0
        # The planner probes each cell once, and only when it plans.
        assert calls["contains"] == (cells if workers > 1 else 0)

    def test_suites_with_equal_models_share_cell_entries(
        self, study_inputs, tmp_path
    ):
        dags, suite, emulator = study_inputs
        twin = dataclasses.replace(suite, name="twin")
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        with recording(recorder):
            study = run_study(dags, [suite, twin], emulator, cache=cache)
        counters = recorder.metrics()["counters"]
        cells = len(dags) * 2  # per suite
        # The twin's cells replay the entries the first suite wrote ...
        assert counters["cache.cell.misses"] == cells
        assert counters["cache.cell.hits"] == cells
        assert cache.info().entries == cells
        # ... yet every record carries its own cell's labels.
        assert study.records == (
            run_study(dags, [suite], emulator).records
            + run_study(dags, [twin], emulator).records
        )
        assert [r.simulator for r in study.records] == (
            [suite.name] * cells + ["twin"] * cells
        )
        assert [r.n for r in study.records] == 2 * [
            params.n for params, _graph in dags for _algorithm in range(2)
        ]


class TestKeyCompatibility:
    """The literal dict below spells out today's on-disk cell key layout.

    A study hashes its cell keys from pre-encoded fragments; it must
    write every cell under the layout of the plain fingerprints.
    """

    @pytest.fixture(scope="class")
    def grid(self, study_context):
        ctx = study_context
        suites = [ctx.analytic_suite, ctx.profile_suite, ctx.empirical_suite]
        return ctx.dags[:4], suites, ctx.emulator

    @staticmethod
    def _simulator_literal(platform, suite):
        return {
            "platform": platform,
            "task_model": suite.task_model,
            "startup_model": suite.startup_model,
            "redistribution_model": suite.redistribution_model,
            "contention": True,
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_writes_each_cell_under_the_literal_layout(
        self, grid, tmp_path, workers
    ):
        dags, suites, emulator = grid
        cache = ResultCache(tmp_path / "cache")
        study = run_study(dags, suites, emulator, workers=workers, cache=cache)
        records = iter(study.records)
        for suite in suites:
            for _params, graph in dags:
                for algorithm in ("hcpa", "mcpa"):
                    record = next(records)
                    literal = {
                        "algorithm": algorithm,
                        "dag": dag_fingerprint(graph),
                        "simulator": self._simulator_literal(
                            emulator.platform, suite
                        ),
                        "emulator": emulator_fingerprint(emulator),
                        "run_label": 0,
                    }
                    # The entry holds the three numbers the record
                    # takes from the computation.
                    entry = cache.store.get("cell", canonical_hash(literal))
                    assert entry == (
                        True,
                        (
                            record.sim_makespan,
                            record.exp_makespan,
                            record.total_alloc,
                        ),
                    )
        info = cache.info()
        assert list(info.namespaces) == ["cell"]
        assert info.entries == len(study.records)

    def test_dag_changed_between_studies_is_encoded_afresh(self, tmp_path):
        platform = bayreuth_cluster(8)
        emulator = TGridEmulator(platform, seed=0)
        suite = build_analytical_suite(platform)
        dags = generate_paper_dags(seed=0)[:2]
        cache = ResultCache(tmp_path / "cache")
        run_study(dags, [suite], emulator, cache=cache)
        graph = dags[0][1]
        order = graph.topological_order()
        edges = set(graph.edges())
        src, dst = next(
            (a, b)
            for i, a in enumerate(order)
            for b in order[i + 1 :]
            if (a, b) not in edges
        )
        graph.add_edge(src, dst)  # same object, new content
        recorder = Recorder.to_memory()
        with recording(recorder):
            rerun = run_study(dags, [suite], emulator, cache=cache)
        counters = recorder.metrics()["counters"]
        # Only the changed DAG's two cells recompute.
        assert counters["cache.misses"] == 2
        assert rerun.records == run_study(dags, [suite], emulator).records


class TestCalibrationLayer:
    def test_profile_suite_is_memoised(self, study_inputs, tmp_path):
        _dags, _suite, emulator = study_inputs
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        kwargs = dict(
            sizes=(2000,),
            kernel_trials=1,
            startup_trials=2,
            redistribution_trials=1,
        )
        with recording(recorder):
            cold = build_profile_suite(emulator, cache=cache, **kwargs)
            warm = build_profile_suite(emulator, cache=cache, **kwargs)
        counters = recorder.metrics()["counters"]
        assert counters["cache.calibration.misses"] == 1
        assert counters["cache.calibration.hits"] == 1
        assert dict(warm.task_model.items()) == dict(cold.task_model.items())

    def test_different_measurement_params_miss(self, study_inputs, tmp_path):
        _dags, _suite, emulator = study_inputs
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        with recording(recorder):
            build_profile_suite(
                emulator, cache=cache, sizes=(2000,), kernel_trials=1,
                startup_trials=2, redistribution_trials=1,
            )
            build_profile_suite(
                emulator, cache=cache, sizes=(2000,), kernel_trials=2,
                startup_trials=2, redistribution_trials=1,
            )
        counters = recorder.metrics()["counters"]
        assert counters["cache.calibration.misses"] == 2
        assert "cache.calibration.hits" not in counters

    def test_empirical_suite_is_memoised(self, study_inputs, tmp_path):
        _dags, _suite, emulator = study_inputs
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        kwargs = dict(
            sizes=(2000,),
            kernel_trials=1,
            startup_trials=2,
            redistribution_trials=1,
        )
        with recording(recorder):
            cold = build_empirical_suite(emulator, cache=cache, **kwargs)
            warm = build_empirical_suite(emulator, cache=cache, **kwargs)
        counters = recorder.metrics()["counters"]
        assert counters["cache.calibration.misses"] == 1
        assert counters["cache.calibration.hits"] == 1
        assert warm.startup_model.fit == cold.startup_model.fit


class TestCellErrors:
    def test_record_keyerror_names_the_missing_cell(self, study_inputs):
        dags, suite, emulator = study_inputs
        study, _ = _run(study_inputs, cache=None)
        with pytest.raises(KeyError) as err:
            study.record("no-such-dag", "hcpa", "analytic")
        message = str(err.value)
        assert "dag='no-such-dag'" in message
        assert "algorithm='hcpa'" in message
        assert "simulator='analytic'" in message
        # ... and says what the study does hold.
        assert "analytic" in message

    def test_strict_select_names_the_missing_filters(self, study_inputs):
        study, _ = _run(study_inputs, cache=None)
        assert study.select(simulator="profile") == []
        with pytest.raises(KeyError, match="simulator='profile'"):
            study.select(simulator="profile", strict=True)
