"""Tests for the TGrid testbed emulator."""

import pytest

from repro.cache import emulator_fingerprint
from repro.dag.generator import DagParameters, generate_dag
from repro.models.analytical import AnalyticalTaskModel
from repro.platform.personalities import bayreuth_cluster
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import schedule_dag
from repro.simgrid.simulator import ApplicationSimulator, ScheduleLowering
from repro.testbed import tgrid
from repro.testbed.tgrid import TGridEmulator


@pytest.fixture(scope="module")
def setup():
    platform = bayreuth_cluster()
    params = DagParameters(num_input_matrices=4, add_ratio=0.5, n=2000, seed=3)
    graph = generate_dag(params)
    costs = SchedulingCosts(graph, platform, AnalyticalTaskModel(platform))
    schedule = schedule_dag(graph, costs, "mcpa")
    return platform, graph, schedule


class TestExecution:
    def test_execute_returns_complete_trace(self, setup):
        platform, graph, schedule = setup
        emu = TGridEmulator(platform, seed=7)
        trace = emu.execute(graph, schedule)
        assert set(trace.tasks) == set(graph.task_ids)
        assert trace.makespan > 0

    def test_deterministic_for_same_run_label(self, setup):
        platform, graph, schedule = setup
        emu = TGridEmulator(platform, seed=7)
        a = emu.execute(graph, schedule, run_label=0)
        b = emu.execute(graph, schedule, run_label=0)
        assert a.makespan == b.makespan

    def test_run_label_varies_outcome(self, setup):
        platform, graph, schedule = setup
        emu = TGridEmulator(platform, seed=7)
        a = emu.makespan(graph, schedule, run_label=0)
        b = emu.makespan(graph, schedule, run_label=1)
        assert a != b

    def test_noise_off_makes_runs_identical(self, setup):
        platform, graph, schedule = setup
        emu = TGridEmulator(platform, seed=7, with_noise=False)
        a = emu.makespan(graph, schedule, run_label=0)
        b = emu.makespan(graph, schedule, run_label=1)
        assert a == b

    def test_experimental_makespan_exceeds_analytical_simulation(self, setup):
        # The headline gap: reality includes startup, redistribution
        # overhead and far-from-peak kernels the analytical sim ignores.
        from repro.simgrid.simulator import ApplicationSimulator

        platform, graph, schedule = setup
        emu = TGridEmulator(platform, seed=7)
        sim = ApplicationSimulator(platform, AnalyticalTaskModel(platform))
        sim_makespan = sim.run(graph, schedule).makespan
        exp_makespan = emu.makespan(graph, schedule)
        assert exp_makespan > 1.5 * sim_makespan

    def test_environment_seed_changes_outcome(self, setup):
        platform, graph, schedule = setup
        a = TGridEmulator(platform, seed=1).makespan(graph, schedule)
        b = TGridEmulator(platform, seed=2).makespan(graph, schedule)
        assert a != b

    def test_effective_bandwidth_derated(self, setup):
        platform, *_ = setup
        emu = TGridEmulator(platform, seed=0, bandwidth_efficiency=0.5)
        assert emu.effective_platform.link_bandwidth == pytest.approx(
            platform.link_bandwidth * 0.5
        )

    def test_invalid_efficiency_rejected(self, setup):
        platform, *_ = setup
        with pytest.raises(ValueError):
            TGridEmulator(platform, bandwidth_efficiency=0.0)
        with pytest.raises(ValueError):
            TGridEmulator(platform, bandwidth_efficiency=1.5)


class TestSharedState:
    def test_one_topology_for_every_execution(self, setup, monkeypatch):
        platform, graph, schedule = setup
        built = []
        topology = tgrid.NetworkTopology
        monkeypatch.setattr(
            tgrid,
            "NetworkTopology",
            lambda *args: built.append(args) or topology(*args),
        )
        emu = TGridEmulator(platform, seed=7)
        before = (repr(emu), emulator_fingerprint(emu))
        first = emu.execute(graph, schedule, run_label=0)
        emu.execute(graph, schedule, run_label=1)
        assert built == [(emu.effective_platform,)]
        # Derived state: fields, equality, repr and cache key unchanged.
        assert (repr(emu), emulator_fingerprint(emu)) == before
        assert emu == TGridEmulator(platform, seed=7)
        assert first == TGridEmulator(platform, seed=7).execute(graph, schedule)

    def test_lowering_shared_with_the_simulator(self, setup):
        platform, graph, schedule = setup
        emu = TGridEmulator(platform, seed=7)
        sim = ApplicationSimulator(platform, AnalyticalTaskModel(platform))
        lowering = ScheduleLowering(graph, schedule)
        assert sim.run(graph, schedule, lowering=lowering) == sim.run(
            graph, schedule
        )
        assert emu.execute(graph, schedule, lowering=lowering) == emu.execute(
            graph, schedule
        )


class TestMicrobenchmarks:
    def test_measure_kernel_trials(self, setup):
        platform, *_ = setup
        emu = TGridEmulator(platform, seed=7)
        samples = emu.measure_kernel("matmul", 2000, 4, trials=5)
        assert len(samples) == 5
        assert all(s > 0 for s in samples)

    def test_kernel_measurements_scatter_around_ground_truth(self, setup):
        import numpy as np

        platform, *_ = setup
        emu = TGridEmulator(platform, seed=7)
        mean = np.mean(emu.measure_kernel("matmul", 2000, 4, trials=50))
        truth = emu.kernels.mean_time("matmul", 2000, 4)
        assert mean == pytest.approx(truth, rel=0.05)

    def test_measure_startup_default_20_trials(self, setup):
        platform, *_ = setup
        emu = TGridEmulator(platform, seed=7)
        assert len(emu.measure_startup(8)) == 20  # paper: 20 trials

    def test_measure_redistribution_default_3_trials(self, setup):
        platform, *_ = setup
        emu = TGridEmulator(platform, seed=7)
        assert len(emu.measure_redistribution_overhead(4, 8)) == 3

    def test_measurements_reproducible(self, setup):
        platform, *_ = setup
        a = TGridEmulator(platform, seed=7).measure_kernel("matadd", 3000, 2, 3)
        b = TGridEmulator(platform, seed=7).measure_kernel("matadd", 3000, 2, 3)
        assert a == b

    def test_invalid_trials_rejected(self, setup):
        platform, *_ = setup
        emu = TGridEmulator(platform, seed=7)
        with pytest.raises(ValueError):
            emu.measure_kernel("matmul", 2000, 1, trials=0)
        with pytest.raises(ValueError):
            emu.measure_startup(1, trials=0)
        with pytest.raises(ValueError):
            emu.measure_redistribution_overhead(1, 1, trials=0)
