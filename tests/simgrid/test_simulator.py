"""Tests for the schedule-driven application simulator."""

import pytest

from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATADD, MATMUL, matrix_bytes
from repro.models.analytical import AnalyticalTaskModel
from repro.models.base import ModelKind, TaskTimeModel
from repro.models.overheads import (
    LinearRedistributionOverheadModel,
    LinearStartupModel,
)
from repro.models.regression import LinearFit
from repro.platform.cluster import ClusterPlatform
from repro.scheduling.schedule import Placement, Schedule
from repro.simgrid.resources import NetworkTopology
from repro.simgrid.simulator import ApplicationSimulator, ScheduleLowering
from repro.util.errors import InvalidScheduleError


class FixedModel(TaskTimeModel):
    """Measured-kind model with a constant duration (test double)."""

    name = "fixed"

    def __init__(self, seconds=2.0):
        self.seconds = seconds
        self.calls = []

    @property
    def kind(self):
        return ModelKind.MEASURED

    def duration(self, task, p):
        self.calls.append((task.task_id, p))
        return self.seconds


@pytest.fixture
def platform():
    return ClusterPlatform(
        num_nodes=4,
        flops=1e9,
        link_bandwidth=1e9,
        link_latency=0.0,
        backbone_bandwidth=64e9,  # non-blocking switch: 32 MB moves in 0.5 ms
    )


def schedule_for(graph, placements):
    order = graph.topological_order()
    return Schedule(
        {t: Placement(task_id=t, hosts=h) for t, h in placements.items()},
        order,
        algorithm="test",
    )


class TestChainExecution:
    def test_chain_serialises(self, platform, chain_dag):
        sched = schedule_for(chain_dag, {0: (0,), 1: (0,), 2: (0,)})
        sim = ApplicationSimulator(platform, FixedModel(2.0))
        trace = sim.run(chain_dag, sched)
        assert trace.makespan == pytest.approx(6.0)
        assert trace.tasks[1].start == pytest.approx(2.0)
        assert trace.tasks[2].start == pytest.approx(4.0)

    def test_redistribution_transfer_delays_successor(self, chain_dag):
        platform = ClusterPlatform(
            num_nodes=2, flops=1e9, link_bandwidth=1e8, link_latency=0.0
        )
        # Producer on host 0, consumer on host 1: the whole n=2000
        # matrix (32 MB) crosses one 100 MB/s link => 0.32 s.
        sched = schedule_for(chain_dag, {0: (0,), 1: (1,), 2: (1,)})
        sim = ApplicationSimulator(platform, FixedModel(1.0))
        trace = sim.run(chain_dag, sched)
        expected_transfer = matrix_bytes(2000) / 1e8
        assert trace.edges[(0, 1)].duration == pytest.approx(expected_transfer)
        assert trace.tasks[1].start == pytest.approx(1.0 + expected_transfer)

    def test_same_hosts_no_transfer(self, platform, chain_dag):
        sched = schedule_for(chain_dag, {0: (0, 1), 1: (0, 1), 2: (0, 1)})
        sim = ApplicationSimulator(platform, FixedModel(1.0))
        trace = sim.run(chain_dag, sched)
        for rec in trace.edges.values():
            assert rec.duration == pytest.approx(0.0)
        assert trace.makespan == pytest.approx(3.0)


class TestParallelExecution:
    def test_independent_tasks_overlap_on_disjoint_hosts(self, platform):
        g = TaskGraph()
        g.add_task(Task(task_id=0, kernel=MATMUL, n=1000))
        g.add_task(Task(task_id=1, kernel=MATMUL, n=1000))
        sched = schedule_for(g, {0: (0,), 1: (1,)})
        sim = ApplicationSimulator(platform, FixedModel(3.0))
        trace = sim.run(g, sched)
        assert trace.makespan == pytest.approx(3.0)

    def test_host_order_enforced_for_shared_host(self, platform):
        g = TaskGraph()
        g.add_task(Task(task_id=0, kernel=MATMUL, n=1000))
        g.add_task(Task(task_id=1, kernel=MATMUL, n=1000))
        sched = schedule_for(g, {0: (0, 1), 1: (1, 2)})
        sim = ApplicationSimulator(platform, FixedModel(3.0))
        trace = sim.run(g, sched)
        # Host 1 is shared: task 1 must wait for task 0.
        assert trace.tasks[1].start == pytest.approx(3.0)
        assert trace.makespan == pytest.approx(6.0)

    def test_diamond_joins_after_both_branches(self, platform, diamond_dag):
        sched = schedule_for(
            diamond_dag, {0: (0,), 1: (1,), 2: (2,), 3: (3,)}
        )
        sim = ApplicationSimulator(platform, FixedModel(2.0))
        trace = sim.run(diamond_dag, sched)
        # 0 finishes at 2; branches finish just after 4 (plus the 32 MB
        # matrix transfers); the join starts after both and their
        # redistributions, so the makespan is 6 plus transfer time.
        assert 4.0 < trace.tasks[3].start < 4.2
        assert 6.0 < trace.makespan < 6.2
        assert trace.tasks[3].start >= max(
            trace.tasks[1].finish, trace.tasks[2].finish
        )


class TestOverheadModels:
    def test_startup_overhead_adds_latency(self, platform, chain_dag):
        sched = schedule_for(chain_dag, {0: (0,), 1: (0,), 2: (0,)})
        startup = LinearStartupModel(LinearFit(a=0.0, b=0.5))
        sim = ApplicationSimulator(platform, FixedModel(1.0), startup_model=startup)
        trace = sim.run(chain_dag, sched)
        assert trace.makespan == pytest.approx(3 * 1.5)
        assert trace.tasks[0].startup_overhead == pytest.approx(0.5)

    def test_redistribution_overhead_adds_latency(self, platform, chain_dag):
        sched = schedule_for(chain_dag, {0: (0,), 1: (0,), 2: (0,)})
        redist = LinearRedistributionOverheadModel(LinearFit(a=0.0, b=0.25))
        sim = ApplicationSimulator(
            platform, FixedModel(1.0), redistribution_model=redist
        )
        trace = sim.run(chain_dag, sched)
        # Two edges, each adding 0.25 s even on identical host sets.
        assert trace.makespan == pytest.approx(3 * 1.0 + 2 * 0.25)


class TestAnalyticalExecution:
    def test_analytical_matches_model_duration(self, platform):
        g = TaskGraph()
        g.add_task(Task(task_id=0, kernel=MATADD, n=2000))
        model = AnalyticalTaskModel(platform)
        sched = schedule_for(g, {0: (0, 1)})
        sim = ApplicationSimulator(platform, model)
        trace = sim.run(g, sched)
        assert trace.makespan == pytest.approx(model.duration(g.task(0), 2))

    def test_matmul_internal_communication_simulated(self):
        platform = ClusterPlatform(
            num_nodes=2, flops=1e12, link_bandwidth=1e6, link_latency=0.0
        )
        # Absurdly fast CPUs: the ring communication dominates.
        g = TaskGraph()
        g.add_task(Task(task_id=0, kernel=MATMUL, n=1000))
        model = AnalyticalTaskModel(platform)
        sched = schedule_for(g, {0: (0, 1)})
        trace = ApplicationSimulator(platform, model).run(g, sched)
        assert trace.makespan == pytest.approx(model.duration(g.task(0), 2))
        assert trace.makespan > 1.0  # clearly comm-bound


class TestModelInvocation:
    def test_measured_model_called_once_per_task(self, platform, chain_dag):
        model = FixedModel(1.0)
        sched = schedule_for(chain_dag, {0: (0,), 1: (0,), 2: (0,)})
        ApplicationSimulator(platform, model).run(chain_dag, sched)
        assert sorted(model.calls) == [(0, 1), (1, 1), (2, 1)]


class TestScheduleValidationPath:
    def test_incomplete_schedule_rejected(self, platform, chain_dag):
        sched = Schedule(
            {0: Placement(task_id=0, hosts=(0,))}, [0], algorithm="test"
        )
        sim = ApplicationSimulator(platform, FixedModel())
        with pytest.raises(InvalidScheduleError):
            sim.run(chain_dag, sched)

    def test_order_violating_precedence_rejected(self, platform, chain_dag):
        placements = {
            t: Placement(task_id=t, hosts=(0,)) for t in chain_dag.task_ids
        }
        sched = Schedule(placements, [2, 1, 0], algorithm="test")
        sim = ApplicationSimulator(platform, FixedModel())
        with pytest.raises(InvalidScheduleError):
            sim.run(chain_dag, sched)

    def test_trace_consistency_checks(self, platform, chain_dag):
        sched = schedule_for(chain_dag, {0: (0,), 1: (1,), 2: (2,)})
        trace = ApplicationSimulator(platform, FixedModel(1.0)).run(
            chain_dag, sched
        )
        trace.validate_against(chain_dag, sched)  # must not raise


class TestScheduleLowering:
    def test_runs_sharing_a_lowering_validate_once(
        self, platform, diamond_dag, monkeypatch
    ):
        sched = schedule_for(
            diamond_dag, {0: (0, 1), 1: (2,), 2: (1, 3), 3: (0,)}
        )
        sim = ApplicationSimulator(platform, FixedModel(1.0))
        fresh = [sim.run(diamond_dag, sched) for _ in range(2)]
        calls = []
        validate = Schedule.validate
        monkeypatch.setattr(
            Schedule,
            "validate",
            lambda *args: calls.append(args) or validate(*args),
        )
        lowering = ScheduleLowering(diamond_dag, sched)
        shared = [
            sim.run(diamond_dag, sched, lowering=lowering) for _ in range(2)
        ]
        assert len(calls) == 1
        assert shared == fresh

    def test_lowering_of_another_pair_rejected(self, platform, chain_dag):
        sched = schedule_for(chain_dag, {0: (0,), 1: (0,), 2: (0,)})
        other = schedule_for(chain_dag, {0: (1,), 1: (1,), 2: (1,)})
        sim = ApplicationSimulator(platform, FixedModel())
        with pytest.raises(ValueError):
            sim.run(chain_dag, sched, lowering=ScheduleLowering(chain_dag, other))

    def test_platform_too_small_for_a_built_lowering_rejected(
        self, platform, chain_dag
    ):
        sched = schedule_for(chain_dag, {0: (0,), 1: (3,), 2: (1,)})
        lowering = ScheduleLowering(chain_dag, sched)
        ApplicationSimulator(platform, FixedModel()).run(
            chain_dag, sched, lowering=lowering
        )
        small = ClusterPlatform(num_nodes=2, flops=1e9, link_bandwidth=1e9)
        with pytest.raises(InvalidScheduleError):
            ApplicationSimulator(small, FixedModel()).run(
                chain_dag, sched, lowering=lowering
            )

    def test_topology_of_another_platform_rejected(self, platform):
        other = ClusterPlatform(num_nodes=4, flops=1e9, link_bandwidth=1e9)
        with pytest.raises(ValueError):
            ApplicationSimulator(
                platform, FixedModel(), topology=NetworkTopology(other)
            )
