"""Tests for the CPA allocation phase."""

import pytest

from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATMUL
from repro.models.analytical import AnalyticalTaskModel
from repro.models.base import ModelKind, TaskTimeModel
from repro.platform.cluster import ClusterPlatform
from repro.platform.personalities import bayreuth_cluster
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.cpa import average_area, cpa_allocate


class FlatModel(TaskTimeModel):
    """A model whose task times never improve with more processors."""

    name = "flat"

    @property
    def kind(self):
        return ModelKind.MEASURED

    def duration(self, task, p):
        return 10.0


def analytical_costs_for(graph, num_nodes=32):
    platform = bayreuth_cluster(num_nodes)
    return SchedulingCosts(graph, platform, AnalyticalTaskModel(platform))


class TestCpaAllocate:
    def test_single_task_grows_until_area_bound(self):
        g = TaskGraph()
        g.add_task(Task(task_id=0, kernel=MATMUL, n=2000))
        costs = analytical_costs_for(g)
        alloc = cpa_allocate(g, costs)
        # A single task IS the critical path; T_A = p*T(p)/32 rises as p
        # grows, T_CP = T(p) falls; the crossover for near-perfect
        # scaling sits near sqrt? — at least several processors.
        assert alloc[0] > 1

    def test_chain_gets_large_allocations(self, chain_dag):
        # A chain has no task parallelism: data parallelism is the only
        # lever, so CPA should allocate generously.
        costs = analytical_costs_for(chain_dag)
        alloc = cpa_allocate(chain_dag, costs)
        assert all(a >= 2 for a in alloc.values())

    def test_flat_model_never_grows(self, small_dag):
        platform = bayreuth_cluster()
        costs = SchedulingCosts(small_dag, platform, FlatModel())
        alloc = cpa_allocate(small_dag, costs)
        assert all(a == 1 for a in alloc.values())

    def test_allocations_within_bounds(self, small_dag):
        costs = analytical_costs_for(small_dag)
        alloc = cpa_allocate(small_dag, costs)
        assert set(alloc) == set(small_dag.task_ids)
        assert all(1 <= a <= 32 for a in alloc.values())

    def test_stop_criterion_satisfied_or_stuck(self, small_dag):
        from repro.dag.analysis import critical_path_length

        costs = analytical_costs_for(small_dag)
        alloc = cpa_allocate(small_dag, costs)
        t_cp = critical_path_length(small_dag, lambda t: costs.task_time(t, alloc[t]))
        t_a = average_area(costs, alloc)
        # Either the CPA criterion holds, or every critical-path task
        # stopped giving positive gain / hit the cap.
        if t_cp > t_a:
            from repro.dag.analysis import critical_path

            cp = critical_path(small_dag, lambda t: costs.task_time(t, alloc[t]))
            for t in cp:
                p = alloc[t]
                if p < 32:
                    gain = costs.task_time(t, p) / p - costs.task_time(
                        t, p + 1
                    ) / (p + 1)
                    assert gain <= 0

    def test_deterministic(self, small_dag):
        costs = analytical_costs_for(small_dag)
        assert cpa_allocate(small_dag, costs) == cpa_allocate(small_dag, costs)

    def test_small_cluster_cap(self, chain_dag):
        costs = analytical_costs_for(chain_dag, num_nodes=2)
        alloc = cpa_allocate(chain_dag, costs)
        assert all(a <= 2 for a in alloc.values())

    def test_empty_graph(self):
        g = TaskGraph()
        costs = analytical_costs_for(g)
        assert cpa_allocate(g, costs) == {}


class TestAverageArea:
    def test_formula(self):
        g = TaskGraph()
        g.add_task(Task(task_id=0, kernel=MATMUL, n=2000))
        platform = bayreuth_cluster(4)
        costs = SchedulingCosts(g, platform, FlatModel())
        # area = 2 procs * 10 s / 4 nodes = 5.
        assert average_area(costs, {0: 2}) == pytest.approx(5.0)


class FoldModel(TaskTimeModel):
    """Task times of 1e16, 1 and 1 seconds, whatever the processor
    count: a sum whose left fold and compensated value differ."""

    name = "fold"

    @property
    def kind(self):
        return ModelKind.MEASURED

    def duration(self, task, p):
        return (1e16, 1.0, 1.0)[task.task_id]


class TestAreaIsALeftFold:
    """``T_A`` adds the areas as a left fold: (1e16 + 1) + 1 rounds to
    1e16 twice, where a compensated sum (``sum()`` from Python 3.12,
    ``math.fsum``) gives 1e16 + 2."""

    @staticmethod
    def _costs():
        g = TaskGraph()
        for t in range(3):
            g.add_task(Task(task_id=t, kernel=MATMUL, n=2000))
        return g, SchedulingCosts(g, bayreuth_cluster(1), FoldModel())

    def test_average_area(self):
        _g, costs = self._costs()
        assert costs.platform.aggregate_speed == 1.0
        assert average_area(costs, {0: 1, 1: 1, 2: 1}) == 1e16

    def test_allocation_loop_records_the_fold(self):
        from repro.obs.recorder import Recorder, recording
        from repro.obs.sinks import MemorySink
        from repro.obs.timeline import Timeline

        g, costs = self._costs()
        recorder = Recorder(MemorySink(), timeline=Timeline())
        with recording(recorder):
            assert cpa_allocate(g, costs) == {0: 1, 1: 1, 2: 1}
        (done,) = [
            r for r in recorder.timeline.records if r["kind"] == "alloc_done"
        ]
        assert done["t_a"] == 1e16
