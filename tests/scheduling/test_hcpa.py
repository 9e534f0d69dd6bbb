"""Tests for the HCPA allocation phase."""

import math

import pytest

from repro.dag.analysis import precedence_levels
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATMUL
from repro.models.analytical import AnalyticalTaskModel
from repro.platform.personalities import bayreuth_cluster
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.cpa import cpa_allocate
from repro.scheduling.hcpa import hcpa_allocate


def costs_for(graph, num_nodes=32):
    platform = bayreuth_cluster(num_nodes)
    return SchedulingCosts(graph, platform, AnalyticalTaskModel(platform))


@pytest.fixture
def wide_dag():
    g = TaskGraph(name="wide")
    g.add_task(Task(task_id=0, kernel=MATMUL, n=3000))
    for i in range(1, 5):
        g.add_task(Task(task_id=i, kernel=MATMUL, n=3000))
        g.add_edge(0, i)
    return g


class TestConcurrencyCap:
    def test_cap_is_even_share_of_level(self, wide_dag):
        costs = costs_for(wide_dag, num_nodes=32)
        alloc = hcpa_allocate(wide_dag, costs)
        levels = precedence_levels(wide_dag)
        # The 4-task level: each task capped at ceil(32 / 4) = 8.
        for t, lvl in levels.items():
            if lvl == 1:
                assert alloc[t] <= 8

    def test_chain_uncapped(self, chain_dag):
        # |level| = 1 everywhere: HCPA with beta=1 is exactly CPA.
        costs = costs_for(chain_dag)
        assert hcpa_allocate(chain_dag, costs) == cpa_allocate(chain_dag, costs)

    def test_caps_curb_cpa_overallocation_within_levels(self, wide_dag):
        costs = costs_for(wide_dag, num_nodes=32)
        cpa = cpa_allocate(wide_dag, costs)
        hcpa = hcpa_allocate(wide_dag, costs)
        levels = precedence_levels(wide_dag)
        children = [t for t, lvl in levels.items() if lvl == 1]
        # Within the crowded level, HCPA never exceeds the even share,
        # and never allocates more to a task than unconstrained CPA.
        assert max(hcpa[t] for t in children) <= 8
        assert max(hcpa[t] for t in children) <= max(cpa[t] for t in children)

    def test_valid_allocations(self, small_dag):
        costs = costs_for(small_dag)
        alloc = hcpa_allocate(small_dag, costs)
        assert set(alloc) == set(small_dag.task_ids)
        assert all(1 <= a <= 32 for a in alloc.values())

    def test_differs_from_mcpa_somewhere(self):
        # HCPA and MCPA must produce genuinely different schedules on the
        # paper's DAG population ("leading to different schedules").
        from repro.dag.generator import generate_paper_dags
        from repro.scheduling.mcpa import mcpa_allocate

        differs = False
        for params, graph in generate_paper_dags(seed=0, sizes=(2000,))[:9]:
            costs = costs_for(graph)
            if hcpa_allocate(graph, costs) != mcpa_allocate(graph, costs):
                differs = True
                break
        assert differs


class TestBetaDamping:
    def test_larger_beta_allocates_no_more(self, small_dag):
        costs = costs_for(small_dag)
        relaxed = hcpa_allocate(small_dag, costs, beta=1.0)
        damped = hcpa_allocate(small_dag, costs, beta=2.0)
        assert sum(damped.values()) <= sum(relaxed.values())

    def test_invalid_beta_rejected(self, small_dag):
        costs = costs_for(small_dag)
        with pytest.raises(ValueError):
            hcpa_allocate(small_dag, costs, beta=0.5)

    def test_nan_beta_rejected(self, small_dag):
        # NaN passes a ``beta < 1`` test, and then no
        # ``T_CP <= beta * T_A`` stop ever fires.
        costs = costs_for(small_dag)
        with pytest.raises(ValueError, match="beta"):
            hcpa_allocate(small_dag, costs, beta=float("nan"))
