"""Tests for the oracle's shared CPA-family allocation skeleton.

``allocation_loop`` in ``tests/reference_cpa.py`` is the object loop the
production allocators are compared against; its ``select``/``stop``/
``max_alloc`` hooks and stop reasons are pinned here.
"""

import pytest

from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATMUL
from repro.models.base import ModelKind, TaskTimeModel
from repro.platform.personalities import bayreuth_cluster
from repro.scheduling.costs import SchedulingCosts
from tests.reference_cpa import allocation_loop


class PerfectScaling(TaskTimeModel):
    name = "perfect"

    @property
    def kind(self):
        return ModelKind.MEASURED

    def duration(self, task, p):
        return 100.0 / p


@pytest.fixture
def two_task_graph():
    g = TaskGraph()
    for i in range(2):
        g.add_task(Task(task_id=i, kernel=MATMUL, n=100))
    g.add_edge(0, 1)
    return g


def costs_for(graph, num_nodes=8):
    platform = bayreuth_cluster(num_nodes)
    return SchedulingCosts(graph, platform, PerfectScaling())


class TestAllocationLoop:
    def test_select_none_stops_immediately(self, two_task_graph):
        costs = costs_for(two_task_graph)
        alloc = allocation_loop(
            two_task_graph, costs, select=lambda cands, a: None
        )
        assert alloc == {0: 1, 1: 1}

    def test_custom_stop_hook_honoured(self, two_task_graph):
        costs = costs_for(two_task_graph)
        calls = []

        def stop(t_cp, t_a, alloc):
            calls.append((t_cp, t_a))
            return len(calls) >= 3  # stop after two growth steps

        alloc = allocation_loop(
            two_task_graph,
            costs,
            select=lambda cands, a: cands[0],
            stop=stop,
        )
        assert sum(alloc.values()) == 2 + 2  # two steps of +1

    def test_max_alloc_cap(self, two_task_graph):
        costs = costs_for(two_task_graph)
        alloc = allocation_loop(
            two_task_graph,
            costs,
            select=lambda cands, a: cands[0],
            stop=lambda *_: False,  # never stop voluntarily
            max_alloc=3,
        )
        # The loop exhausts candidates at the cap and terminates.
        assert all(a <= 3 for a in alloc.values())

    def test_terminates_even_without_stop(self, two_task_graph):
        # With perfect scaling and no stop, every task saturates the
        # machine and the loop ends when nothing can grow.
        costs = costs_for(two_task_graph, num_nodes=4)
        alloc = allocation_loop(
            two_task_graph,
            costs,
            select=lambda cands, a: cands[0],
            stop=lambda *_: False,
        )
        assert all(a == 4 for a in alloc.values())

    def test_empty_graph(self):
        g = TaskGraph()
        costs = costs_for(g)
        assert allocation_loop(g, costs, select=lambda c, a: None) == {}

    def test_selection_sees_only_growable_critical_path_tasks(
        self, two_task_graph
    ):
        costs = costs_for(two_task_graph, num_nodes=2)
        seen = []

        def select(cands, alloc):
            seen.append(tuple(cands))
            return cands[0] if cands else None

        allocation_loop(
            two_task_graph, costs, select=select, stop=lambda *_: False
        )
        # Both chain tasks are always on the critical path until capped.
        assert all(set(c) <= {0, 1} for c in seen)
        assert seen  # the hook actually ran


class TestAllocDoneEvent:
    """The ``sched.alloc_done`` trace event carries reason + bounds."""

    def _alloc_done(self, recorder):
        from repro.obs.recorder import recording

        events = [
            r for r in recorder.sink.records
            if r.get("name") == "sched.alloc_done"
        ]
        assert len(events) == 1
        return events[0]

    def _run(self, graph, costs, **kwargs):
        import math

        from repro.obs.recorder import Recorder, recording

        rec = Recorder.to_memory()
        with recording(rec):
            allocation_loop(graph, costs, **kwargs)
        event = self._alloc_done(rec)
        assert math.isfinite(event["t_cp"])
        assert math.isfinite(event["t_a"])
        return event

    def test_criterion_stop_reports_bounds(self, two_task_graph):
        costs = costs_for(two_task_graph)
        event = self._run(
            two_task_graph, costs, select=lambda cands, a: cands[0]
        )
        assert event["reason"] == "criterion"
        # The CPA criterion stopped the loop, so the reported bounds
        # must satisfy it.
        assert event["t_cp"] <= event["t_a"]

    def test_no_candidate_stop_reason(self, two_task_graph):
        costs = costs_for(two_task_graph)
        event = self._run(
            two_task_graph, costs, select=lambda cands, a: None
        )
        assert event["reason"] == "no_beneficial_candidate"

    def test_capped_critical_path_stop_reason(self, two_task_graph):
        costs = costs_for(two_task_graph, num_nodes=4)
        event = self._run(
            two_task_graph,
            costs,
            select=lambda cands, a: cands[0],
            stop=lambda *_: False,
        )
        assert event["reason"] == "critical_path_capped"
        assert event["total_alloc"] == 8  # both tasks saturated (4 + 4)
