"""Property-based invariants of the simulation stack.

These tests drive randomly generated DAGs, allocations and model
configurations through the full scheduling + simulation pipeline and
assert structural invariants that must hold for *any* input:
makespan lower/upper bounds, trace precedence consistency, host
exclusivity, engine work conservation, and determinism.  The trace
checks are absolute: they judge one trace on its own, never by
comparison with another implementation's output.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.analysis import critical_path_length
from repro.dag.generator import DagParameters, generate_dag, generate_paper_dags
from repro.models.analytical import AnalyticalTaskModel
from repro.models.base import ModelKind, TaskTimeModel
from repro.platform.personalities import bayreuth_cluster
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import ALGORITHMS, schedule_dag
from repro.scheduling.mapping import map_allocations
from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import Resource
from repro.simgrid.simulator import ApplicationSimulator
from repro.testbed.tgrid import TGridEmulator

_PLATFORM = bayreuth_cluster()
_EMULATOR = TGridEmulator(_PLATFORM, seed=0)


def assert_trace_invariants(graph, trace):
    """Check one simulated or emulated trace against its DAG.

    * **Host exclusivity.**  On every host, the tasks placed there,
      ordered by start time, never overlap: each starts no earlier
      than the previous one finished, compared exactly.
    * **Makespan bound.**  The makespan is at least the longest path
      through the DAG, weighing each task by its traced duration and
      each edge by its traced redistribution duration.  Re-adding the
      durations can round differently from the engine's clock, so the
      bound holds to a relative 1e-9.
    """
    by_host = {}
    for rec in trace.tasks.values():
        for host in rec.hosts:
            by_host.setdefault(host, []).append(rec)
    for host, recs in by_host.items():
        recs.sort(key=lambda r: (r.start, r.finish))
        for prev, nxt in zip(recs, recs[1:]):
            assert nxt.start >= prev.finish, (
                f"tasks {prev.task_id} and {nxt.task_id} overlap on "
                f"host {host}"
            )
    longest = {}
    for t in graph.topological_order():
        ready = max(
            (
                longest[u] + trace.edges[(u, t)].duration
                for u in graph.predecessors(t)
            ),
            default=0.0,
        )
        longest[t] = ready + trace.tasks[t].duration
    bound = max(longest.values(), default=0.0)
    assert trace.makespan >= bound * (1.0 - 1e-9), (trace.makespan, bound)


class ConstantModel(TaskTimeModel):
    """Measured model: every task takes ``seconds`` regardless of p."""

    name = "constant"

    def __init__(self, seconds):
        self.seconds = seconds

    @property
    def kind(self):
        return ModelKind.MEASURED

    def duration(self, task, p):
        return self.seconds


@st.composite
def pipeline_cases(draw):
    params = DagParameters(
        num_input_matrices=draw(st.sampled_from((2, 4, 8))),
        add_ratio=draw(st.sampled_from((0.5, 0.75, 1.0))),
        n=draw(st.sampled_from((2000, 3000))),
        sample=draw(st.integers(min_value=0, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=500)),
    )
    graph = generate_dag(params)
    alloc = {
        t: draw(st.integers(min_value=1, max_value=_PLATFORM.num_nodes))
        for t in graph.task_ids
    }
    return graph, alloc


class TestSimulationInvariants:
    @given(pipeline_cases(), st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_makespan_bounds_constant_model(self, case, seconds):
        graph, alloc = case
        model = ConstantModel(seconds)
        costs = SchedulingCosts(graph, _PLATFORM, model)
        schedule = map_allocations(graph, costs, alloc)
        trace = ApplicationSimulator(_PLATFORM, model).run(graph, schedule)
        # Lower bound: the critical path of task durations.
        cp = critical_path_length(graph, lambda t: seconds)
        assert trace.makespan >= cp - 1e-6
        # Upper bound: full serialisation plus generous transfer slack.
        assert trace.makespan <= len(graph) * seconds + 100.0

    @given(pipeline_cases())
    @settings(max_examples=20, deadline=None)
    def test_trace_consistency_analytical(self, case):
        graph, alloc = case
        model = AnalyticalTaskModel(_PLATFORM)
        costs = SchedulingCosts(graph, _PLATFORM, model)
        schedule = map_allocations(graph, costs, alloc)
        trace = ApplicationSimulator(_PLATFORM, model).run(graph, schedule)
        trace.validate_against(graph, schedule)
        # Every edge is recorded, every task has a record.
        assert set(trace.edges) == set(graph.edges())
        assert set(trace.tasks) == set(graph.task_ids)

    @given(pipeline_cases())
    @settings(max_examples=20, deadline=None)
    def test_simulated_and_emulated_traces_hold_invariants(self, case):
        graph, alloc = case
        model = AnalyticalTaskModel(_PLATFORM)
        costs = SchedulingCosts(graph, _PLATFORM, model)
        schedule = map_allocations(graph, costs, alloc)
        sim = ApplicationSimulator(_PLATFORM, model).run(graph, schedule)
        assert_trace_invariants(graph, sim)
        assert_trace_invariants(graph, _EMULATOR.execute(graph, schedule))

    @given(pipeline_cases())
    @settings(max_examples=15, deadline=None)
    def test_simulation_deterministic(self, case):
        graph, alloc = case
        model = AnalyticalTaskModel(_PLATFORM)
        costs = SchedulingCosts(graph, _PLATFORM, model)
        schedule = map_allocations(graph, costs, alloc)
        sim = ApplicationSimulator(_PLATFORM, model)
        assert sim.run(graph, schedule).makespan == sim.run(
            graph, schedule
        ).makespan

    # maxpar is excluded: whole-machine allocations make every matmul's
    # internal ring exchange cross every link, and the resulting
    # contention (which the Gantt estimate ignores) is unbounded in
    # principle — the very effect the contention ablation bench measures.
    @given(
        pipeline_cases(),
        st.sampled_from(sorted(set(ALGORITHMS) - {"maxpar"})),
    )
    @settings(max_examples=20, deadline=None)
    def test_scheduler_estimate_brackets_simulation(self, case, algorithm):
        # Same cost model and execution discipline, but the scheduler's
        # Gantt ignores network contention (its estimates are standalone
        # durations), so the simulated makespan can exceed the estimate
        # when concurrent ring exchanges and redistributions saturate
        # the backbone — by a bounded factor, never below the estimate's
        # optimistic floor.
        graph, _alloc = case
        model = AnalyticalTaskModel(_PLATFORM)
        costs = SchedulingCosts(graph, _PLATFORM, model)
        schedule = schedule_dag(graph, costs, algorithm)
        trace = ApplicationSimulator(_PLATFORM, model).run(graph, schedule)
        estimate = schedule.makespan_estimate
        assert 0.65 * estimate - 1e-6 <= trace.makespan <= 3.0 * estimate + 1e-6


@pytest.mark.parametrize("algorithm", ["hcpa", "mcpa"])
def test_paper_dag_traces_hold_invariants(algorithm):
    # Every seed-0 paper DAG, simulated with the analytic suite's model
    # and executed on the seed-0 testbed.
    model = AnalyticalTaskModel(_PLATFORM)
    simulator = ApplicationSimulator(_PLATFORM, model)
    for _params, graph in generate_paper_dags(seed=0):
        costs = SchedulingCosts(graph, _PLATFORM, model)
        schedule = schedule_dag(graph, costs, algorithm)
        assert_trace_invariants(graph, simulator.run(graph, schedule))
        assert_trace_invariants(graph, _EMULATOR.execute(graph, schedule))


class TestEngineWorkConservation:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1000.0),  # work
                st.floats(min_value=0.0, max_value=5.0),  # latency
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=10.0, max_value=1000.0),  # capacity
    )
    @settings(max_examples=40, deadline=None)
    def test_total_time_conserves_work(self, jobs, capacity):
        """On one shared resource, the last completion time equals
        total work / capacity plus the tail latency interleaving —
        bounded below by work conservation."""
        engine = SimulationEngine()
        cpu = Resource("cpu", capacity)
        for i, (work, latency) in enumerate(jobs):
            engine.add_action(
                Action(f"a{i}", work=work, consumption={cpu: 1.0},
                       latency=latency)
            )
        makespan = engine.run()
        total_work = sum(w for w, _l in jobs)
        max_latency = max(l for _w, l in jobs)
        # The resource can never process faster than its capacity...
        assert makespan >= total_work / capacity - 1e-6
        # ...and never idles longer than the longest latency phase.
        assert makespan <= total_work / capacity + max_latency + 1e-6

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2,
                 max_size=8)
    )
    @settings(max_examples=30, deadline=None)
    def test_equal_actions_finish_together(self, works):
        """Identical-weight actions sharing one resource under max-min
        fairness progress at equal rates: completion order follows work
        order."""
        engine = SimulationEngine()
        cpu = Resource("cpu", 50.0)
        finishes = {}
        for i, work in enumerate(works):
            engine.add_action(
                Action(
                    f"a{i}",
                    work=work,
                    consumption={cpu: 1.0},
                    on_complete=lambda e, a: finishes.__setitem__(a.name, e.now),
                )
            )
        engine.run()
        order = sorted(range(len(works)), key=lambda i: works[i])
        finish_times = [finishes[f"a{i}"] for i in order]
        assert all(
            b >= a - 1e-9 for a, b in zip(finish_times, finish_times[1:])
        )
