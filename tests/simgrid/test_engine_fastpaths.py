"""Tests for the engine's hot-path invariants.

Covers the fast paths the performance work introduced — capacity
pruning, re-solve skipping for separable working sets, standalone
rates for unshared entrants and for the sole users in a re-solve —
and the determinism they must preserve: every rate is bit-identical to
one reference solve over the whole working set, and the observable
event stream of a simulation is identical across runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.generator import DagParameters, generate_dag
from repro.obs.recorder import Recorder, recording
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import schedule_dag
from repro.simgrid import engine as engine_module
from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import Resource
from repro.simgrid.sharing import solve_rates
from repro.simgrid.simulator import ApplicationSimulator
from tests.reference_simgrid import solve_rates_reference


class TestCapacityPruning:
    def test_capacity_shrinks_as_actions_complete(self):
        eng = SimulationEngine()
        cpu1 = Resource("cpu1", 100.0)
        cpu2 = Resource("cpu2", 100.0)
        eng.add_action(Action("fast", work=100.0, consumption={cpu1: 1.0}))
        eng.add_action(
            Action("slow", work=400.0, consumption={cpu1: 1.0, cpu2: 1.0})
        )
        assert set(eng._capacity) == {cpu1, cpu2}
        assert eng._cap_refs[cpu1] == 2
        eng.step()  # "fast" completes (shares cpu1, so both run at 50)
        assert eng._cap_refs[cpu1] == 1
        eng.run()
        # A long-lived engine must not accumulate stale resources.
        assert eng._capacity == {}
        assert eng._cap_refs == {}

    def test_reused_engine_does_not_grow(self):
        eng = SimulationEngine()
        for i in range(5):
            cpu = Resource(f"cpu{i}", 10.0)
            eng.add_action(Action(f"a{i}", work=10.0, consumption={cpu: 1.0}))
            eng.run()
            assert eng._capacity == {}


class TestCompletionOrder:
    def test_simultaneous_completions_fire_in_creation_order(self):
        # Created a, b, c but added c, a, b: the three finish in one
        # step and fire in creation order, not in the order they were
        # added to the engine.
        eng = SimulationEngine()
        fired: list[str] = []
        a, b, c = (
            Action(name, work=0.0, latency=1.0,
                   on_complete=lambda _eng, act: fired.append(act.name))
            for name in "abc"
        )
        for action in (c, a, b):
            eng.add_action(action)
        assert eng.step()
        assert fired == ["a", "b", "c"]
        assert eng.now == 1.0
        assert not eng.step()

    def test_working_actions_too(self):
        eng = SimulationEngine()
        fired: list[str] = []
        actions = [
            Action(name, work=10.0,
                   consumption={Resource(f"cpu_{name}", 10.0): 1.0},
                   on_complete=lambda _eng, act: fired.append(act.name))
            for name in "abc"
        ]
        for action in reversed(actions):
            eng.add_action(action)
        assert eng.run() == 1.0
        assert fired == ["a", "b", "c"]
        assert eng.steps_taken == 1


class TestSolveSkipping:
    def test_disjoint_actions_never_joint_solve(self):
        eng = SimulationEngine()
        cpu1 = Resource("cpu1", 100.0)
        cpu2 = Resource("cpu2", 50.0)
        a = eng.add_action(Action("a", work=100.0, consumption={cpu1: 1.0}))
        b = eng.add_action(Action("b", work=100.0, consumption={cpu2: 1.0}))
        assert eng.run() == pytest.approx(2.0)
        # Sole users get their standalone fair share directly; the
        # completion of "a" frees nothing anyone shares.
        assert eng.solver_calls == 0
        assert a.finish_time == pytest.approx(1.0)
        assert b.finish_time == pytest.approx(2.0)

    def test_shared_actions_go_through_the_solver(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        a = eng.add_action(Action("a", work=100.0, consumption={cpu: 1.0}))
        b = eng.add_action(Action("b", work=100.0, consumption={cpu: 1.0}))
        assert eng.run() == pytest.approx(2.0)
        assert eng.solver_calls >= 1
        assert a.finish_time == b.finish_time == pytest.approx(2.0)

    def test_latency_entrant_gets_standalone_rate(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        eng.add_action(
            Action("a", work=100.0, consumption={cpu: 1.0}, latency=1.0)
        )
        assert eng.run() == pytest.approx(2.0)
        assert eng.solver_calls == 0

    def test_entrant_sharing_with_pending_action_resolves(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        eng.add_action(Action("a", work=100.0, consumption={cpu: 1.0}))
        eng.add_action(
            Action("b", work=50.0, consumption={cpu: 1.0}, latency=0.5)
        )
        # a runs alone for 0.5s (50 work left), then shares 50/50 with
        # b: both need another 1.0s.
        assert eng.run() == pytest.approx(1.5)
        assert eng.solver_calls >= 1


    def test_unshared_working_set_skips_the_solver(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("solve_rates called")

        monkeypatch.setattr(engine_module, "solve_rates", no_solver)
        rec = Recorder.to_memory()
        with recording(rec):
            eng = SimulationEngine()
        cpu1 = Resource("cpu1", 100.0)
        cpu2 = Resource("cpu2", 100.0)
        eng.add_action(Action("a", work=100.0, consumption={cpu1: 1.0}))
        eng.add_action(
            Action("held", work=100.0, consumption={cpu1: 1.0}, latency=5.0)
        )
        b = eng.add_action(Action("b", work=300.0, consumption={cpu2: 1.0}))
        # "a" completes at t=1 while "held", still in its latency phase,
        # references cpu1: the release marks the rates dirty.
        eng.step()
        assert eng._rates_dirty
        # The re-solve's only working action, "b", shares nothing.
        eng.step()
        assert eng.solver_calls == 1
        assert rec.spans["engine.solve"].count == 1
        assert b.rate == 100.0
        # "held" enters the working set alone at t=5 and runs 1 s.
        assert eng.run() == 6.0
        assert eng.solver_calls == 1


    def test_lone_shared_action_skips_the_solver(self, monkeypatch):
        calls = []

        def counting_solver(consumption, capacity, **kwargs):
            calls.append(len(consumption))
            return solve_rates(consumption, capacity, **kwargs)

        monkeypatch.setattr(engine_module, "solve_rates", counting_solver)
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        a = eng.add_action(Action("a", work=100.0, consumption={cpu: 2.0}))
        eng.add_action(
            Action("held", work=50.0, consumption={cpu: 1.0}, latency=5.0)
        )
        eng.add_action(Action("b", work=10.0, consumption={cpu: 1.0}))
        # "a" and "b" share the cpu: one joint solve; "b" completes.
        eng.step()
        assert calls == [2]
        assert eng._rates_dirty
        # The re-solve's one working action, "a", shares the cpu only
        # with "held", still in its latency phase.
        eng.step()
        assert eng.solver_calls == 2
        assert calls == [2]
        expected = solve_rates_reference({a: a.consumption}, eng._capacity)
        assert a.rate == expected[a] == 50.0
        eng.run()
        assert eng._cap_refs == {}


class _ReferenceCheckedEngine(SimulationEngine):
    """Checks the rates after every re-solve, and before every step that
    needs none, against one reference solve of the whole working set;
    counts the re-solves that split it."""

    def __init__(self) -> None:
        super().__init__()
        self.split_solves = 0

    def _check_rates(self) -> None:
        working = [a for a in self._actions if a.latency_left <= 0.0]
        if not working:
            return
        expected = solve_rates_reference(
            {a: a.consumption for a in working}, self._capacity
        )
        for action in working:
            assert action.rate == expected[action], action.name

    def _solve(self) -> None:
        working = [a for a in self._actions if a.latency_left <= 0.0]
        sole = sum(
            all(self._cap_refs[r] == 1 for r in a.consumption)
            for a in working
        )
        super()._solve()
        self._check_rates()
        if 0 < sole < len(working):
            self.split_solves += 1

    def step(self) -> bool:
        if not self._rates_dirty:
            self._check_rates()
        return super().step()


_capacities = st.floats(min_value=1.0, max_value=1e3)
_amounts = st.floats(min_value=1e-3, max_value=1e2)
_action_specs = st.lists(
    st.tuples(
        _amounts,  # work
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        st.lists(_amounts, max_size=2),  # weights on private resources
        st.dictionaries(st.integers(0, 3), _amounts, max_size=3),  # pool
    ),
    min_size=1,
    max_size=12,
)


class TestSplitSolve:
    """A re-solve rates sole users directly and solves the rest jointly;
    the rates must equal one solve over the whole working set."""

    @settings(max_examples=150, deadline=None)
    @given(
        pool_caps=st.lists(_capacities, min_size=4, max_size=4),
        private_caps=_capacities,
        initial=_action_specs,
        follow_ups=_action_specs,
    )
    def test_rates_match_reference_solve(
        self, pool_caps, private_caps, initial, follow_ups
    ):
        pool = [Resource(f"pool{i}", c) for i, c in enumerate(pool_caps)]
        queue = list(follow_ups)
        eng = _ReferenceCheckedEngine()

        def make(spec, name):
            work, latency, private, shared = spec
            consumption = {
                Resource(f"{name}.own{i}", private_caps): w
                for i, w in enumerate(private)
            }
            consumption.update({pool[i]: w for i, w in shared.items()})
            return Action(
                name, work=work, consumption=consumption, latency=latency,
                on_complete=start_next,
            )

        def start_next(engine, _action):
            # Each completion starts one follow-up, so working sets keep
            # changing while latency-phase actions hold their refs.
            if queue:
                engine.add_action(make(queue.pop(0), f"f{len(queue)}"))

        for i, spec in enumerate(initial):
            eng.add_action(make(spec, f"a{i}"))
        eng.run()
        assert not queue
        assert eng._cap_refs == {}

    def test_property_reaches_split_solves(self):
        # A fixed instance of the property's shape in which a re-solve
        # holds both a sole user and actions that share.
        eng = _ReferenceCheckedEngine()
        cpu = Resource("cpu", 100.0)
        own = Resource("own", 10.0)
        held = Resource("held", 50.0)
        eng.add_action(Action("x", work=50.0, consumption={cpu: 1.0}))
        eng.add_action(Action("y", work=100.0, consumption={cpu: 2.0}))
        eng.add_action(Action("z", work=30.0, consumption={own: 1.0}))
        eng.add_action(
            Action("w", work=5.0, consumption={held: 1.0, cpu: 1.0},
                   latency=0.25)
        )
        eng.run()
        assert eng.split_solves >= 1


def _small_study_cell():
    platform = bayreuth_cluster(8)
    suite = build_analytical_suite(platform)
    graph = generate_dag(
        DagParameters(
            num_input_matrices=4, add_ratio=0.5, n=2000, sample=0, seed=3
        )
    )
    costs = SchedulingCosts(
        graph,
        platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )
    schedule = schedule_dag(graph, costs, "hcpa")
    simulator = ApplicationSimulator(
        platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )
    return graph, schedule, simulator


class TestEventOrderDeterminism:
    def test_event_stream_identical_across_runs(self):
        graph, schedule, simulator = _small_study_cell()
        streams = []
        for _ in range(2):
            rec = Recorder.to_memory()
            with recording(rec):
                trace = simulator.run(graph, schedule)
            events = [
                r for r in rec.sink.records if r.get("type") == "event"
            ]
            streams.append((trace.makespan, events))
        (mk1, ev1), (mk2, ev2) = streams
        assert mk1 == mk2
        assert ev1 == ev2  # same events, same order, same fields

    def test_fresh_simulator_reproduces_the_stream(self):
        graph, schedule, simulator = _small_study_cell()
        rec1 = Recorder.to_memory()
        with recording(rec1):
            simulator.run(graph, schedule)
        graph2, schedule2, simulator2 = _small_study_cell()
        rec2 = Recorder.to_memory()
        with recording(rec2):
            simulator2.run(graph2, schedule2)
        events1 = [r for r in rec1.sink.records if r.get("type") == "event"]
        events2 = [r for r in rec2.sink.records if r.get("type") == "event"]
        assert events1 == events2
