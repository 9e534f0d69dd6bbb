"""Tests for the discrete-event engine."""

import math

import pytest

from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import Resource
from repro.util.errors import SimulationError


def run_and_collect(engine):
    finished = []
    engine.run()
    return finished


class TestTimers:
    def test_single_timer(self):
        eng = SimulationEngine()
        fired = []
        eng.add_timer(2.5, lambda e, a: fired.append(e.now))
        assert eng.run() == pytest.approx(2.5)
        assert fired == [pytest.approx(2.5)]

    def test_timers_fire_in_order(self):
        eng = SimulationEngine()
        fired = []
        eng.add_timer(3.0, lambda e, a: fired.append("late"))
        eng.add_timer(1.0, lambda e, a: fired.append("early"))
        eng.run()
        assert fired == ["early", "late"]

    def test_zero_delay_timer(self):
        eng = SimulationEngine()
        fired = []
        eng.add_timer(0.0, lambda e, a: fired.append(e.now))
        eng.run()
        assert fired == [0.0]

    def test_chained_timers_from_callbacks(self):
        eng = SimulationEngine()
        times = []

        def chain(e, a):
            times.append(e.now)
            if len(times) < 3:
                e.add_timer(1.0, chain)

        eng.add_timer(1.0, chain)
        assert eng.run() == pytest.approx(3.0)
        assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


class TestComputeActions:
    def test_single_action_duration(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        eng.add_action(Action("t", work=500.0, consumption={cpu: 1.0}))
        assert eng.run() == pytest.approx(5.0)

    def test_latency_then_work(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        eng.add_action(
            Action("t", work=100.0, consumption={cpu: 1.0}, latency=2.0)
        )
        assert eng.run() == pytest.approx(3.0)

    def test_two_actions_share_resource(self):
        # Two equal actions on one CPU: both finish at 2x the solo time.
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        finishes = {}
        for name in ("a", "b"):
            eng.add_action(
                Action(
                    name,
                    work=100.0,
                    consumption={cpu: 1.0},
                    on_complete=lambda e, act: finishes.__setitem__(act.name, e.now),
                )
            )
        eng.run()
        assert finishes["a"] == pytest.approx(2.0)
        assert finishes["b"] == pytest.approx(2.0)

    def test_rates_rebalance_after_completion(self):
        # a: 100 work, b: 300 work on a 100-capacity CPU.  Both run at
        # 50/s; a finishes at 2s; b then runs alone and finishes at
        # 2 + (300-100)/100 = 4s.
        eng = SimulationEngine()
        cpu = Resource("cpu", 100.0)
        finishes = {}
        for name, work in (("a", 100.0), ("b", 300.0)):
            eng.add_action(
                Action(
                    name,
                    work=work,
                    consumption={cpu: 1.0},
                    on_complete=lambda e, act: finishes.__setitem__(act.name, e.now),
                )
            )
        eng.run()
        assert finishes["a"] == pytest.approx(2.0)
        assert finishes["b"] == pytest.approx(4.0)

    def test_independent_resources_run_concurrently(self):
        eng = SimulationEngine()
        c1, c2 = Resource("c1", 10.0), Resource("c2", 10.0)
        eng.add_action(Action("a", work=100.0, consumption={c1: 1.0}))
        eng.add_action(Action("b", work=100.0, consumption={c2: 1.0}))
        assert eng.run() == pytest.approx(10.0)

    def test_zero_work_completes_instantly(self):
        eng = SimulationEngine()
        fired = []
        eng.add_action(Action("t", work=0.0, on_complete=lambda e, a: fired.append(e.now)))
        eng.run()
        assert fired == [0.0]

    def test_callback_spawns_dependent_action(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 10.0)
        order = []

        def second(e, a):
            order.append(("second", e.now))

        def first(e, a):
            order.append(("first", e.now))
            e.add_action(
                Action("b", work=50.0, consumption={cpu: 1.0}, on_complete=second)
            )

        eng.add_action(
            Action("a", work=100.0, consumption={cpu: 1.0}, on_complete=first)
        )
        eng.run()
        assert order[0] == ("first", pytest.approx(10.0))
        assert order[1] == ("second", pytest.approx(15.0))

    def test_start_and_finish_times_recorded(self):
        eng = SimulationEngine()
        cpu = Resource("cpu", 10.0)
        act = eng.add_action(Action("a", work=20.0, consumption={cpu: 1.0}))
        eng.run()
        assert act.start_time == 0.0
        assert act.finish_time == pytest.approx(2.0)


class TestValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(SimulationError):
            Action("bad", work=-1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            Action("bad", work=1.0, latency=-0.1)

    def test_zero_consumption_weights_dropped(self):
        cpu = Resource("cpu", 10.0)
        act = Action("a", work=1.0, consumption={cpu: 0.0})
        assert act.consumption == {}

    def test_run_is_idempotent_when_empty(self):
        eng = SimulationEngine()
        assert eng.run() == 0.0
        assert eng.run() == 0.0

    def test_tiny_weight_action_raises(self):
        # An action whose only weight is below the solver's load epsilon
        # has no constraining resource: the run surfaces the solver's
        # invariant error instead of hanging or inventing a rate.
        eng = SimulationEngine()
        eng.add_action(
            Action("stuck", work=1.0, consumption={Resource("r", 1.0): 1e-30})
        )
        with pytest.raises(AssertionError, match="lost its remaining"):
            eng.run()
