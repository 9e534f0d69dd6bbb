"""Tests for the bottleneck max-min fair-sharing solver."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid.sharing import solve_rates


class TestBasicSharing:
    def test_single_action_gets_full_capacity(self):
        rates = solve_rates({"a": {"r": 1.0}}, {"r": 10.0})
        assert rates["a"] == pytest.approx(10.0)

    def test_two_equal_actions_split_evenly(self):
        rates = solve_rates({"a": {"r": 1.0}, "b": {"r": 1.0}}, {"r": 10.0})
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(5.0)

    def test_weighted_action_gets_proportionally_less_rate(self):
        # Action b consumes 4 units per work-unit: same fair share of
        # the resource means a quarter of the rate.
        rates = solve_rates({"a": {"r": 1.0}, "b": {"r": 4.0}}, {"r": 10.0})
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(2.0)
        # Consumptions: 2*1 + 2*4 = 10 = capacity.

    def test_unconstrained_action_is_infinite(self):
        rates = solve_rates({"a": {}}, {})
        assert math.isinf(rates["a"])


class TestBottleneckPropagation:
    def test_freed_capacity_goes_to_unblocked_action(self):
        # a and b share r1 (the bottleneck for a); b also uses r2.
        # Classic max-min: a is capped by r1's fair share; b gets the
        # same on r1... here we make b bottlenecked elsewhere so a
        # inherits the slack.
        consumption = {
            "a": {"r1": 1.0},
            "b": {"r1": 1.0, "r2": 1.0},
        }
        capacity = {"r1": 10.0, "r2": 2.0}
        rates = solve_rates(consumption, capacity)
        assert rates["b"] == pytest.approx(2.0)  # capped by r2
        assert rates["a"] == pytest.approx(8.0)  # inherits r1 slack

    def test_three_flows_two_links(self):
        # Flows: x uses l1, y uses l1+l2, z uses l2. Capacities 1.
        consumption = {
            "x": {"l1": 1.0},
            "y": {"l1": 1.0, "l2": 1.0},
            "z": {"l2": 1.0},
        }
        capacity = {"l1": 1.0, "l2": 1.0}
        rates = solve_rates(consumption, capacity)
        # Max-min: y fixed at 0.5 on the first bottleneck; x and z get
        # the remaining 0.5 of their links.
        assert rates["y"] == pytest.approx(0.5)
        assert rates["x"] == pytest.approx(0.5)
        assert rates["z"] == pytest.approx(0.5)


class TestValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            solve_rates({"a": {"r": 0.0}}, {"r": 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            solve_rates({"a": {"r": -1.0}}, {"r": 1.0})

    def test_missing_capacity_rejected(self):
        with pytest.raises(ValueError):
            solve_rates({"a": {"r": 1.0}}, {})

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            solve_rates({"a": {"r": 1.0}}, {"r": 0.0})

    def test_empty_problem(self):
        assert solve_rates({}, {}) == {}

    def test_all_tiny_weight_row_raises(self):
        # Every weight at or below the load epsilon: no resource
        # constrains the action, which the solver reports as a broken
        # invariant instead of returning a garbage rate.
        with pytest.raises(AssertionError, match="lost its remaining actions"):
            solve_rates(
                {"a": {"r0": 1e-13, "r1": 1e-14}},
                {"r0": 4.0, "r1": 3.0},
                validate=False,
            )


@st.composite
def sharing_problems(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    n_act = draw(st.integers(min_value=1, max_value=8))
    resources = [f"r{i}" for i in range(n_res)]
    capacity = {
        r: draw(st.floats(min_value=0.1, max_value=100.0)) for r in resources
    }
    consumption = {}
    for i in range(n_act):
        used = draw(
            st.sets(st.sampled_from(resources), min_size=1, max_size=n_res)
        )
        consumption[f"a{i}"] = {
            r: draw(st.floats(min_value=0.01, max_value=10.0)) for r in used
        }
    return consumption, capacity


class TestMaxMinProperties:
    @given(sharing_problems())
    @settings(max_examples=60, deadline=None)
    def test_feasibility(self, problem):
        consumption, capacity = problem
        rates = solve_rates(consumption, capacity)
        load = {r: 0.0 for r in capacity}
        for action, weights in consumption.items():
            assert rates[action] > 0
            for r, w in weights.items():
                load[r] += w * rates[action]
        for r, total in load.items():
            assert total <= capacity[r] * (1 + 1e-6)

    @given(sharing_problems())
    @settings(max_examples=60, deadline=None)
    def test_every_action_hits_a_saturated_resource(self, problem):
        # Max-min optimality (the bottleneck condition): each action
        # crosses a (numerically) saturated resource on which no other
        # action runs faster.  Otherwise it could grow at the expense
        # of a faster action only, so the allocation would not be
        # max-min fair even though it wastes no capacity.
        consumption, capacity = problem
        rates = solve_rates(consumption, capacity)
        load = {r: 0.0 for r in capacity}
        users = {r: [] for r in capacity}
        for action, weights in consumption.items():
            for r, w in weights.items():
                load[r] += w * rates[action]
                users[r].append(action)
        for action, weights in consumption.items():
            bottlenecked = any(
                load[r] >= capacity[r] * (1 - 1e-6)
                and all(
                    rates[other] <= rates[action] * (1 + 1e-6)
                    for other in users[r]
                )
                for r in weights
            )
            assert bottlenecked, f"{action} has no bottleneck resource"

    @given(sharing_problems())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, problem):
        consumption, capacity = problem
        assert solve_rates(consumption, capacity) == solve_rates(
            consumption, capacity
        )
