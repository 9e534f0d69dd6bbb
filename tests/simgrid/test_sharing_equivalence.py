"""Property tests: the optimized solver equals the reference exactly.

``solve_rates`` (incremental loads, dirty-resource re-sums, fast paths)
must return *bit-identical* rates to ``solve_rates_reference`` (the
textbook loop in ``tests/reference_simgrid.py``) on every instance —
the engine's determinism and the study's reproducibility rest on this.
Equality here is ``==`` on the floats, not approximate.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid.sharing import solve_rates
from tests.reference_simgrid import solve_rates_reference


@st.composite
def sharing_instances(draw):
    """Random (consumption, capacity) instances over small id pools."""
    num_res = draw(st.integers(min_value=1, max_value=6))
    resources = [f"r{i}" for i in range(num_res)]
    capacity = {
        r: draw(
            st.floats(
                min_value=0.1, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        for r in resources
    }
    num_actions = draw(st.integers(min_value=1, max_value=8))
    consumption = {}
    for a in range(num_actions):
        used = draw(
            st.lists(
                st.sampled_from(resources),
                min_size=0,
                max_size=num_res,
                unique=True,
            )
        )
        consumption[f"a{a}"] = {
            r: draw(
                st.floats(
                    min_value=1e-6, max_value=10.0,
                    allow_nan=False, allow_infinity=False,
                )
            )
            for r in used
        }
    return consumption, capacity


@given(sharing_instances())
@settings(max_examples=200, deadline=None)
def test_solver_equals_reference_bitwise(instance):
    consumption, capacity = instance
    fast = solve_rates(consumption, capacity)
    reference = solve_rates_reference(consumption, capacity)
    assert set(fast) == set(reference) == set(consumption)
    for action in consumption:
        a, b = fast[action], reference[action]
        # Bitwise: exact equality, inf included.
        assert a == b, (action, a.hex(), b.hex())


@given(sharing_instances())
@settings(max_examples=50, deadline=None)
def test_validate_flag_never_changes_rates(instance):
    consumption, capacity = instance
    assert solve_rates(consumption, capacity) == solve_rates(
        consumption, capacity, validate=False
    )


def test_unconstrained_action_is_infinite():
    rates = solve_rates({"a": {}}, {})
    assert math.isinf(rates["a"])
    assert rates == solve_rates_reference({"a": {}}, {})


def test_single_action_fast_path_matches_reference():
    consumption = {"a": {"r0": 2.0, "r1": 0.5}}
    capacity = {"r0": 4.0, "r1": 3.0}
    fast = solve_rates(consumption, capacity)
    assert fast == solve_rates_reference(consumption, capacity)
    assert fast["a"] == 2.0  # min(4/2, 3/0.5)


def test_shared_bottleneck_chain():
    # b is frozen with a on the shared bottleneck r0; c then gets the
    # leftovers of r1 — exercises deduction + dirty re-sum rounds.
    consumption = {
        "a": {"r0": 1.0},
        "b": {"r0": 1.0, "r1": 1.0},
        "c": {"r1": 1.0},
    }
    capacity = {"r0": 2.0, "r1": 10.0}
    fast = solve_rates(consumption, capacity)
    assert fast == solve_rates_reference(consumption, capacity)
    assert fast["a"] == fast["b"] == 1.0
    assert fast["c"] == 9.0
