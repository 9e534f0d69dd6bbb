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

from repro.dag.distributions import redistribution_messages
from repro.simgrid.ptask import sparse_network_totals
from repro.simgrid.sharing import _EPS, solve_rates
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


# ----------------------------------------------------------------------
# The shapes the engine produces
# ----------------------------------------------------------------------
_STAR_HOSTS = 32


@st.composite
def star_instances(draw):
    """Working sets as the engine hands them to the solver.

    A star topology of up to 32 hosts — a CPU, an uplink and a downlink
    per host, and one backbone, 97 resources at most — carries 2 to 8
    actions: tasks weighing exact flop counts on their hosts' CPUs, and
    redistributions weighing exact byte counts (the per-link totals of
    a block redistribution) on uplinks, the backbone and downlinks.
    Some actions also carry a weight below the solver's load epsilon.
    """
    hosts = draw(st.integers(min_value=2, max_value=_STAR_HOSTS))
    capacity: dict[str, float] = {"backbone": 1.25e9}
    for h in range(hosts):
        capacity[f"cpu{h}"] = 250e6
        capacity[f"up{h}"] = capacity[f"down{h}"] = 1.25e8
    host_sets = st.lists(
        st.integers(0, hosts - 1), min_size=1, max_size=hosts, unique=True
    )
    consumption: dict[str, dict[str, float]] = {}
    for a in range(draw(st.integers(min_value=2, max_value=8))):
        weights: dict[str, float] = {}
        n = draw(st.sampled_from([2000, 3000]))
        if draw(st.booleans()):
            src, dst = draw(host_sets), draw(host_sets)
            up, down, backbone = sparse_network_totals(
                redistribution_messages(n, len(src), len(dst)), src, dst
            )
            for h, nbytes in up:
                weights[f"up{h}"] = nbytes
            if backbone > 0.0:
                weights["backbone"] = backbone
            for h, nbytes in down:
                weights[f"down{h}"] = nbytes
        if not weights:
            # A task, or a redistribution that stays on its hosts and
            # so would hold no resource; the engine rates those itself.
            task_hosts = draw(host_sets)
            flops = 2.0 * n**3 / len(task_hosts)
            for h in task_hosts:
                weights[f"cpu{h}"] = flops
        spare = sorted(set(capacity) - set(weights))
        if spare and draw(st.integers(0, 3)) == 0:
            res = draw(st.sampled_from(spare))
            weights[res] = draw(
                st.floats(min_value=1e-18, max_value=_EPS)
            )
        consumption[f"a{a}"] = weights
    return consumption, capacity


@given(star_instances())
@settings(max_examples=200, deadline=None)
def test_star_topology_solver_equals_reference(instance):
    consumption, capacity = instance
    fast = solve_rates(consumption, capacity, validate=False)
    assert fast == solve_rates_reference(consumption, capacity)
    assert fast == solve_rates(consumption, capacity)


def test_loads_are_left_folds():
    # ``x`` freezes first, on r0; r's load is then re-summed over the
    # three actions left.  As a left fold, (1e16 + 1) + 1 rounds to 1e16
    # twice, so they share r's 4e16 at exactly 4.0; a compensated sum
    # (``sum()`` from Python 3.12, ``math.fsum``) gives 1e16 + 2 and a
    # smaller share.
    consumption = {
        "x": {"r0": 1.0, "r": 1.0},
        "p": {"r": 1e16},
        "q": {"r": 1.0},
        "s": {"r": 1.0},
    }
    capacity = {"r0": 1.0, "r": 4e16}
    expected = {"x": 1.0, "p": 4.0, "q": 4.0, "s": 4.0}
    assert solve_rates(consumption, capacity) == expected
    assert solve_rates_reference(consumption, capacity) == expected
