"""Bottleneck max-min fair-sharing rate solver.

SimGrid's analytical network/CPU models assign rates to concurrent
actions by solving a max-min fairness problem: each action ``a`` has a
consumption weight ``w[a][r]`` on every resource ``r`` it uses, and the
solver finds rates ``rho[a]`` such that

* feasibility: ``sum_a w[a][r] * rho[a] <= C[r]`` for every resource, and
* max-min fairness: no action's rate can be increased without decreasing
  the rate of an action with an equal or smaller rate.

The classic bottleneck algorithm solves this exactly: repeatedly find the
resource with the smallest *fair share* ``C_rem[r] / W_rem[r]`` (remaining
capacity over the summed weight of still-unfixed actions), freeze every
unfixed action crossing it at that share, deduct their consumption, and
iterate.  Weighted max-min: an action's rate on a bottleneck resource is
``fair_share`` (the same for all actions crossing it), i.e. its
throughput on the resource is proportional to its weight — this matches
SimGrid's treatment of parallel tasks in ``ptask_L07``.

:func:`solve_rates` keeps two dicts, each resource's load and its
remaining capacity, both in first-touch order.  A round retires its
bottleneck and finds the actions to freeze by membership among the
unfixed actions (the engine hands it at most a handful); only the
resources those actions touch are re-summed, over the actions still
unfixed.  The last round, which freezes every action left, deducts
nothing: no later round reads a remaining capacity.

The textbook loop lives in ``tests/reference_simgrid.py`` as the oracle,
and the two are *floating-point identical*, not merely approximately
equal: a load is a left fold of the unfixed actions' weights in
consumption order, in the first round and in every re-sum, which is the
order the textbook's filtered re-sum visits them, and the capacity
deductions execute in the same sequence.  Both fold explicitly: from
Python 3.12 ``sum()`` over floats compensates its rounding, so it is not
a left fold.  Bottleneck *ties* are broken deterministically: resources
are scanned in first-touch order (the order the consumption mapping
first references them).  ``tests/simgrid/test_sharing_equivalence.py``
asserts exact equality on randomized instances.
"""

from __future__ import annotations

from typing import Hashable, Mapping

__all__ = ["solve_rates"]

_EPS = 1e-12


def _validate(
    consumption: Mapping[Hashable, Mapping[object, float]],
    capacity: Mapping[object, float],
) -> None:
    """Raise ValueError on the first malformed entry, in visiting order."""
    seen = set()
    for action, weights in consumption.items():
        for res, w in weights.items():
            if w <= 0:
                raise ValueError(
                    f"consumption weight of {action!r} on {res!r} "
                    "must be positive"
                )
            if res not in capacity:
                raise ValueError(f"resource {res!r} has no declared capacity")
            if res not in seen:
                seen.add(res)
                if capacity[res] <= 0:
                    raise ValueError(f"capacity of {res!r} must be positive")


def solve_rates(
    consumption: Mapping[Hashable, Mapping[object, float]],
    capacity: Mapping[object, float],
    *,
    validate: bool = True,
) -> dict[Hashable, float]:
    """Solve weighted max-min fair rates.

    Parameters
    ----------
    consumption:
        ``{action: {resource: weight}}``; weights must be positive.  An
        action with an empty mapping gets rate ``float('inf')``.
    capacity:
        ``{resource: capacity}`` for at least every referenced resource.
    validate:
        When False, skip the input checks: for trusted callers (the
        engine) only; the rates never depend on it.

    Returns
    -------
    dict
        ``{action: rate}`` with rates in work-units per second.

    Raises
    ------
    ValueError
        On non-positive weights/capacities or unknown resources (only
        with ``validate=True``).
    """
    if validate:
        _validate(consumption, capacity)
    rates: dict[Hashable, float] = {}
    # ``(action, weights)`` of the still-unfixed actions, in order.
    unfixed: list[tuple[Hashable, Mapping[object, float]]] = []
    # The resources that can still become a bottleneck, in first-touch
    # order.  The first round's loads are folded while indexing:
    # ``loads[res] = w`` equals the fold's ``0.0 + w`` for w > 0.
    loads: dict[object, float] = {}
    remaining: dict[object, float] = {}
    for action, weights in consumption.items():
        if not weights:
            rates[action] = float("inf")
            continue
        unfixed.append((action, weights))
        for res, w in weights.items():
            load = loads.get(res)
            if load is None:
                loads[res] = w
                remaining[res] = float(capacity[res])
            else:
                loads[res] = load + w

    while unfixed:
        # The bottleneck: the smallest fair share, the first in
        # first-touch order on a tie.
        best_share = None
        best_res = None
        for res, load in loads.items():
            if load <= _EPS:
                continue
            share = remaining[res] / load
            if best_share is None or share < best_share:
                best_share = share
                best_res = res
        if best_res is None:  # every weight of the actions left <= _EPS
            raise AssertionError("max-min solver lost its remaining actions")
        frozen = []
        left = []
        for item in unfixed:
            if best_res in item[1]:
                rates[item[0]] = best_share
                frozen.append(item[1])
            else:
                left.append(item)
        if not left:
            return rates
        unfixed = left
        del loads[best_res]
        del remaining[best_res]
        # Deduct the frozen actions' consumption, in freeze order, from
        # the resources left.  ``rc if rc > 0.0 else 0.0`` is
        # bit-identical to ``max(0.0, rc)``, NaN included.
        dirty = set()
        for weights in frozen:
            for res, w in weights.items():
                rc = remaining.get(res)
                if rc is not None:
                    rc = rc - w * best_share
                    remaining[res] = rc if rc > 0.0 else 0.0
                    dirty.add(res)
        # Re-fold the touched loads over the actions still unfixed; a
        # resource none of them uses leaves both dicts for good.
        for res in dirty:
            load = 0.0
            used = False
            for item in unfixed:
                w = item[1].get(res)
                if w is not None:
                    load = load + w
                    used = True
            if used:
                loads[res] = load
            else:
                del loads[res]
                del remaining[res]
    return rates
