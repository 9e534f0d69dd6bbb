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

:func:`solve_rates` keeps a per-resource weight dict from which frozen
actions are *deleted*, and re-sums a resource's remaining load only
when one of its actions froze since the last round (the resource is
"dirty").  The textbook algorithm re-sums every resource's load over
*all* actions in every round — ``O(rounds * R * A)``; the
dirty-resource scheme does the ``O(E)`` total deletion work once (``E``
= weight entries) plus ``O(rounds * R)`` for the bottleneck scan, and
only re-sums loads that actually changed.

The textbook loop lives in ``tests/reference_simgrid.py`` as the oracle,
and the two are *floating-point identical*, not merely approximately
equal: deleting frozen actions from the per-resource dicts preserves the
insertion order of the surviving entries, so the re-summed load adds the
same floats in the same order as the textbook's filtered sum, and the
capacity deductions execute in the same sequence.  Bottleneck *ties* are
broken deterministically: resources are scanned in first-touch order
(the order the consumption mapping first references them).
``tests/simgrid/test_sharing_equivalence.py`` asserts exact equality on
randomized instances.
"""

from __future__ import annotations

from typing import Hashable, Mapping

__all__ = ["solve_rates"]

_EPS = 1e-12


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
        ``{action: {resource: weight}}``; weights must be positive (drop
        zero entries before calling).  An action with an empty mapping
        is unconstrained and gets rate ``float('inf')``.
    capacity:
        ``{resource: capacity}`` for at least every referenced resource.
    validate:
        When False, skip the per-entry input checks.  For trusted
        callers only (the engine constructs both mappings from
        already-validated actions/resources); validation never affects
        the computed rates, so this is purely a hot-path switch.

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
    if len(consumption) == 1:
        # Fast path for the dominant engine workload: between
        # redistribution waves most solves see a single working action,
        # whose max-min rate is simply its smallest standalone fair
        # share.  Mirrors the general algorithm exactly (validation,
        # the load > _EPS filter, ``float(cap) / w`` in the same form),
        # so the result is bit-identical to the general loop's.
        ((action, weights),) = consumption.items()
        if not weights:
            return {action: float("inf")}
        best_share = None
        for res, w in weights.items():
            if validate:
                if w <= 0:
                    raise ValueError(
                        f"consumption weight of {action!r} on {res!r} "
                        "must be positive"
                    )
                if res not in capacity:
                    raise ValueError(
                        f"resource {res!r} has no declared capacity"
                    )
                if capacity[res] <= 0:
                    raise ValueError(f"capacity of {res!r} must be positive")
            if w <= _EPS:
                continue
            share = float(capacity[res]) / w
            if best_share is None or share < best_share:
                best_share = share
        if best_share is None:
            raise AssertionError("max-min solver lost its remaining actions")
        return {action: best_share}

    rates: dict[Hashable, float] = {}
    # Index each action's resources once.  ``usage[res]`` holds only the
    # still-unfixed actions: freezing an action deletes its entries, so
    # a load re-sum visits exactly the floats the reference algorithm's
    # ``if a in unfixed`` filter would, in the same order.
    usage: dict[object, dict[Hashable, float]] = {}
    unfixed_left = 0
    usage_get = usage.get
    # ``remaining_cap`` and the initial ``loads`` are seeded during
    # indexing: first sight of a resource sets ``loads[res] = w`` and
    # later entries accumulate ``loads[res] + w`` — the same floats
    # added left-to-right in the same (insertion) order as the
    # ``sum(usage[res].values())`` re-sum, and ``0 + w == w`` bitwise
    # for the positive weights the solver accepts, so the first round
    # needs no re-sum pass at all.
    remaining_cap: dict[object, float] = {}
    loads: dict[object, float] = {}
    for action, weights in consumption.items():
        if not weights:
            rates[action] = float("inf")
            continue
        unfixed_left += 1
        for res, w in weights.items():
            if validate:
                if w <= 0:
                    raise ValueError(
                        f"consumption weight of {action!r} on {res!r} "
                        "must be positive"
                    )
                if res not in capacity:
                    raise ValueError(
                        f"resource {res!r} has no declared capacity"
                    )
            per_res = usage_get(res)
            if per_res is None:
                usage[res] = {action: w}
                loads[res] = w
                cap = capacity[res]
                if validate and cap <= 0:
                    raise ValueError(f"capacity of {res!r} must be positive")
                remaining_cap[res] = float(cap)
            else:
                per_res[action] = w
                loads[res] = loads[res] + w

    # First-touch iteration order (``usage`` is insertion-ordered): the
    # bottleneck scan visits resources in the order the consumption
    # mapping first references them, so ties between equal fair shares
    # break deterministically, exactly as in the reference solver.
    active_res = dict.fromkeys(usage)
    dirty: set = set()  # resources whose load must be re-summed
    while unfixed_left:
        for res in dirty:
            loads[res] = sum(usage[res].values())
        dirty.clear()
        # Fair share of each still-active resource.
        best_share = None
        best_res = None
        for res in active_res:
            load = loads[res]
            if load <= _EPS:
                continue
            share = remaining_cap[res] / load
            if best_share is None or share < best_share:
                best_share = share
                best_res = res
        if best_res is None:
            # No active resource constrains the remaining actions; they
            # only used resources already saturated by themselves —
            # cannot happen because every unfixed action crosses at
            # least one resource with positive load (its own weight).
            raise AssertionError("max-min solver lost its remaining actions")
        # Freeze every unfixed action crossing the bottleneck.  The
        # bottleneck itself retires first: once a resource leaves
        # ``active_res`` its load, remaining capacity and usage entries
        # are never read again, so deductions and deletions are applied
        # to *still-active* resources only — the rates are unaffected
        # and the per-freeze work shrinks with every round.
        frozen = list(usage[best_res])
        del active_res[best_res]
        dirty_add = dirty.add
        for action in frozen:
            rates[action] = best_share
            unfixed_left -= 1
            # Deduct its consumption from every resource that can still
            # become a bottleneck and drop it from their indices.
            # ``rc if rc > 0.0 else 0.0`` is bit-identical to
            # ``max(0.0, rc)`` (same result for negatives, exact zeros
            # and NaN) without the call overhead.
            for res, w in consumption[action].items():
                if res in active_res:
                    rc = remaining_cap[res] - w * best_share
                    remaining_cap[res] = rc if rc > 0.0 else 0.0
                    del usage[res][action]
                    dirty_add(res)
    return rates

