"""CPA — Critical Path and Area-based allocation.

Radulescu & van Gemund, "A Low-Cost Approach towards Mixed Task and
Data Parallel Scheduling" (ICPP 2001).  The allocation phase balances
two lower bounds on the makespan:

* ``T_CP`` — the critical-path length under current allocations (the
  task-parallel bound), and
* ``T_A = (1/P) * sum_t p_t * T(t, p_t)`` — the average area (the
  data-parallel bound: total work spread over all P processors).

Starting from one processor per task, CPA repeatedly gives one more
processor to the critical-path task with the largest benefit

    ``G(t) = T(t, p_t) / p_t  -  T(t, p_t + 1) / (p_t + 1)``

until ``T_CP <= T_A``.  Growing an allocation shrinks ``T_CP`` but (for
imperfectly scaling tasks) grows ``T_A``; the loop stops where the
bounds cross.  The paper under reproduction notes that CPA's allocations
"can become too large, thereby degrading overall performance" — the
defect HCPA and MCPA address.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.dag.analysis import CriticalPathDP
from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.costs import SchedulingCosts

__all__ = ["cpa_allocate", "average_area", "allocation_loop"]


def average_area(costs: SchedulingCosts, alloc: dict[int, int]) -> float:
    """``T_A``: total processor-area divided by the machine capacity.

    On homogeneous clusters the denominator is the node count (the
    paper's setting).  On heterogeneous clusters it is the aggregate
    speed in reference-node units — HCPA's reference-cluster view of
    the machine, which CPA's area bound generalises to naturally.
    """
    total = sum(costs.work(t, p) for t, p in alloc.items())
    return total / costs.platform.aggregate_speed


def _cpa_gain(costs: SchedulingCosts, task_id: int, p: int) -> float:
    """CPA's benefit of one extra processor for a task.

    Delegates to the memoised :meth:`SchedulingCosts.marginal_gain`
    (see there for semantics); kept as a function because HCPA and MCPA
    import it by this name.
    """
    return costs.marginal_gain(task_id, p)


def allocation_loop(
    graph: TaskGraph,
    costs: SchedulingCosts,
    *,
    select: Callable[[list[int], dict[int, int]], int | None],
    stop: Callable[[float, float, dict[int, int]], bool] | None = None,
    max_alloc: int | None = None,
) -> dict[int, int]:
    """Shared skeleton of the CPA-family allocation phase.

    Parameters
    ----------
    select:
        Given the current critical path (task ids) and allocations,
        return the task to grow, or None to stop.  Receives only tasks
        that can still grow (``p < max_alloc``).
    stop:
        Extra stopping predicate ``f(T_CP, T_A, alloc)``; default is the
        CPA criterion ``T_CP <= T_A``.
    max_alloc:
        Per-task allocation cap (defaults to the platform size).

    Performance invariants (see ``docs/performance.md``): the grow loop
    changes exactly one task's allocation per step, so

    * the critical-path structure (topological order, successor lists,
      sources) is hoisted into a :class:`CriticalPathDP` built once, and
      a *single* bottom-level pass per step serves both ``T_CP`` and the
      critical path (the generic helpers would run two full DPs);
    * ``T_A`` is maintained incrementally at the *term* level: only the
      grown task's processor-area entry is recomputed, and the terms are
      re-summed in task order so the result stays bit-identical to the
      full ``average_area`` re-sum (a running-total update would drift
      in the last ulps and could flip the ``T_CP <= T_A`` stop test on
      near-ties).
    """
    P = costs.num_procs
    cap = P if max_alloc is None else min(max_alloc, P)
    alloc: dict[int, int] = {t: 1 for t in graph.task_ids}
    if not alloc:
        return alloc
    stop = stop or (lambda t_cp, t_a, _alloc: t_cp <= t_a)
    obs = get_recorder()
    tl = obs.timeline if obs.enabled else None
    prof = obs.profiler

    dp = CriticalPathDP(graph)
    agg_speed = costs.platform.aggregate_speed
    # ``cost``/``areas`` are keyed/ordered like ``alloc`` so the T_A
    # re-sum adds the same floats in the same order as average_area().
    cost: dict[int, float] = {}
    areas: list[float] = []
    area_index: dict[int, int] = {}
    for i, t in enumerate(alloc):
        cost[t] = costs.task_time(t, 1)
        areas.append(costs.work(t, 1))
        area_index[t] = i

    stop_reason = "iteration_budget"
    t_cp = t_a = math.nan
    # Upper bound on grow steps: every step adds one processor to one
    # task.  Checked *after* growing, so exhausting the budget exits the
    # loop without paying one more bounds evaluation whose result could
    # never be acted upon.
    budget = len(alloc) * cap + 1
    grows = 0
    while True:
        if obs.enabled:
            # Aggregate-only timing: one DP per grow step means
            # thousands of measurements per study — per-call sink
            # records would swamp the trace and the loop itself.
            t0 = time.perf_counter()
            bl = dp.bottom_levels(cost)
            seconds = time.perf_counter() - t0
            obs.timing("sched.critical_path", seconds)
            if prof is not None:
                # Kernel probe sized by task count: the DP's work is one
                # pass over the DAG.
                prof.probe("critical_path_dp", len(alloc), seconds)
        else:
            bl = dp.bottom_levels(cost)
        t_cp = dp.length(bl)
        t_a = sum(areas) / agg_speed
        if stop(t_cp, t_a, alloc):
            stop_reason = "criterion"
            break
        growable = [t for t in dp.path(bl) if alloc[t] < cap]
        if not growable:
            stop_reason = "critical_path_capped"
            break
        if prof is not None:
            t0 = time.perf_counter()
            chosen = select(growable, alloc)
            # Sized by candidate count: the grow sweep scans the
            # critical path's growable tasks once per step.
            prof.probe(
                "alloc_grow", len(growable), time.perf_counter() - t0
            )
        else:
            chosen = select(growable, alloc)
        if chosen is None:
            stop_reason = "no_beneficial_candidate"
            break
        p_new = alloc[chosen] + 1
        alloc[chosen] = p_new
        cost[chosen] = costs.task_time(chosen, p_new)
        areas[area_index[chosen]] = costs.work(chosen, p_new)
        grows += 1
        if obs.enabled:
            # Per-decision record: which task grew, to what allocation,
            # and the bounds that justified growing it.
            obs.count("sched.alloc_grow_steps")
            obs.event(
                "sched.alloc_grow",
                dag=graph.name,
                task=chosen,
                p=p_new,
                t_cp=t_cp,
                t_a=t_a,
            )
            if tl is not None:
                tl.alloc(chosen, p_new, t_cp, t_a, grows)
        if grows >= budget:
            stop_reason = "iteration_budget"
            break
    if obs.enabled:
        # The bounds fields carry the last evaluated T_CP / T_A, so a
        # trace shows the actual numbers the loop ended on — including
        # for an "iteration_budget" exit, where they are the bounds that
        # justified the final grow.
        obs.event(
            "sched.alloc_done",
            dag=graph.name,
            reason=stop_reason,
            total_alloc=sum(alloc.values()),
            tasks=len(alloc),
            t_cp=t_cp,
            t_a=t_a,
        )
        if tl is not None:
            tl.alloc_done(stop_reason, sum(alloc.values()), t_cp, t_a, grows)
    return alloc


def cpa_allocate(
    graph: TaskGraph,
    costs: SchedulingCosts,
    *,
    sched: str | None = None,
) -> dict[int, int]:
    """The original CPA allocation: grow the best-gain critical-path task.

    Tasks whose gain is non-positive (adding a processor does not reduce
    their time-per-processor — common beyond the scaling knee of
    measured models) are never grown; when no critical-path task has
    positive gain the loop stops even if ``T_CP > T_A`` still holds,
    because no further improvement is possible.

    ``sched`` picks the backend: ``"object"`` runs this loop,
    ``"array"`` the bit-identical flat-array core in
    :mod:`repro.scheduling.arena`; ``None`` defers to ``REPRO_SCHED``.
    """
    from repro.scheduling.arena import cpa_allocate_array, resolve_sched

    if resolve_sched(sched) == "array":
        return cpa_allocate_array(graph, costs)

    def select(candidates: list[int], alloc: dict[int, int]) -> int | None:
        best_task = None
        best_gain = 0.0
        for t in candidates:
            gain = _cpa_gain(costs, t, alloc[t])
            if gain > best_gain:
                best_gain = gain
                best_task = t
        return best_task

    return allocation_loop(graph, costs, select=select)
