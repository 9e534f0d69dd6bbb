"""Object-loop reference implementation of the CPA-family allocators.

This is the test oracle the production allocators in
:mod:`repro.scheduling` (the flat-array core of
:mod:`repro.scheduling.arena`) are compared against.  It spells the
allocation phase out the direct way: a dict-based critical-path DP per
grow step and per-algorithm ``select``/``stop`` hooks on one shared
loop.  It emits the same observability records, counters, timeline
lines and profiler probes as the production loop, so the comparison
covers every observable, not only the allocations.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Callable, Mapping

from repro.dag.analysis import precedence_levels
from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.hcpa import DEFAULT_BETA

__all__ = [
    "CriticalPathDP",
    "allocation_loop",
    "cpa_allocate",
    "hcpa_allocate",
    "mcpa_allocate",
]


class CriticalPathDP:
    """Reusable critical-path state for repeated cost-perturbed queries.

    The CPA-family allocation loop recomputes bottom levels once per
    grow step while only one task's cost changes.  Going through the
    generic helpers costs two full DP passes per step (one for the
    length, one inside :func:`critical_path`) plus a topological sort
    and a successor-list copy *per pass*.  This class hoists all the
    structure — topological order, successor lists, sources — out of
    the loop and serves both the length and the path from a single
    bottom-level pass over plain dicts.

    Results are floating-point identical to the zero-edge-cost
    :func:`~repro.dag.analysis.bottom_levels` /
    :func:`~repro.dag.analysis.critical_path` /
    :func:`~repro.dag.analysis.critical_path_length` combination: same
    traversal order, same max/min reductions, same tie-breaks.
    """

    __slots__ = ("_rev_order", "_succ", "_sources")

    def __init__(self, graph: TaskGraph) -> None:
        order = graph.topological_order()
        self._rev_order = list(reversed(order))
        self._succ = {t: graph.successors(t) for t in order}
        self._sources = graph.sources()

    def bottom_levels(self, cost: Mapping[int, float]) -> dict[int, float]:
        """One DP pass: longest path from each task to an exit."""
        bl: dict[int, float] = {}
        succ = self._succ
        for node in self._rev_order:
            tail = 0.0
            for s in succ[node]:
                b = bl[s]
                if b > tail:
                    tail = b
            bl[node] = cost[node] + tail
        return bl

    def length(self, bl: Mapping[int, float]) -> float:
        """``T_CP`` from a :meth:`bottom_levels` result."""
        if not self._sources:
            return 0.0
        return max(bl[t] for t in self._sources)

    def path(self, bl: Mapping[int, float]) -> list[int]:
        """One critical path entry->exit; ties break to the smallest id."""
        if not self._sources:
            return []
        # Explicit argmax loops: same selection as
        # ``min(..., key=lambda t: (-bl[t], t))`` — largest bottom
        # level, ties to the smallest id — without building a key tuple
        # and calling a lambda per candidate on this per-grow-step path.
        node = self._sources[0]
        best = bl[node]
        for t in self._sources[1:]:
            b = bl[t]
            if b > best or (b == best and t < node):
                best = b
                node = t
        path = [node]
        while True:
            succs = self._succ[node]
            if not succs:
                return path
            node = succs[0]
            best = bl[node]
            for s in succs[1:]:
                b = bl[s]
                if b > best or (b == best and s < node):
                    best = b
                    node = s
            path.append(node)


def _cpa_gain(costs: SchedulingCosts, task_id: int, p: int) -> float:
    """CPA's benefit of one extra processor for a task.

    Delegates to the memoised :meth:`SchedulingCosts.marginal_gain`
    (see there for semantics); shared by the three ``select`` hooks.
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

    Performance invariants: the grow loop changes exactly one task's
    allocation per step, so

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
            obs.count("sched.alloc_grow_steps")
            if tl is not None:
                # Per-decision record: which task grew, to what
                # allocation, and the bounds that justified growing it.
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


def _cell_context(graph: TaskGraph, algorithm: str):
    """The ``dag``/``algorithm`` timeline context an allocator pushes
    when its caller opened none (``schedule_dag`` opens both)."""
    obs = get_recorder()
    if not obs.enabled or obs.timeline is None:
        return nullcontext()
    top = obs.timeline._stack[-1]
    missing = {
        key: value
        for key, value in (("dag", graph.name), ("algorithm", algorithm))
        if key not in top
    }
    return obs.timeline.context(**missing) if missing else nullcontext()


def cpa_allocate(graph: TaskGraph, costs: SchedulingCosts) -> dict[int, int]:
    """The original CPA allocation: grow the best-gain critical-path task.

    Tasks whose gain is non-positive (adding a processor does not reduce
    their time-per-processor — common beyond the scaling knee of
    measured models) are never grown; when no critical-path task has
    positive gain the loop stops even if ``T_CP > T_A`` still holds,
    because no further improvement is possible.
    """

    def select(candidates: list[int], alloc: dict[int, int]) -> int | None:
        best_task = None
        best_gain = 0.0
        for t in candidates:
            gain = _cpa_gain(costs, t, alloc[t])
            if gain > best_gain:
                best_gain = gain
                best_task = t
        return best_task

    with _cell_context(graph, "cpa"):
        return allocation_loop(graph, costs, select=select)


def hcpa_allocate(
    graph: TaskGraph,
    costs: SchedulingCosts,
    *,
    beta: float = DEFAULT_BETA,
) -> dict[int, int]:
    """HCPA allocation: CPA with a concurrency cap and a damped stop."""
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1 (CPA's criterion), got {beta}")
    P = costs.num_procs
    obs = get_recorder()
    # Phase span: the static cap construction is HCPA's only work on
    # top of the shared loop, so profiles separate it from the grow
    # sweeps it bounds.
    with obs.span("alloc.hcpa.caps", dag=graph.name):
        levels = precedence_levels(graph)
        level_size: dict[int, int] = {}
        for lvl in levels.values():
            level_size[lvl] = level_size.get(lvl, 0) + 1
        cap: dict[int, int] = {
            t: max(1, math.ceil(P / level_size[levels[t]]))
            for t in graph.task_ids
        }
    if obs.enabled:
        obs.event(
            "sched.hcpa.caps",
            dag=graph.name,
            beta=beta,
            min_cap=min(cap.values()),
            max_cap=max(cap.values()),
            widest_level=max(level_size.values()),
        )

    def stop(t_cp: float, t_a: float, _alloc: dict[int, int]) -> bool:
        return t_cp <= beta * t_a

    def select(candidates: list[int], alloc: dict[int, int]) -> int | None:
        best_task = None
        best_gain = 0.0
        for t in candidates:
            if alloc[t] >= cap[t]:
                # The concurrency cap is HCPA's over-allocation fix in
                # action; count how often it actually binds.
                if obs.enabled:
                    obs.count("sched.hcpa.cap_hits")
                continue
            gain = _cpa_gain(costs, t, alloc[t])
            if gain > best_gain:
                best_gain = gain
                best_task = t
        return best_task

    with _cell_context(graph, "hcpa"):
        return allocation_loop(graph, costs, select=select, stop=stop)


def mcpa_allocate(graph: TaskGraph, costs: SchedulingCosts) -> dict[int, int]:
    """Level-bounded CPA allocation."""
    obs = get_recorder()
    # Phase span: the level-membership index is MCPA's only setup work
    # on top of the shared loop, mirroring HCPA's cap-construction span.
    with obs.span("alloc.mcpa.levels", dag=graph.name):
        levels = precedence_levels(graph)
        members: dict[int, list[int]] = {}
        for task_id, lvl in levels.items():
            members.setdefault(lvl, []).append(task_id)
    P = costs.num_procs

    def level_load(task_id: int, alloc: dict[int, int]) -> int:
        return sum(alloc[t] for t in members[levels[task_id]])

    def select(candidates: list[int], alloc: dict[int, int]) -> int | None:
        best_task = None
        best_gain = 0.0
        for t in candidates:
            if level_load(t, alloc) >= P:
                # MCPA's width constraint binding: the level already
                # saturates the machine, so this task cannot grow.
                if obs.enabled:
                    obs.count("sched.mcpa.level_saturated")
                continue
            gain = _cpa_gain(costs, t, alloc[t])
            if gain > best_gain:
                best_gain = gain
                best_task = t
        return best_task

    with _cell_context(graph, "mcpa"):
        return allocation_loop(graph, costs, select=select)
