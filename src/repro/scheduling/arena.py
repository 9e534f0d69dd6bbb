"""Array-backed allocation core for the CPA family.

This module lowers the per-step object walks of the scheduling hot
path onto flat lists while staying **bit-identical** to the object
implementation in :mod:`repro.scheduling.cpa`.

Three costs dominate the object allocation loop (one grow step changes
exactly one task's allocation):

* a full :class:`~repro.dag.analysis.CriticalPathDP` bottom-level pass
  per step over dicts — here replaced by an *incremental* array DP that
  re-propagates bottom levels only through the part of the DAG a single
  cost change can reach (every node outside the changed task's ancestor
  cone keeps its bottom level, because ``bl`` depends on successors
  only);
* a separate critical-path walk per step — here fused into the DP pass,
  which tracks each node's best successor (largest ``bl``, ties to the
  smallest task id — the exact tie-break of
  :meth:`CriticalPathDP.path`, and an order-independent function of the
  successor set, so pointer-following reconstructs the identical path);
* the per-candidate ``select`` sweep re-probing memoised gains — here a
  contiguous gain list updated only for the grown task and swept by one
  scalar loop.

Bit-identity rules (checked end-to-end by ``tests/test_sched_arena.py``):

* bottom levels are a max/+ DP — exact in IEEE arithmetic, so partial
  re-propagation reproduces the object DP bit-for-bit;
* ``T_A`` stays a *sequential left fold* (``sum``) over the per-task
  areas in task order;
* the gain sweep keeps first-occurrence-wins semantics, matching the
  object loop's strictly-greater update;
* HCPA caps and MCPA level sums are integers — exact either way.

Observability parity: the array loop emits the *same* records as the
object loop — ``sched.critical_path`` timings and ``critical_path_dp``
/ ``alloc_grow`` probes (so profiles keep one kernel vocabulary across
``sched`` backends), ``sched.alloc_grow_steps`` /
``sched.hcpa.cap_hits`` / ``sched.mcpa.level_saturated`` counters, the
``sched.alloc_grow`` / ``sched.alloc_done`` / ``sched.hcpa.caps``
events, the ``alloc.hcpa.caps`` / ``alloc.mcpa.levels`` spans, and
byte-identical timeline ``alloc`` records.
"""

from __future__ import annotations

import math
import os
import time
from weakref import WeakKeyDictionary

from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.costs import SchedulingCosts

__all__ = [
    "SCHED_BACKENDS",
    "SCHED_ENV_VAR",
    "GraphLayout",
    "allocate_batch",
    "cpa_allocate_array",
    "graph_layout",
    "hcpa_allocate_array",
    "mcpa_allocate_array",
    "resolve_sched",
]

#: Environment variable consulted when no scheduler backend is given.
SCHED_ENV_VAR = "REPRO_SCHED"
SCHED_BACKENDS = ("object", "array")


def resolve_sched(sched: str | None = None) -> str:
    """Resolve a scheduler backend name.

    Explicit argument wins; otherwise the ``REPRO_SCHED`` environment
    variable; otherwise ``"object"`` (the oracle backend).
    """
    if sched is None:
        sched = os.environ.get(SCHED_ENV_VAR) or "object"
    if sched not in SCHED_BACKENDS:
        raise ValueError(
            f"unknown scheduler backend {sched!r}; "
            f"choose one of {SCHED_BACKENDS}"
        )
    return sched


class GraphLayout:
    """Flat index-space lowering of a :class:`TaskGraph`.

    Task ids map to dense indices in ``task_ids`` insertion order;
    successor lists, the topological order, sources and precedence
    levels are all pre-resolved to indices so the allocation
    loop never touches a dict or a task id until it emits records.
    """

    __slots__ = (
        "n",
        "num_edges",
        "tids",
        "index",
        "order",
        "rev_order",
        "order_pos",
        "succ",
        "sources",
        "levels",
        "level_sizes",
        "__weakref__",
    )

    def __init__(self, graph: TaskGraph) -> None:
        tids = list(graph.task_ids)
        index = {t: i for i, t in enumerate(tids)}
        order = [index[t] for t in graph.topological_order()]
        succ = [[index[s] for s in graph.successors(t)] for t in tids]
        n = len(tids)
        self.n = n
        self.num_edges = graph.num_edges
        self.tids = tids
        self.index = index
        self.order = order
        self.rev_order = order[::-1]
        order_pos = [0] * n
        for pos, i in enumerate(order):
            order_pos[i] = pos
        self.order_pos = order_pos
        self.succ = succ
        pred: list[list[int]] = [[] for _ in range(n)]
        for i in order:
            for s in succ[i]:
                pred[s].append(i)
        self.sources = [index[t] for t in graph.sources()]
        # Precedence levels, exactly as ``precedence_levels``: topo
        # order, entry tasks at 0, else 1 + max over predecessors.
        levels = [0] * n
        for i in order:
            ps = pred[i]
            levels[i] = 1 + max(levels[q] for q in ps) if ps else 0
        self.levels = levels
        sizes = [0] * ((max(levels) + 1) if levels else 0)
        for lvl in levels:
            sizes[lvl] += 1
        self.level_sizes = sizes


#: One layout per live graph; invalidated structurally (a grown or
#: edge-extended graph gets a fresh layout on next use).
_LAYOUT_CACHE: "WeakKeyDictionary[TaskGraph, GraphLayout]" = WeakKeyDictionary()


def graph_layout(graph: TaskGraph) -> GraphLayout:
    """The (memoised) flat layout of a graph.

    ``run_study`` schedules every graph once per algorithm per suite;
    the memo amortises the lowering across all of them.  Staleness is
    detected structurally: a graph that gained tasks or edges since the
    layout was built is re-lowered.
    """
    layout = _LAYOUT_CACHE.get(graph)
    if (
        layout is None
        or layout.n != len(graph)
        or layout.num_edges != graph.num_edges
    ):
        layout = _LAYOUT_CACHE[graph] = GraphLayout(graph)
    return layout


class _BaseVectors:
    """p=1 cost/area/gain vectors of a (graph, costs) pair."""

    __slots__ = ("graph", "cost", "areas", "gains")

    def __init__(
        self,
        graph: TaskGraph,
        cost: list[float],
        areas: list[float],
        gains: list[float],
    ) -> None:
        self.graph = graph
        self.cost = cost
        self.areas = areas
        self.gains = gains


_BASE_CACHE: "WeakKeyDictionary[SchedulingCosts, _BaseVectors]" = (
    WeakKeyDictionary()
)


def _base_vectors(
    graph: TaskGraph, layout: GraphLayout, costs: SchedulingCosts
) -> _BaseVectors:
    """Initial (all tasks at p=1) vectors, memoised per costs object.

    Every CPA-family allocation starts from the same p=1 state, so the
    second and later algorithms over the same (graph, costs) pair copy
    three lists instead of re-walking the model memos.
    """
    base = _BASE_CACHE.get(costs)
    if base is None or base.graph is not graph or len(base.cost) != layout.n:
        task_time = costs.task_time
        marginal_gain = costs.marginal_gain
        cost = [task_time(t, 1) for t in layout.tids]
        # work(t, 1) == 1 * task_time(t, 1), bit-identical to the value
        # itself — no second model walk needed.
        areas = cost.copy()
        gains = [marginal_gain(t, 1) for t in layout.tids]
        base = _BASE_CACHE[costs] = _BaseVectors(graph, cost, areas, gains)
    return base


# -- DP kernels ---------------------------------------------------------


def _bl_full_scalar(
    layout: GraphLayout,
    cost: list[float],
    bl: list[float],
    bestsucc: list[int],
) -> None:
    """Full bottom-level pass, fused with best-successor tracking.

    ``bestsucc[i]`` is the successor with the largest bottom level,
    ties to the smallest task id — the selection
    :meth:`CriticalPathDP.path` makes at every walk step, precomputed
    so path reconstruction is pointer-following.
    """
    tids = layout.tids
    succ = layout.succ
    for i in layout.rev_order:
        ss = succ[i]
        if not ss:
            bestsucc[i] = -1
            bl[i] = cost[i] + 0.0
            continue
        bn = ss[0]
        best = bl[bn]
        for s in ss[1:]:
            b = bl[s]
            if b > best or (b == best and tids[s] < tids[bn]):
                best = b
                bn = s
        bestsucc[i] = bn
        bl[i] = cost[i] + (best if best > 0.0 else 0.0)


def _bl_prefix_update(
    layout: GraphLayout,
    cost: list[float],
    bl: list[float],
    bestsucc: list[int],
    changed: int,
) -> None:
    """Incremental DP after one cost change.

    Only ancestors of the changed task (and the task itself) can see a
    new bottom level; all of them sit at topological positions at or
    before the changed task's, so one re-pass over that prefix of the
    reverse order restores the DP — nodes outside it keep bit-identical
    values by construction.
    """
    tids = layout.tids
    succ = layout.succ
    rev_order = layout.rev_order
    for i in rev_order[layout.n - 1 - layout.order_pos[changed]:]:
        ss = succ[i]
        if not ss:
            bestsucc[i] = -1
            bl[i] = cost[i] + 0.0
            continue
        bn = ss[0]
        best = bl[bn]
        for s in ss[1:]:
            b = bl[s]
            if b > best or (b == best and tids[s] < tids[bn]):
                best = b
                bn = s
        bestsucc[i] = bn
        bl[i] = cost[i] + (best if best > 0.0 else 0.0)


# -- grow-sweep kernels -------------------------------------------------


def _grow_scalar(
    growable: list[int],
    gains: list[float],
    alloc: list[int],
    caps: list[int] | None,
    level_of: list[int] | None,
    level_sums: list[int] | None,
    P: int,
) -> tuple[int, int]:
    """Scalar gain sweep; returns ``(chosen index or -1, blocked count)``.

    Mirrors the object ``select`` hooks exactly: strictly-greater gain
    wins (first occurrence on ties), HCPA skips capped tasks, MCPA
    skips tasks whose precedence level saturates the machine; skipped
    candidates are tallied so the callers can emit the same
    ``cap_hits`` / ``level_saturated`` counter totals.
    """
    best = 0.0
    chosen = -1
    hits = 0
    if caps is not None:
        for i in growable:
            if alloc[i] >= caps[i]:
                hits += 1
                continue
            g = gains[i]
            if g > best:
                best = g
                chosen = i
    elif level_of is not None:
        for i in growable:
            if level_sums[level_of[i]] >= P:
                hits += 1
                continue
            g = gains[i]
            if g > best:
                best = g
                chosen = i
    else:
        for i in growable:
            g = gains[i]
            if g > best:
                best = g
                chosen = i
    return chosen, hits


# -- the allocation loop ------------------------------------------------


def _allocation_loop_array(
    graph: TaskGraph,
    costs: SchedulingCosts,
    *,
    stop_mult: float = 1.0,
    caps: list[int] | None = None,
    level_of: list[int] | None = None,
    level_sums: list[int] | None = None,
    max_alloc: int | None = None,
) -> dict[int, int]:
    """Array twin of :func:`repro.scheduling.cpa.allocation_loop`.

    One loop serves all three algorithms: CPA is the bare gain sweep,
    HCPA adds per-task ``caps`` and a damped stop (``stop_mult`` =
    beta), MCPA adds per-level allocation bounds (``level_of`` +
    ``level_sums``, maintained incrementally as exact integers).  Every
    stop reason, record, counter, probe and timeline write matches the
    object loop — see the module docstring for the invariants that make
    the numbers themselves bit-identical.
    """
    layout = graph_layout(graph)
    n = layout.n
    if n == 0:
        return {}
    P = costs.num_procs
    cap = P if max_alloc is None else min(max_alloc, P)
    obs = get_recorder()
    enabled = obs.enabled
    tl = obs.timeline if enabled else None
    prof = obs.profiler
    perf = time.perf_counter

    tids = layout.tids
    sources = layout.sources
    succ = layout.succ
    rev_order = layout.rev_order
    order_pos = layout.order_pos
    base = _base_vectors(graph, layout, costs)
    cost = base.cost.copy()
    areas = base.areas.copy()
    gains = base.gains.copy()
    alloc = [1] * n
    bl = [0.0] * n
    bestsucc = [-1] * n
    agg_speed = costs.platform.aggregate_speed
    task_time = costs.task_time
    tt_get = costs._task_time_cache.get

    hit_counter = (
        "sched.hcpa.cap_hits"
        if caps is not None
        else "sched.mcpa.level_saturated"
        if level_of is not None
        else None
    )

    stop_reason = "iteration_budget"
    t_cp = t_a = math.nan
    budget = n * cap + 1
    grows = 0
    changed = -1
    while True:
        if enabled:
            t0 = perf()
            if changed < 0:
                _bl_full_scalar(layout, cost, bl, bestsucc)
            else:
                _bl_prefix_update(layout, cost, bl, bestsucc, changed)
            seconds = perf() - t0
            obs.timing("sched.critical_path", seconds)
            if prof is not None:
                prof.probe("critical_path_dp", n, seconds)
        elif changed < 0:
            _bl_full_scalar(layout, cost, bl, bestsucc)
        else:
            # Inlined _bl_prefix_update — this branch runs once per grow
            # step, and the call overhead alone is measurable on the
            # study's graph sizes.  Same arithmetic, same tie-breaks.
            for i in rev_order[n - 1 - order_pos[changed] :]:
                ss = succ[i]
                if not ss:
                    bestsucc[i] = -1
                    bl[i] = cost[i] + 0.0
                    continue
                bn = ss[0]
                best = bl[bn]
                for s in ss[1:]:
                    b = bl[s]
                    if b > best or (b == best and tids[s] < tids[bn]):
                        best = b
                        bn = s
                bestsucc[i] = bn
                bl[i] = cost[i] + (best if best > 0.0 else 0.0)
        if sources:
            src = sources[0]
            best = bl[src]
            for t in sources[1:]:
                b = bl[t]
                if b > best or (b == best and tids[t] < tids[src]):
                    best = b
                    src = t
            t_cp = best
        else:
            src = -1
            t_cp = 0.0
        t_a = sum(areas) / agg_speed
        if t_cp <= stop_mult * t_a:
            stop_reason = "criterion"
            break
        # Walk the critical path via the fused best-successor pointers,
        # keeping only growable tasks — the path itself is never needed.
        growable = []
        node = src
        while node >= 0:
            if alloc[node] < cap:
                growable.append(node)
            node = bestsucc[node]
        if not growable:
            stop_reason = "critical_path_capped"
            break
        if prof is not None:
            t0 = perf()
            chosen, hits = _grow_scalar(
                growable, gains, alloc, caps, level_of, level_sums, P
            )
            prof.probe("alloc_grow", len(growable), perf() - t0)
        else:
            # Inlined _grow_scalar — the per-step sweep is short enough
            # that the call itself costs as much as the loop body.
            best = 0.0
            chosen = -1
            hits = 0
            if caps is not None:
                for i in growable:
                    if alloc[i] >= caps[i]:
                        hits += 1
                        continue
                    g = gains[i]
                    if g > best:
                        best = g
                        chosen = i
            elif level_of is not None:
                for i in growable:
                    if level_sums[level_of[i]] >= P:
                        hits += 1
                        continue
                    g = gains[i]
                    if g > best:
                        best = g
                        chosen = i
            else:
                for i in growable:
                    g = gains[i]
                    if g > best:
                        best = g
                        chosen = i
        if hits and enabled:
            obs.count(hit_counter, hits)
        if chosen < 0:
            stop_reason = "no_beneficial_candidate"
            break
        p_new = alloc[chosen] + 1
        alloc[chosen] = p_new
        tid = tids[chosen]
        # T(t, p_new) is always memoised by now — it was the gain
        # probe's T(t, p+1) when this task last grew (or during the
        # base-vector pass) — so read the memo directly; fall back to
        # the wrapper only if the bounded memo was cleared.
        c_t = tt_get((tid, p_new))
        if c_t is None:
            c_t = task_time(tid, p_new)
        cost[chosen] = c_t
        # work(t, p) == p * task_time(t, p) — the same float product the
        # object loop stores.
        area = p_new * c_t
        areas[chosen] = area
        # marginal_gain(tid, p_new) inlined with the memo-identical
        # t_now = c_t: same expression, same operands, same float.
        t_next = task_time(tid, p_new + 1)
        gain = (
            0.0 if t_next >= c_t else c_t / p_new - t_next / (p_new + 1)
        )
        gains[chosen] = gain
        if level_sums is not None:
            level_sums[level_of[chosen]] += 1
        grows += 1
        changed = chosen
        if enabled:
            obs.count("sched.alloc_grow_steps")
            obs.event(
                "sched.alloc_grow",
                dag=graph.name,
                task=tid,
                p=p_new,
                t_cp=t_cp,
                t_a=t_a,
            )
            if tl is not None:
                tl.alloc(tid, p_new, t_cp, t_a, grows)
        if grows >= budget:
            stop_reason = "iteration_budget"
            break
    if enabled:
        total = sum(alloc)
        obs.event(
            "sched.alloc_done",
            dag=graph.name,
            reason=stop_reason,
            total_alloc=total,
            tasks=n,
            t_cp=t_cp,
            t_a=t_a,
        )
        if tl is not None:
            tl.alloc_done(stop_reason, total, t_cp, t_a, grows)
    return dict(zip(tids, alloc))


# -- public allocators --------------------------------------------------


def cpa_allocate_array(graph: TaskGraph, costs: SchedulingCosts) -> dict[int, int]:
    """Array twin of :func:`repro.scheduling.cpa.cpa_allocate`."""
    return _allocation_loop_array(graph, costs)


def hcpa_allocate_array(
    graph: TaskGraph,
    costs: SchedulingCosts,
    *,
    beta: float | None = None,
) -> dict[int, int]:
    """Array twin of :func:`repro.scheduling.hcpa.hcpa_allocate`."""
    if beta is None:
        from repro.scheduling.hcpa import DEFAULT_BETA

        beta = DEFAULT_BETA
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1 (CPA's criterion), got {beta}")
    P = costs.num_procs
    obs = get_recorder()
    layout = graph_layout(graph)
    with obs.span("alloc.hcpa.caps", dag=graph.name):
        level_sizes = layout.level_sizes
        caps = [
            max(1, math.ceil(P / level_sizes[lvl])) for lvl in layout.levels
        ]
    if obs.enabled:
        obs.event(
            "sched.hcpa.caps",
            dag=graph.name,
            beta=beta,
            min_cap=min(caps),
            max_cap=max(caps),
            widest_level=max(level_sizes),
        )
    return _allocation_loop_array(graph, costs, stop_mult=beta, caps=caps)


def mcpa_allocate_array(graph: TaskGraph, costs: SchedulingCosts) -> dict[int, int]:
    """Array twin of :func:`repro.scheduling.mcpa.mcpa_allocate`."""
    obs = get_recorder()
    layout = graph_layout(graph)
    with obs.span("alloc.mcpa.levels", dag=graph.name):
        level_of = layout.levels
        level_sums = list(layout.level_sizes)
    return _allocation_loop_array(
        graph, costs, level_of=level_of, level_sums=level_sums
    )


#: Array allocators by algorithm name, for the driver's ``sched`` switch.
ARRAY_ALLOCATORS = {
    "cpa": cpa_allocate_array,
    "hcpa": hcpa_allocate_array,
    "mcpa": mcpa_allocate_array,
}


def allocate_batch(
    graphs: list[TaskGraph],
    costs: list[SchedulingCosts],
    *,
    algorithm: str = "cpa",
    beta: float | None = None,
) -> list[dict[int, int]]:
    """Allocate many DAGs in one call (the study grid's natural shape).

    Layout lowering and p=1 base vectors are memoised per graph/costs,
    so a batch over the same graphs across algorithms or repetitions
    pays the construction once.  Results are exactly the per-graph
    allocator outputs, in order.
    """
    if len(graphs) != len(costs):
        raise ValueError(
            f"got {len(graphs)} graphs but {len(costs)} costs objects"
        )
    if algorithm not in ARRAY_ALLOCATORS:
        raise ValueError(
            f"unknown array algorithm {algorithm!r}; "
            f"choose from {sorted(ARRAY_ALLOCATORS)}"
        )
    out = []
    for graph, c in zip(graphs, costs):
        if algorithm == "hcpa":
            out.append(hcpa_allocate_array(graph, c, beta=beta))
        else:
            out.append(ARRAY_ALLOCATORS[algorithm](graph, c))
    return out
