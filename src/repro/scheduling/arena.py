"""The flat-array allocation loop of the CPA family.

:func:`flat_allocation_loop` is the one allocation loop behind
:func:`~repro.scheduling.cpa.cpa_allocate`,
:func:`~repro.scheduling.hcpa.hcpa_allocate` and
:func:`~repro.scheduling.mcpa.mcpa_allocate`.  It lowers the graph to
flat lists once and keeps every per-step cost proportional to what one
grow step changes (one task's allocation):

* bottom levels are re-propagated *incrementally*: only through the
  prefix of the reverse topological order that can reach the grown
  task (every node outside its ancestor cone keeps its bottom level,
  because ``bl`` depends on successors only);
* the critical-path walk is fused into that DP pass, which tracks each
  node's best successor (largest ``bl``, ties to the smallest task id —
  an order-independent function of the successor set), so the path is
  pointer-following;
* the per-candidate gain sweep reads a contiguous gain list that is
  updated only for the grown task;
* the layout (:class:`GraphLayout`) is memoised per graph and the p=1
  cost/area/gain vectors per ``SchedulingCosts``, so the second and
  later algorithms over a (graph, costs) pair start from copies.

The object loop in ``tests/reference_cpa.py`` — a dict-based DP per
step and per-algorithm ``select``/``stop`` hooks — is the test oracle
this loop is compared against, bit for bit
(``tests/test_sched_arena.py``):

* bottom levels are a max/+ DP — exact in IEEE arithmetic, so partial
  re-propagation reproduces the full DP bit-for-bit;
* ``T_A`` stays a *sequential left fold* (``sum``) over the per-task
  areas in task order;
* the gain sweep keeps first-occurrence-wins semantics (strictly
  greater gain wins);
* HCPA caps and MCPA level sums are integers — exact either way.

Observability: the loop emits ``sched.critical_path`` timings,
``critical_path_dp`` / ``alloc_grow`` profiler probes, the
``sched.alloc_grow_steps`` / ``sched.hcpa.cap_hits`` /
``sched.mcpa.level_saturated`` counters and the ``sched.alloc_done``
event.  Each grow step is recorded once, as a timeline ``alloc``
record, and the end of the phase as a timeline ``alloc_done`` record;
both carry the cell's ``dag`` and ``algorithm``, which the loop pushes
itself when its caller's timeline context lacks them.  The loop has one
body whatever is attached: the timings and probes are taken around its
DP pass and gain sweep under ``if enabled:`` / ``if prof is not None:``,
so a traced or profiled study runs the DP and the sweep an untraced one
runs.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from weakref import WeakKeyDictionary

from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.costs import SchedulingCosts

__all__ = ["GraphLayout", "flat_allocation_loop", "graph_layout"]


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


# -- the allocation loop ------------------------------------------------


def flat_allocation_loop(
    graph: TaskGraph,
    costs: SchedulingCosts,
    algorithm: str,
    *,
    stop_mult: float = 1.0,
    caps: list[int] | None = None,
    level_of: list[int] | None = None,
    level_sums: list[int] | None = None,
) -> dict[int, int]:
    """The CPA-family allocation loop over a graph's flat layout.

    One loop serves all three algorithms: CPA is the bare gain sweep,
    HCPA adds per-task ``caps`` and a damped stop (``stop_mult`` =
    beta), MCPA adds per-level allocation bounds (``level_of`` +
    ``level_sums``, maintained incrementally as exact integers).

    Starting from one processor per task, each step evaluates
    ``T_CP`` (critical-path length) and ``T_A`` (processor area over
    the machine's aggregate speed) and stops once
    ``T_CP <= stop_mult * T_A``; otherwise it grows the critical-path
    task with the largest positive marginal gain.  It also stops when
    every critical-path task holds the whole machine
    (``critical_path_capped``), when no candidate may or should grow
    (``no_beneficial_candidate``), or after ``tasks * P + 1`` grows
    (``iteration_budget``).

    ``algorithm`` names the calling allocator.  Under a timeline whose
    context lacks ``dag`` or ``algorithm`` (a direct allocator call;
    :func:`~repro.scheduling.driver.schedule_dag` opens both), the loop
    pushes the missing ones, so every ``alloc`` and ``alloc_done``
    record names its cell.
    """
    obs = get_recorder()
    tl = obs.timeline if obs.enabled else None
    cell_ctx = (
        tl.context_defaults(dag=graph.name, algorithm=algorithm)
        if tl is not None
        else nullcontext()
    )
    with cell_ctx:
        return _grow_allocations(
            graph, costs, stop_mult, caps, level_of, level_sums
        )


def _grow_allocations(
    graph: TaskGraph,
    costs: SchedulingCosts,
    stop_mult: float,
    caps: list[int] | None,
    level_of: list[int] | None,
    level_sums: list[int] | None,
) -> dict[int, int]:
    """The body of :func:`flat_allocation_loop`."""
    layout = graph_layout(graph)
    n = layout.n
    if n == 0:
        return {}
    P = costs.num_procs
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
    budget = n * P + 1
    grows = 0
    # Where the bottom-level pass starts in the reverse topological
    # order: at its head on the first step, at the grown task after.
    start = 0
    while True:
        if enabled:
            t0 = perf()
        # Bottom levels fused with best-successor tracking.  Only the
        # grown task and its ancestors can see a new bottom level, and
        # all of them come at or after it in the reverse order; every
        # node before it keeps its value.
        for i in rev_order[start:]:
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
        if enabled:
            seconds = perf() - t0
            obs.timing("sched.critical_path", seconds)
            if prof is not None:
                prof.probe("critical_path_dp", n, seconds)
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
            if alloc[node] < P:
                growable.append(node)
            node = bestsucc[node]
        if not growable:
            stop_reason = "critical_path_capped"
            break
        if prof is not None:
            t0 = perf()
        # The gain sweep: strictly greater gain wins (first occurrence on
        # ties); HCPA skips capped tasks and MCPA tasks whose precedence
        # level saturates the machine, and ``hits`` tallies the skipped.
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
        if prof is not None:
            prof.probe("alloc_grow", len(growable), perf() - t0)
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
        # work(t, p) == p * task_time(t, p) — the same float product
        # SchedulingCosts.work returns.
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
        start = n - 1 - order_pos[chosen]
        if enabled:
            obs.count("sched.alloc_grow_steps")
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
