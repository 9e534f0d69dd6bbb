"""Structural and cost analysis of task graphs.

These helpers are generic over a *cost function* mapping a task to its
(estimated) execution time and an optional *edge-cost function* mapping a
dependency edge to its (estimated) communication time, because the
scheduling phases evaluate levels under a given allocation — and
therefore under that allocation's task-time estimates.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.dag.graph import TaskGraph

__all__ = [
    "top_levels",
    "bottom_levels",
    "critical_path",
    "critical_path_length",
    "precedence_levels",
    "dag_width",
    "computation_communication_ratio",
]

TaskCost = Callable[[int], float]
EdgeCost = Callable[[int, int], float]


def _zero_edge(_src: int, _dst: int) -> float:
    return 0.0


def top_levels(
    graph: TaskGraph,
    task_cost: TaskCost,
    edge_cost: EdgeCost = _zero_edge,
) -> dict[int, float]:
    """Earliest possible start time of each task (ignoring resources).

    ``tl(t) = max over predecessors q of tl(q) + cost(q) + edge(q, t)``;
    entry tasks have top level 0.
    """
    tl: dict[int, float] = {}
    for node in graph.topological_order():
        best = 0.0
        for pred in graph.predecessors(node):
            cand = tl[pred] + task_cost(pred) + edge_cost(pred, node)
            best = max(best, cand)
        tl[node] = best
    return tl


def bottom_levels(
    graph: TaskGraph,
    task_cost: TaskCost,
    edge_cost: EdgeCost = _zero_edge,
) -> dict[int, float]:
    """Length of the longest path from each task to an exit, inclusive.

    ``bl(t) = cost(t) + max over successors s of edge(t, s) + bl(s)``.
    The maximum bottom level over entry tasks is the critical-path length.
    """
    bl: dict[int, float] = {}
    for node in reversed(graph.topological_order()):
        tail = 0.0
        for succ in graph.successors(node):
            tail = max(tail, edge_cost(node, succ) + bl[succ])
        bl[node] = task_cost(node) + tail
    return bl


def critical_path(
    graph: TaskGraph,
    task_cost: TaskCost,
    edge_cost: EdgeCost = _zero_edge,
) -> list[int]:
    """One longest (critical) path, as a list of task ids entry->exit.

    Ties are broken by smallest task id so the result is deterministic.
    """
    bl = bottom_levels(graph, task_cost, edge_cost)
    sources = graph.sources()
    if not sources:
        return []
    node = min(sources, key=lambda t: (-bl[t], t))
    path = [node]
    while True:
        succs = graph.successors(node)
        if not succs:
            return path
        node = min(succs, key=lambda s: (-(edge_cost(path[-1], s) + bl[s]), s))
        path.append(node)


def critical_path_length(
    graph: TaskGraph,
    task_cost: TaskCost,
    edge_cost: EdgeCost = _zero_edge,
) -> float:
    """Length of the critical path (``T_CP`` in the CPA family)."""
    if len(graph) == 0:
        return 0.0
    bl = bottom_levels(graph, task_cost, edge_cost)
    return max(bl[t] for t in graph.sources())


def precedence_levels(graph: TaskGraph) -> dict[int, int]:
    """Topological depth of each task (entry tasks are level 0).

    MCPA bounds the total allocation of each precedence level — tasks in
    the same level can run concurrently, so their allocations compete for
    the same processors.
    """
    levels: dict[int, int] = {}
    for node in graph.topological_order():
        preds = graph.predecessors(node)
        levels[node] = 0 if not preds else 1 + max(levels[q] for q in preds)
    return levels


def dag_width(graph: TaskGraph) -> int:
    """Maximum number of tasks in one precedence level."""
    if len(graph) == 0:
        return 0
    levels = precedence_levels(graph)
    counts: dict[int, int] = {}
    for lvl in levels.values():
        counts[lvl] = counts.get(lvl, 0) + 1
    return max(counts.values())


def computation_communication_ratio(
    graph: TaskGraph,
    *,
    flops: float,
    bandwidth: float,
) -> float:
    """CCR: total sequential compute time over total 1-hop transfer time.

    ``flops`` is the per-node speed and ``bandwidth`` the link bandwidth
    used to convert work and data volumes to time.  Every edge moves the
    producer's full output matrix once.  A DAG of pure (adjusted)
    additions has an infinite CCR (no inter-task data? no — edges still
    carry matrices) — communication is counted from edges, not kernels.
    """
    if flops <= 0 or bandwidth <= 0:
        raise ValueError("flops and bandwidth must be positive")
    compute = sum(t.total_flops() for t in graph) / flops
    comm_bytes = sum(graph.task(src).output_bytes for src, _dst in graph.edges())
    if comm_bytes == 0:
        return math.inf if compute > 0 else 0.0
    return compute / (comm_bytes / bandwidth)
