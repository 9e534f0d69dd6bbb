"""Mapping phase: list scheduling of allocated tasks onto processors.

All CPA-family algorithms share the same second phase (paper,
Section II-A): tasks are prioritised by *bottom level* (longest path to
an exit, including estimated redistribution costs) and mapped in
priority order to the processor subset that lets them finish earliest.

Host selection picks, for a task allocated ``k`` processors, the ``k``
hosts that become free earliest — this minimises the task's start time
given the processors-finish-earlier-work-first execution discipline.
Ties are broken in favour of hosts that already hold input data (the
predecessor's hosts), which shrinks redistribution volume.
"""

from __future__ import annotations

from repro.dag.analysis import bottom_levels
from repro.dag.graph import TaskGraph
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.schedule import Placement, Schedule
from repro.util.errors import InvalidScheduleError

__all__ = ["map_allocations"]


def map_allocations(
    graph: TaskGraph,
    costs: SchedulingCosts,
    alloc: dict[int, int],
    *,
    algorithm: str = "",
    locality_tiebreak: bool = True,
) -> Schedule:
    """Map an allocation to processors via bottom-level list scheduling.

    ``locality_tiebreak=False`` ranks hosts purely by availability
    (ignoring which hosts hold the input data) — exposed for the
    mapping-policy ablation bench
    (``benchmarks/ablations/test_ablation_mapping.py``).
    """
    P = costs.num_procs
    platform = costs.platform
    for task_id, k in alloc.items():
        if not (1 <= k <= P):
            raise InvalidScheduleError(
                f"allocation of task {task_id} is {k}, outside 1..{P}"
            )

    task_cost = lambda t: costs.task_time(t, alloc[t])  # noqa: E731
    edge_cost = lambda u, v: costs.redistribution_time(  # noqa: E731
        u, alloc[u], alloc[v]
    )
    bl = bottom_levels(graph, task_cost, edge_cost)
    # Descending bottom level; since task costs are positive, every
    # predecessor has a strictly larger bottom level than its successors,
    # so this order respects precedence.
    order = sorted(graph.task_ids, key=lambda t: (-bl[t], t))

    host_ready = [0.0] * P
    # Hoisted once: ``node_speed`` is pure per platform, and the rank
    # keys below are built in a plain loop instead of a sort-key lambda
    # (a key call plus tuple allocation per host per task dominated
    # this phase).  Sorting the explicit tuples gives the same order:
    # the trailing host id makes every key unique, so the sort is a
    # strict total order either way.
    neg_speed = [-platform.node_speed(h) for h in range(P)]
    finish: dict[int, float] = {}
    hosts_of: dict[int, tuple[int, ...]] = {}
    placements: dict[int, Placement] = {}

    for task_id in order:
        k = alloc[task_id]
        pred_hosts: set[int] = set()
        earliest_start = 0.0
        for pred in graph.predecessors(task_id):
            pred_hosts.update(hosts_of[pred])
            earliest_start = max(earliest_start, finish[pred])
        # Rank hosts by when the task could actually start there (its
        # predecessors bound the start regardless of the host), so a
        # host that frees up before the data is ready is no better than
        # one holding the data — locality then breaks the tie.
        # On heterogeneous platforms a faster host shortens the whole
        # task (the slowest chosen node bounds a tightly-coupled
        # kernel), so speed outranks data locality in the tie-break.
        if locality_tiebreak:
            keyed = [
                (
                    ready if ready > earliest_start else earliest_start,
                    neg_speed[h],
                    h not in pred_hosts,
                    h,
                )
                for h, ready in enumerate(host_ready)
            ]
        else:
            keyed = [
                (
                    ready if ready > earliest_start else earliest_start,
                    neg_speed[h],
                    h,
                )
                for h, ready in enumerate(host_ready)
            ]
        keyed.sort()
        chosen = tuple(sorted(key[-1] for key in keyed[:k]))
        # Reference-speed task time, stretched by the slowest member.
        speed_factor = min(-neg_speed[h] for h in chosen)

        data_ready = 0.0
        for pred in graph.predecessors(task_id):
            same = set(hosts_of[pred]) == set(chosen)
            redist = costs.redistribution_time(
                pred, alloc[pred], k, same_hosts=same
            )
            data_ready = max(data_ready, finish[pred] + redist)

        start = max(data_ready, max(host_ready[h] for h in chosen))
        # Compute stretches on slow nodes; startup (JVM/SSH) does not.
        end = (
            start
            + costs.compute_time(task_id, k) / speed_factor
            + costs.startup_time(k)
        )
        for h in chosen:
            host_ready[h] = end
        finish[task_id] = end
        hosts_of[task_id] = chosen
        placements[task_id] = Placement(
            task_id=task_id, hosts=chosen, est_start=start, est_finish=end
        )

    makespan = max(finish.values()) if finish else 0.0
    return Schedule(
        placements, order, algorithm=algorithm, makespan_estimate=makespan
    )
