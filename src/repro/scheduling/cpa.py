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

from repro.dag.graph import TaskGraph
from repro.scheduling.arena import flat_allocation_loop
from repro.scheduling.costs import SchedulingCosts

__all__ = ["cpa_allocate", "average_area"]


def average_area(costs: SchedulingCosts, alloc: dict[int, int]) -> float:
    """``T_A``: total processor-area divided by the machine capacity.

    On homogeneous clusters the denominator is the node count (the
    paper's setting).  On heterogeneous clusters it is the aggregate
    speed in reference-node units — HCPA's reference-cluster view of
    the machine, which CPA's area bound generalises to naturally.
    """
    total = sum(costs.work(t, p) for t, p in alloc.items())
    return total / costs.platform.aggregate_speed


def cpa_allocate(graph: TaskGraph, costs: SchedulingCosts) -> dict[int, int]:
    """The original CPA allocation: grow the best-gain critical-path task.

    Tasks whose gain is non-positive (adding a processor does not reduce
    their time-per-processor — common beyond the scaling knee of
    measured models) are never grown; when no critical-path task has
    positive gain the loop stops even if ``T_CP > T_A`` still holds,
    because no further improvement is possible.  The loop itself is
    :func:`~repro.scheduling.arena.flat_allocation_loop`.
    """
    return flat_allocation_loop(graph, costs, "cpa")
