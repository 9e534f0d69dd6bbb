"""MCPA — Modified CPA (Bansal, Kumar & Singh, 2006).

"An Improved Two-Step Algorithm for Task and Data Parallel Scheduling in
Distributed Memory Machines" modifies CPA's allocation phase to respect
the *width* of the DAG: tasks in the same precedence level can execute
concurrently, so handing the critical-path task ever more processors
starves its level-mates and serialises the level.  MCPA therefore grows
a task only while the summed allocation of its precedence level stays
within the machine size P.

This single constraint is what "remedies [CPA's over-allocation]
problem" (paper under reproduction, Section II-A) — with the practical
effect that wide DAGs keep more task parallelism and narrow DAGs behave
like CPA.
"""

from __future__ import annotations

from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.arena import flat_allocation_loop, graph_layout
from repro.scheduling.costs import SchedulingCosts

__all__ = ["mcpa_allocate"]


def mcpa_allocate(graph: TaskGraph, costs: SchedulingCosts) -> dict[int, int]:
    """Level-bounded CPA allocation.

    The loop tracks each precedence level's summed allocation and skips
    a candidate whose level already holds ``P`` processors.
    """
    obs = get_recorder()
    layout = graph_layout(graph)
    # Phase span: the level bookkeeping is MCPA's only setup work on
    # top of the shared loop, mirroring HCPA's cap-construction span.
    with obs.span("alloc.mcpa.levels", dag=graph.name):
        level_of = layout.levels
        level_sums = list(layout.level_sizes)
    return flat_allocation_loop(
        graph, costs, "mcpa", level_of=level_of, level_sums=level_sums
    )
