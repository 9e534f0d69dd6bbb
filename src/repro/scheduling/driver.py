"""High-level scheduling entry point."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.baselines import full_parallel_allocate, sequential_allocate
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.cpa import cpa_allocate
from repro.scheduling.hcpa import hcpa_allocate
from repro.scheduling.mapping import map_allocations
from repro.scheduling.mcpa import mcpa_allocate
from repro.scheduling.mheft import mheft_schedule
from repro.scheduling.schedule import Schedule

__all__ = ["ALGORITHMS", "ONE_PHASE_ALGORITHMS", "schedule_dag"]

Allocator = Callable[[TaskGraph, SchedulingCosts], dict[int, int]]

#: Registry of two-phase (allocation + shared mapping) algorithms.
ALGORITHMS: dict[str, Allocator] = {
    "cpa": cpa_allocate,
    "hcpa": hcpa_allocate,
    "mcpa": mcpa_allocate,
    "seq": sequential_allocate,
    "maxpar": full_parallel_allocate,
}

#: Registry of one-phase algorithms (decide allocation and mapping
#: together); each entry builds a complete Schedule.
ONE_PHASE_ALGORITHMS: dict[str, Callable[[TaskGraph, SchedulingCosts], Schedule]] = {
    "mheft": mheft_schedule,
}


def schedule_dag(
    graph: TaskGraph,
    costs: SchedulingCosts,
    algorithm: str,
) -> Schedule:
    """Run the named two-phase algorithm and return a validated schedule.

    Parameters
    ----------
    graph:
        The application DAG.
    costs:
        Estimate provider (couples the schedule to a simulator's model).
    algorithm:
        One of :data:`ALGORITHMS` (``"cpa"``, ``"hcpa"``, ``"mcpa"``,
        ``"seq"``, ``"maxpar"``).
    """
    graph.validate()
    obs = get_recorder()
    if algorithm in ONE_PHASE_ALGORITHMS:
        with obs.span("sched.one_phase", algorithm=algorithm, dag=graph.name):
            return ONE_PHASE_ALGORITHMS[algorithm](graph, costs)
    try:
        allocator = ALGORITHMS[algorithm]
    except KeyError:
        known = sorted(set(ALGORITHMS) | set(ONE_PHASE_ALGORITHMS))
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {known}"
        ) from None
    tl = obs.timeline if obs.enabled else None
    tl_ctx = (
        tl.context(dag=graph.name, algorithm=algorithm)
        if tl is not None
        else nullcontext()
    )
    with tl_ctx, obs.span("sched.allocate", algorithm=algorithm, dag=graph.name):
        alloc = allocator(graph, costs)
    with obs.span("sched.map", algorithm=algorithm, dag=graph.name):
        schedule = map_allocations(graph, costs, alloc, algorithm=algorithm)
    schedule.validate(graph, costs.platform)
    if obs.enabled:
        obs.count("sched.schedules")
        obs.event(
            "sched.schedule",
            algorithm=algorithm,
            dag=graph.name,
            tasks=len(graph),
            total_alloc=sum(alloc.values()),
            makespan_estimate=schedule.makespan_estimate,
        )
    return schedule
