"""HCPA — Heterogeneous CPA (N'takpé, Suter & Casanova, 2007).

"A Comparison of Scheduling Approaches for Mixed-Parallel Applications
on Heterogeneous Platforms" generalises CPA to heterogeneous platforms
by computing allocations on a homogeneous *reference cluster* and
translating them to the target machine.  Its relevance here (the paper
under reproduction, Section II-A) is that it "remedies" CPA's tendency
to produce allocations that "become too large, thereby degrading overall
performance".

HCPA curbs over-allocation by making a task's allocation respect the
*concurrency* around it: a task whose precedence level holds ``w`` other
runnable tasks cannot productively own more than its share of the
machine.  We implement this as a static per-task allocation cap

    ``cap(t) = max(1, ceil(P / |level(t)|))``

on top of the unchanged CPA loop (gain selection, ``T_CP <= T_A`` stop).
Contrast with MCPA, which constrains the *sum* of a level's allocations
dynamically: HCPA's static even split yields different (usually more
balanced) allocations, and the two algorithms therefore produce
genuinely different schedules — the property the case study exercises.

Interpretation note: the original HCPA paper expresses its
over-allocation fix through a reference-cluster construction and a
modified average-area criterion; the published description leaves the
homogeneous specialisation under-determined.  The cap above is our
faithful-in-intent rendering; it reduces to plain CPA for chains
(|level| = 1) and enforces even sharing for wide DAGs.  On the
homogeneous clusters of this study the reference cluster is the target
machine itself, so its translation (a speed ratio of 1) is the identity
and no step of the code spells it out.
"""

from __future__ import annotations

import math

from repro.dag.graph import TaskGraph
from repro.obs.recorder import get_recorder
from repro.scheduling.arena import flat_allocation_loop, graph_layout
from repro.scheduling.costs import SchedulingCosts

__all__ = ["hcpa_allocate"]


#: Damping of HCPA's stop criterion: allocation growth stops when
#: ``T_CP <= beta * T_A``.  With beta = 1 this is CPA's criterion (the
#: default — HCPA's over-allocation fix then rests on the concurrency
#: cap alone); beta > 1 stops earlier still, a knob exposed for the
#: ablation benches (cf. Hunold 2010's tuning of two-step algorithms).
DEFAULT_BETA = 1.0


def hcpa_allocate(
    graph: TaskGraph,
    costs: SchedulingCosts,
    *,
    beta: float = DEFAULT_BETA,
) -> dict[int, int]:
    """HCPA allocation: CPA with a concurrency cap and a damped stop.

    ``beta`` must be at least 1; NaN is rejected too, since no
    ``T_CP <= NaN * T_A`` test ever holds.
    """
    if not beta >= 1.0:
        raise ValueError(f"beta must be >= 1 (CPA's criterion), got {beta}")
    P = costs.num_procs
    obs = get_recorder()
    layout = graph_layout(graph)
    # Phase span: the static cap construction is HCPA's only work on
    # top of the shared loop, so profiles separate it from the grow
    # sweeps it bounds.
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
    return flat_allocation_loop(
        graph, costs, "hcpa", stop_mult=beta, caps=caps
    )
