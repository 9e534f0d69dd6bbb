"""Scheduling algorithms for mixed-parallel applications.

All algorithms of the CPA family decompose scheduling into an
**allocation** phase (how many processors per task) and a **mapping**
phase (which processors, in what order).  This package implements:

* :func:`~repro.scheduling.cpa.cpa_allocate` — the original Critical
  Path and Area-based allocation (Radulescu & van Gemund, 2001);
* :func:`~repro.scheduling.hcpa.hcpa_allocate` — Heterogeneous CPA
  (N'takpé, Suter & Casanova, 2007), which curbs CPA's over-allocation;
* :func:`~repro.scheduling.mcpa.mcpa_allocate` — Modified CPA (Bansal,
  Kumar & Singh, 2006), which bounds per-precedence-level allocation;
* :func:`~repro.scheduling.mapping.map_allocations` — the shared list
  scheduling mapping phase (bottom-level priority, earliest finish);
* baselines in :mod:`repro.scheduling.baselines`.

The three CPA-family allocators share one allocation loop,
:func:`~repro.scheduling.arena.flat_allocation_loop`, which runs over a
flat-list lowering of the graph.  The high-level entry point is
:func:`~repro.scheduling.driver.schedule_dag`.
"""

from repro.scheduling.schedule import Placement, Schedule
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.cpa import cpa_allocate
from repro.scheduling.hcpa import hcpa_allocate
from repro.scheduling.mcpa import mcpa_allocate
from repro.scheduling.mapping import map_allocations
from repro.scheduling.mheft import mheft_schedule
from repro.scheduling.baselines import sequential_allocate, full_parallel_allocate
from repro.scheduling.driver import ALGORITHMS, ONE_PHASE_ALGORITHMS, schedule_dag

__all__ = [
    "Placement",
    "Schedule",
    "SchedulingCosts",
    "cpa_allocate",
    "hcpa_allocate",
    "mcpa_allocate",
    "map_allocations",
    "mheft_schedule",
    "sequential_allocate",
    "full_parallel_allocate",
    "ALGORITHMS",
    "ONE_PHASE_ALGORITHMS",
    "schedule_dag",
]
