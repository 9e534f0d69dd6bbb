"""A from-scratch SimGrid-like discrete-event simulation substrate.

This package re-implements the parts of SimGrid the paper relies on:

* a **discrete-event core** (:mod:`repro.simgrid.engine`) that advances a
  set of *actions*, each with a remaining amount of work and a rate;
* **resources** (:mod:`repro.simgrid.resources`) — CPUs and network links
  with finite capacity;
* a **bottleneck max-min fair-sharing solver**
  (:mod:`repro.simgrid.sharing`) that assigns rates to concurrent actions
  sharing resources, reproducing SimGrid's contention behaviour;
* the **`ptask_L07` parallel-task model** (:mod:`repro.simgrid.ptask`):
  an action described by a computation vector ``a`` (flops per
  processor) and a communication matrix ``B`` (bytes between processor
  pairs), covering compute-only tasks (B = 0), data redistributions
  (a = 0) and mixed tasks;
* a **schedule-driven application simulator**
  (:mod:`repro.simgrid.simulator`) that executes a mixed-parallel
  application according to a schedule and a pluggable task-time model,
  producing a trace and a makespan.

Each of these has one implementation here.  The unoptimised oracles the
solver and the ptask builder are tested against (the textbook max-min
loop and the flow-list ptask path) live in ``tests/reference_simgrid.py``.
"""

from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import Resource, NetworkTopology
from repro.simgrid.sharing import solve_rates
from repro.simgrid.simulator import ApplicationSimulator, SimulationTrace, TaskRecord

__all__ = [
    "Action",
    "SimulationEngine",
    "Resource",
    "NetworkTopology",
    "solve_rates",
    "ApplicationSimulator",
    "SimulationTrace",
    "TaskRecord",
]
