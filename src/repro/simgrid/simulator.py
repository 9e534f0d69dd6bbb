"""Schedule-driven simulation of a mixed-parallel application.

:class:`ApplicationSimulator` is the reproduction of the paper's
simulator (all three versions — the attached models decide which):

* it executes the tasks of a DAG according to a
  :class:`~repro.scheduling.schedule.Schedule` (processor sets + order);
* task execution is realised per the task-time model's kind —
  first-principles ``ptask_L07`` actions for the analytical model,
  fixed-duration processor occupation for profile/empirical models;
* every dependency edge triggers a *data redistribution* simulated as a
  communication ptask whose byte matrix comes from the 1D block
  distributions ("the time for redistributing data is still based on
  the SimGrid simulation"), preceded by the redistribution overhead
  model's latency;
* every task pays the startup overhead model's latency before computing.

Execution discipline (identical in the testbed emulator, so simulated
and "real" runs are comparable): a task starts when its input
redistributions have completed and each of its processors has finished
every earlier-ordered task placed on it.  Redistributions start when the
producer finishes and do not occupy CPUs (transfers are asynchronous;
their CPU-side protocol cost is what the overhead model measures).

What a run needs of its (graph, schedule) pair beyond the models — the
validation, the order index, the host-order dependents and pending
counts, and every edge's per-link byte totals — is the same for every
run of the pair.  A :class:`ScheduleLowering` builds it once for all of
them: the study hands a cell's simulated and emulated runs one lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dag.distributions import redistribution_matrix_rows
from repro.dag.graph import TaskGraph
from repro.models.base import ModelKind, TaskTimeModel
from repro.models.overheads import (
    RedistributionOverheadModel,
    StartupOverheadModel,
    ZeroRedistributionOverheadModel,
    ZeroStartupModel,
)
from repro.obs.recorder import get_recorder
from repro.platform.cluster import ClusterPlatform
from repro.scheduling.schedule import Schedule
from repro.simgrid.engine import SimulationEngine
from repro.simgrid.ptask import (
    NetworkTotals,
    build_totals_ptask,
    matrix_network_totals,
)
from repro.simgrid.resources import NetworkTopology
from repro.util.errors import SimulationError

__all__ = [
    "TaskRecord",
    "EdgeRecord",
    "SimulationTrace",
    "ScheduleLowering",
    "ApplicationSimulator",
]


@dataclass(frozen=True)
class TaskRecord:
    """Realised execution of one task."""

    task_id: int
    hosts: tuple[int, ...]
    start: float
    finish: float
    startup_overhead: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class EdgeRecord:
    """Realised execution of one redistribution."""

    src: int
    dst: int
    start: float
    finish: float
    overhead: float
    volume_bytes: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class SimulationTrace:
    """Full output of one simulated (or emulated) application run."""

    makespan: float
    tasks: dict[int, TaskRecord] = field(default_factory=dict)
    edges: dict[tuple[int, int], EdgeRecord] = field(default_factory=dict)

    def validate_against(self, graph: TaskGraph, schedule: Schedule) -> None:
        """Consistency checks: completeness, precedence, non-negativity."""
        if set(self.tasks) != set(graph.task_ids):
            raise SimulationError("trace does not cover every task")
        for (u, v), rec in self.edges.items():
            if rec.start + 1e-9 < self.tasks[u].finish:
                raise SimulationError(
                    f"redistribution {u}->{v} started before producer finished"
                )
            if self.tasks[v].start + 1e-9 < rec.finish:
                raise SimulationError(
                    f"task {v} started before redistribution {u}->{v} finished"
                )
        for rec in self.tasks.values():
            if rec.finish < rec.start:
                raise SimulationError(f"task {rec.task_id} has negative duration")


class _Layout:
    """The validated, run-independent part of executing one schedule.

    Built by :meth:`ScheduleLowering.layout` and only read afterwards:

    * ``order_index`` — each task's position in the schedule order;
    * ``host_dependents`` — for each task, the tasks that wait for it
      because it precedes them on a shared host;
    * ``pending_hosts`` / ``pending_edges`` — each task's number of
      host-order predecessors and of input redistributions;
    * ``ready`` — the tasks with neither, in schedule order;
    * ``edge_totals`` — each edge's :func:`matrix_network_totals` over
      its redistribution matrix, which depend on the sizes and hosts
      alone, not on bandwidth or on any cost model;
    * ``max_host`` — the highest host index the schedule uses.
    """

    __slots__ = (
        "order_index",
        "host_dependents",
        "pending_hosts",
        "pending_edges",
        "ready",
        "edge_totals",
        "max_host",
    )

    def __init__(
        self, graph: TaskGraph, schedule: Schedule, platform: ClusterPlatform
    ) -> None:
        graph.validate()
        schedule.validate(graph, platform)
        order = schedule.order
        self.order_index = {t: i for i, t in enumerate(order)}
        # Host-order dependencies: for each task, the set of tasks that
        # must finish first because they precede it on a shared host.
        host_deps: dict[int, set[int]] = {t: set() for t in graph.task_ids}
        last_on_host: dict[int, int] = {}
        for task_id in order:
            deps = host_deps[task_id]
            for host in schedule.hosts(task_id):
                prev = last_on_host.get(host)
                if prev is not None:
                    deps.add(prev)
                last_on_host[host] = task_id
        self.max_host = max(last_on_host, default=-1)
        self.host_dependents: dict[int, list[int]] = {
            t: [] for t in graph.task_ids
        }
        self.pending_hosts: dict[int, int] = {}
        for task_id, deps in host_deps.items():
            self.pending_hosts[task_id] = len(deps)
            for dep in deps:
                self.host_dependents[dep].append(task_id)
        self.pending_edges: dict[int, int] = {
            t: len(set(graph.predecessors(t))) for t in graph.task_ids
        }
        self.ready: tuple[int, ...] = tuple(
            t
            for t in order
            if not self.pending_edges[t] and not self.pending_hosts[t]
        )
        self.edge_totals: dict[tuple[int, int], NetworkTotals] = {}
        for src, dst in graph.edges():
            src_hosts = schedule.hosts(src)
            dst_hosts = schedule.hosts(dst)
            rows = redistribution_matrix_rows(
                graph.task(src).n, len(src_hosts), len(dst_hosts)
            )
            self.edge_totals[(src, dst)] = matrix_network_totals(
                rows, src_hosts, dst_hosts
            )


class ScheduleLowering:
    """A (graph, schedule) pair, lowered once for every run of it.

    A study cell executes one schedule twice, in the simulator and on
    the testbed, and both runs need the same validated layout of the
    pair (:class:`_Layout`).  Hand both runs one ``ScheduleLowering``
    and the first run that needs the layout builds it; a cell replayed
    from the result cache never lowers at all.  Make it where
    the schedule is final: the layout is not rebuilt if the schedule
    changes afterwards.
    """

    __slots__ = ("graph", "schedule", "_layout")

    def __init__(self, graph: TaskGraph, schedule: Schedule) -> None:
        self.graph = graph
        self.schedule = schedule
        self._layout: _Layout | None = None

    def layout(self, platform: ClusterPlatform) -> _Layout:
        """The pair's layout, validated against ``platform``.

        The first call validates the graph and the schedule and builds
        the layout.  Of that validation only the host bounds depend on
        the platform, so a later call re-validates only for a platform
        too small for the schedule's hosts, where it raises.
        """
        layout = self._layout
        if layout is None:
            layout = self._layout = _Layout(self.graph, self.schedule, platform)
        elif layout.max_host >= platform.num_nodes:
            self.schedule.validate(self.graph, platform)
        return layout


class _ExecutionState:
    """Per-run bookkeeping shared by the event callbacks.

    Readiness is tracked by counting: every task carries the number of
    outstanding input redistributions and host-order predecessors, and
    whichever count hits zero last appends the task to the newly-ready
    list.  :meth:`take_ready` drains that list in schedule order, which
    makes the start sequence identical to a full rescan of
    ``schedule.order`` at O(1) per event instead of O(tasks).  The
    counts start from the shared layout's and are this run's own.
    """

    def __init__(self, layout: _Layout) -> None:
        self._order_index = layout.order_index
        self.host_dependents = layout.host_dependents
        self.pending_hosts = dict(layout.pending_hosts)
        self.pending_edges = dict(layout.pending_edges)
        self.finished: set[int] = set()
        self._newly_ready: list[int] = list(layout.ready)

    def task_finished(self, task_id: int) -> None:
        """Record completion and release host-order dependents."""
        self.finished.add(task_id)
        pending_hosts = self.pending_hosts
        pending_edges = self.pending_edges
        for other in self.host_dependents[task_id]:
            n = pending_hosts[other] - 1
            pending_hosts[other] = n
            if n == 0 and not pending_edges[other]:
                self._newly_ready.append(other)

    def edge_arrived(self, dst: int) -> None:
        """Record one input redistribution of ``dst`` as complete."""
        n = self.pending_edges[dst] - 1
        self.pending_edges[dst] = n
        if n == 0 and not self.pending_hosts[dst]:
            self._newly_ready.append(dst)

    def take_ready(self) -> Sequence[int]:
        """Drain newly-ready tasks in schedule order."""
        ready = self._newly_ready
        if not ready:
            return ()
        self._newly_ready = []
        if len(ready) > 1:
            ready.sort(key=self._order_index.__getitem__)
        return ready


class ApplicationSimulator:
    """Simulates schedule execution under pluggable cost models."""

    def __init__(
        self,
        platform: ClusterPlatform,
        task_model: TaskTimeModel,
        startup_model: StartupOverheadModel | None = None,
        redistribution_model: RedistributionOverheadModel | None = None,
        *,
        contention: bool = True,
        topology: NetworkTopology | None = None,
    ) -> None:
        """``contention=False`` gives every action private copies of the
        network resources, so concurrent transfers never share bandwidth
        — the "no contention" ablation of SimGrid's fair-sharing model.

        ``topology`` shares a prebuilt :class:`NetworkTopology` of
        ``platform`` with this simulator (the testbed builds one per
        emulator for all its executions); by default the first
        contended run builds it."""
        if topology is not None and topology.platform is not platform:
            raise ValueError("topology was built for another platform")
        self.platform = platform
        self.task_model = task_model
        self.startup_model = startup_model or ZeroStartupModel()
        self.redistribution_model = (
            redistribution_model or ZeroRedistributionOverheadModel()
        )
        self.contention = contention
        # Reused by every contended run: the topology is immutable
        # (capacities fixed, routes memoised) and per-run resource
        # accounting lives in each run's engine, so sharing it across
        # runs changes no simulated value.
        self._shared_topology = topology

    # ------------------------------------------------------------------
    def _build_engine(
        self, graph, schedule, layout, on_task_complete, on_edge_complete
    ):
        """A fresh engine plus the task and redistribution action starters."""
        shared_topology = self._shared_topology
        if shared_topology is None:
            shared_topology = NetworkTopology(self.platform)
            self._shared_topology = shared_topology

        def topology_for_action() -> NetworkTopology:
            # Without contention every action sees factory-fresh network
            # resources: identical capacities, never shared, so transfer
            # times keep their standalone values under any concurrency.
            if self.contention:
                return shared_topology
            return NetworkTopology(self.platform)

        def start_task(eng: SimulationEngine, task_id: int) -> None:
            task = graph.task(task_id)
            hosts = schedule.hosts(task_id)
            p = len(hosts)
            startup = self.startup_model.startup(p)
            if self.task_model.kind is ModelKind.ANALYTICAL:
                comp_vec = self.task_model.computation(task, p)
                comp = {h: float(f) for h, f in zip(hosts, comp_vec)}
                B = np.asarray(self.task_model.comm_matrix(task, p), dtype=float)
                if B.shape != (p, p):
                    raise SimulationError(
                        f"comm matrix shape {B.shape} != ({p}, {p})"
                    )
                totals = matrix_network_totals(B.tolist(), hosts, hosts)
            else:
                duration = self.task_model.duration(task, p)
                if duration < 0:
                    raise SimulationError(
                        f"model predicted negative duration for task {task_id}"
                    )
                comp = {h: duration * self.platform.flops for h in hosts}
                totals = None
            eng.add_action(
                build_totals_ptask(
                    topology_for_action(),
                    f"task{task_id}",
                    comp,
                    totals,
                    extra_latency=startup,
                    on_complete=on_task_complete,
                    payload=(task_id, startup),
                )
            )

        edge_totals = layout.edge_totals

        def start_redistribution(
            eng: SimulationEngine, src: int, dst: int
        ) -> None:
            totals = edge_totals[(src, dst)]
            overhead = self.redistribution_model.overhead(
                len(schedule.hosts(src)), len(schedule.hosts(dst))
            )
            eng.add_action(
                build_totals_ptask(
                    topology_for_action(),
                    f"redist{src}->{dst}",
                    {},
                    totals,
                    extra_latency=overhead,
                    on_complete=on_edge_complete,
                    payload=(src, dst, overhead, totals[2]),
                )
            )

        return SimulationEngine(), start_task, start_redistribution

    def run(
        self,
        graph: TaskGraph,
        schedule: Schedule,
        *,
        lowering: ScheduleLowering | None = None,
    ) -> SimulationTrace:
        """Simulate the application; returns the trace with the makespan.

        ``lowering`` is a :class:`ScheduleLowering` of this very
        (graph, schedule) pair shared with other runs of it; by default
        the run lowers the pair itself.
        """
        if lowering is None:
            lowering = ScheduleLowering(graph, schedule)
        elif lowering.graph is not graph or lowering.schedule is not schedule:
            raise ValueError("lowering belongs to another (graph, schedule)")
        obs = get_recorder()
        tl = obs.timeline if obs.enabled else None
        if tl is None:
            return self._run(graph, schedule, lowering, obs, None)
        tl.begin_run(
            dag=graph.name,
            algorithm=schedule.algorithm,
            model=self.task_model.name,
        )
        try:
            trace = self._run(graph, schedule, lowering, obs, tl)
        except BaseException:
            tl.abort_run()
            raise
        tl.end_run(
            makespan=trace.makespan,
            tasks=len(trace.tasks),
            xfers=len(trace.edges),
        )
        return trace

    def _run(
        self, graph: TaskGraph, schedule: Schedule, lowering, obs, tl
    ) -> SimulationTrace:
        layout = lowering.layout(self.platform)
        state = _ExecutionState(layout)
        trace = SimulationTrace(makespan=0.0)

        def on_task_complete(eng, action) -> None:
            task_id, startup = action.payload
            state.task_finished(task_id)
            rec = trace.tasks[task_id] = TaskRecord(
                task_id=task_id,
                hosts=schedule.hosts(task_id),
                start=action.start_time,
                finish=eng.now,
                startup_overhead=startup,
            )
            if tl is not None:
                tl.task(task_id, rec.hosts, rec.start, rec.finish, startup)
            # Launch redistributions to successors.
            for succ in graph.successors(task_id):
                start_redistribution(eng, task_id, succ)
            start_ready_tasks(eng)

        def on_edge_complete(eng, action) -> None:
            src, dst, overhead, volume = action.payload
            trace.edges[(src, dst)] = EdgeRecord(
                src=src,
                dst=dst,
                start=action.start_time,
                finish=eng.now,
                overhead=overhead,
                volume_bytes=volume,
            )
            if tl is not None:
                tl.xfer(src, dst, action.start_time, eng.now, overhead, volume)
            state.edge_arrived(dst)
            start_ready_tasks(eng)

        def start_ready_tasks(eng) -> None:
            for task_id in state.take_ready():
                start_task(eng, task_id)

        engine, start_task, start_redistribution = self._build_engine(
            graph, schedule, layout, on_task_complete, on_edge_complete
        )

        start_ready_tasks(engine)
        makespan = engine.run()
        if len(state.finished) != len(graph):
            missing = sorted(set(graph.task_ids) - state.finished)
            raise SimulationError(
                f"simulation deadlocked: tasks {missing} never started "
                "(check schedule order vs dependencies)"
            )
        trace.makespan = makespan
        trace.validate_against(graph, schedule)
        if obs.enabled:
            obs.count("sim.runs")
            obs.count("sim.tasks_executed", len(trace.tasks))
            obs.count("sim.redistributions", len(trace.edges))
            obs.event(
                "sim.run",
                dag=graph.name,
                algorithm=schedule.algorithm,
                model=self.task_model.name,
                makespan=makespan,
                tasks=len(trace.tasks),
                redistributions=len(trace.edges),
                engine_steps=engine.steps_taken,
                solver_calls=engine.solver_calls,
            )
        return trace
