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
from repro.simgrid.ptask import build_matrix_ptask
from repro.simgrid.resources import NetworkTopology
from repro.util.errors import SimulationError

__all__ = ["TaskRecord", "EdgeRecord", "SimulationTrace", "ApplicationSimulator"]


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


class _ExecutionState:
    """Per-run bookkeeping shared by the event callbacks.

    Readiness is tracked by counting: every task carries the number of
    outstanding input redistributions and host-order predecessors, and
    whichever count hits zero last appends the task to the newly-ready
    list.  :meth:`take_ready` drains that list in schedule order, which
    makes the start sequence identical to a full rescan of
    ``schedule.order`` (the previous implementation) at O(1) per event
    instead of O(tasks).
    """

    def __init__(self, graph: TaskGraph, schedule: Schedule) -> None:
        self.graph = graph
        self.schedule = schedule
        order = schedule.order
        self._order_index = {t: i for i, t in enumerate(order)}
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
        self.started: set[int] = set()
        self.finished: set[int] = set()
        self._newly_ready: list[int] = [
            t
            for t in order
            if not self.pending_edges[t] and not self.pending_hosts[t]
        ]

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
        """Drain newly-ready tasks in schedule order and mark them started."""
        ready = self._newly_ready
        if not ready:
            return ()
        self._newly_ready = []
        if len(ready) > 1:
            ready.sort(key=self._order_index.__getitem__)
        self.started.update(ready)
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
    ) -> None:
        """``contention=False`` gives every action private copies of the
        network resources, so concurrent transfers never share bandwidth
        — the "no contention" ablation of SimGrid's fair-sharing model."""
        self.platform = platform
        self.task_model = task_model
        self.startup_model = startup_model or ZeroStartupModel()
        self.redistribution_model = (
            redistribution_model or ZeroRedistributionOverheadModel()
        )
        self.contention = contention
        # Built lazily on the first contended run and reused after: the
        # topology is immutable (capacities fixed, routes memoised) and
        # per-run resource accounting lives in each run's engine, so
        # sharing it across runs changes no simulated value.
        self._shared_topology: NetworkTopology | None = None

    # ------------------------------------------------------------------
    def run_cached(
        self, graph: TaskGraph, schedule: Schedule, cache
    ) -> SimulationTrace:
        """Memoised :meth:`run` under the cache's ``"simulation"`` layer.

        The simulation is deterministic in (models, platform, graph,
        schedule), so a replayed trace is bit-identical to a fresh one.
        Only meaningful for simulators whose models are pure data
        (suite models); the testbed's ground-truth models draw from an
        RNG stream and are cached at the study-cell level instead.
        """
        from repro.cache.keys import (
            dag_fingerprint,
            schedule_fingerprint,
            simulation_key,
            simulator_fingerprint,
        )

        if cache is None:
            return self.run(graph, schedule)
        key = simulation_key(
            simulator_fingerprint(self),
            dag_fingerprint(graph),
            schedule_fingerprint(schedule),
        )
        return cache.get_or_compute(
            "simulation", key, lambda: self.run(graph, schedule)
        )

    # ------------------------------------------------------------------
    def _build_engine(self, graph, schedule, on_task_complete, on_edge_complete):
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
                rows = B.tolist()
            else:
                duration = self.task_model.duration(task, p)
                if duration < 0:
                    raise SimulationError(
                        f"model predicted negative duration for task {task_id}"
                    )
                comp = {h: duration * self.platform.flops for h in hosts}
                rows = []
            action, _volume = build_matrix_ptask(
                topology_for_action(),
                f"task{task_id}",
                comp,
                rows,
                hosts,
                hosts,
                extra_latency=startup,
                on_complete=on_task_complete,
                payload=(task_id, startup),
            )
            eng.add_action(action)

        def start_redistribution(
            eng: SimulationEngine, src: int, dst: int
        ) -> None:
            src_hosts = schedule.hosts(src)
            dst_hosts = schedule.hosts(dst)
            task = graph.task(src)
            rows = redistribution_matrix_rows(
                task.n, len(src_hosts), len(dst_hosts)
            )
            overhead = self.redistribution_model.overhead(
                len(src_hosts), len(dst_hosts)
            )
            action, volume = build_matrix_ptask(
                topology_for_action(),
                f"redist{src}->{dst}",
                {},
                rows,
                src_hosts,
                dst_hosts,
                extra_latency=overhead,
                on_complete=on_edge_complete,
            )
            action.payload = (src, dst, overhead, volume)
            eng.add_action(action)

        return SimulationEngine(), start_task, start_redistribution

    def run(self, graph: TaskGraph, schedule: Schedule) -> SimulationTrace:
        """Simulate the application; returns the trace with the makespan."""
        obs = get_recorder()
        tl = obs.timeline if obs.enabled else None
        if tl is None:
            return self._run(graph, schedule, obs, None)
        tl.begin_run(
            dag=graph.name,
            algorithm=schedule.algorithm,
            model=self.task_model.name,
        )
        try:
            trace = self._run(graph, schedule, obs, tl)
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
        self, graph: TaskGraph, schedule: Schedule, obs, tl
    ) -> SimulationTrace:
        graph.validate()
        schedule.validate(graph, self.platform)
        state = _ExecutionState(graph, schedule)
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
            graph, schedule, on_task_complete, on_edge_complete
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
