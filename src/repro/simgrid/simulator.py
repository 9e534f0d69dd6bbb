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

Engine backends
---------------
The simulator runs on either of two interchangeable engines selected by
the ``engine`` argument (or the ``REPRO_ENGINE`` environment variable):

* ``"object"`` (default) — the scalar oracle:
  :class:`~repro.simgrid.engine.SimulationEngine` over ``Action``
  objects and ``Resource`` dicts;
* ``"array"`` — :class:`~repro.simgrid.arena.ArraySimulationEngine`
  over struct-of-arrays state with a vectorized solver and step loop.

Both backends produce bit-identical traces and ``engine.*`` counters
(asserted by ``tests/experiments/test_engine_backends.py``), so cached
results are engine-agnostic and either backend can replay the other's
cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.dag.distributions import redistribution_matrix_rows
from repro.dag.graph import TaskGraph
from repro.models.analytical import AnalyticalTaskModel
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
from repro.simgrid.arena import (
    ActionArena,
    ArraySimulationEngine,
    ResourceLayout,
    layout_for,
    resolve_engine,
)
from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.ptask import build_matrix_ptask, matrix_network_totals
from repro.simgrid.resources import NetworkTopology
from repro.util.errors import SimulationError

__all__ = ["TaskRecord", "EdgeRecord", "SimulationTrace", "ApplicationSimulator"]

_NO_ENTRIES: tuple = ()


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


def _analytic_entries(
    layout: ResourceLayout,
    hosts: tuple[int, ...],
    comp_vec,
    rows: list[list[float]],
) -> tuple[tuple[int, ...], tuple[float, ...], float, float]:
    """Array-engine consumption entries of an analytical ptask.

    Entry order replicates the object path's dict insertion order —
    cpus in host order, then uplinks by row, backbone, downlinks by
    column — so the solver's first-touch resource order (and therefore
    its tie-breaking) is identical across backends.  Hosts must be
    distinct, as schedule processor sets are.  Entries are returned as
    tuples: they are memoized and shared across runs, and the engine's
    flat stores only ever copy from them.
    """
    rid_list: list[int] = []
    w_list: list[float] = []
    for h, f in zip(hosts, comp_vec):
        f = float(f)
        if f > 0:
            rid_list.append(h)
            w_list.append(f)
    net_latency = 0.0
    if rows:
        up_items, down_items, backbone_total = matrix_network_totals(
            rows, hosts, hosts
        )
        n = layout.num_nodes
        for src, total in up_items:
            rid_list.append(n + src)
            w_list.append(total)
        if backbone_total > 0.0:
            rid_list.append(layout.backbone_rid)
            w_list.append(backbone_total)
            net_latency = layout.offnode_latency
            twon = 2 * n
            for dst, total in down_items:
                rid_list.append(twon + dst)
                w_list.append(total)
    work = 1.0 if rid_list else 0.0
    return tuple(rid_list), tuple(w_list), net_latency, work


def _network_entries(
    layout: ResourceLayout,
    rows: list[list[float]],
    src_hosts: tuple[int, ...],
    dst_hosts: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[float, ...], float, float, float]:
    """Array-engine consumption entries of a pure-communication ptask."""
    up_items, down_items, backbone_total = matrix_network_totals(
        rows, src_hosts, dst_hosts
    )
    rid_list: list[int] = []
    w_list: list[float] = []
    n = layout.num_nodes
    for src, total in up_items:
        rid_list.append(n + src)
        w_list.append(total)
    net_latency = 0.0
    if backbone_total > 0.0:
        rid_list.append(layout.backbone_rid)
        w_list.append(backbone_total)
        net_latency = layout.offnode_latency
        twon = 2 * n
        for dst, total in down_items:
            rid_list.append(twon + dst)
            w_list.append(total)
    work = 1.0 if rid_list else 0.0
    return tuple(rid_list), tuple(w_list), net_latency, work, backbone_total


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
        engine: str | None = None,
        arena: ActionArena | None = None,
    ) -> None:
        """``contention=False`` gives every action private copies of the
        network resources, so concurrent transfers never share bandwidth
        — the "no contention" ablation of SimGrid's fair-sharing model.

        ``engine`` selects the backend (``"object"`` or ``"array"``;
        default resolves via ``REPRO_ENGINE`` and falls back to the
        object oracle).  ``arena`` optionally supplies a pre-allocated
        :class:`~repro.simgrid.arena.ActionArena` for the array backend;
        by default one arena is created lazily and reused by every run
        of this simulator, which is what amortizes allocation across a
        whole study."""
        self.platform = platform
        self.task_model = task_model
        self.startup_model = startup_model or ZeroStartupModel()
        self.redistribution_model = (
            redistribution_model or ZeroRedistributionOverheadModel()
        )
        self.contention = contention
        self.engine = resolve_engine(engine)
        # Built lazily on the first contended run and reused after: the
        # topology is immutable (capacities fixed, routes memoised) and
        # per-run resource accounting lives in each run's engine, so
        # sharing it across runs changes no simulated value.
        self._shared_topology: NetworkTopology | None = None
        # Array-backend state, also lazy: the platform's resource
        # layout, the reusable arena, and the memo of analytic task
        # consumption entries (valid because AnalyticalTaskModel is a
        # pure function of (kernel, n, p) — see start_task).
        self._layout: ResourceLayout | None = None
        self._arena: ActionArena | None = arena
        self._task_entries_memo: dict = {}

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

    def simulate_batch(
        self,
        runs: Iterable[tuple[TaskGraph, Schedule]],
        *,
        cache=None,
    ) -> list[SimulationTrace]:
        """Run a sequence of (graph, schedule) cells on this simulator.

        The batch shape is what the array backend is built for: one
        arena and one consumption-entry memo serve every cell, so only
        the first run pays buffer allocation.  With a cache, each cell
        goes through :meth:`run_cached`.
        """
        if cache is not None:
            return [self.run_cached(g, s, cache) for g, s in runs]
        return [self.run(g, s) for g, s in runs]

    # ------------------------------------------------------------------
    def _object_backend(self, graph, schedule, on_task_complete, on_edge_complete):
        """The scalar oracle: Actions over Resource dicts."""
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

    def _array_backend(self, graph, schedule, on_task_complete, on_edge_complete):
        """The vectorized backend: CSR entries over a resource layout."""
        layout = self._layout
        if layout is None:
            layout = layout_for(self.platform)
            self._layout = layout
        arena = self._arena
        if arena is None:
            arena = ActionArena()
            self._arena = arena
        engine = ArraySimulationEngine(layout, arena)
        contended = self.contention
        caps = layout.caps.tolist()
        redist_memo = layout.redist_net_memo
        analytic = self.task_model.kind is ModelKind.ANALYTICAL
        # The entry memo is sound only when the model's computation and
        # comm matrix are pure functions of (kernel, n, p), which is
        # exactly AnalyticalTaskModel's contract; any other analytic
        # model rebuilds its entries per start.
        task_memo = (
            self._task_entries_memo
            if isinstance(self.task_model, AnalyticalTaskModel)
            else None
        )
        flops = self.platform.flops

        def start_task(eng: ArraySimulationEngine, task_id: int) -> None:
            task = graph.task(task_id)
            hosts = schedule.hosts(task_id)
            p = len(hosts)
            startup = self.startup_model.startup(p)
            if analytic:
                key = (task.kernel, task.n, hosts)
                entries = None if task_memo is None else task_memo.get(key)
                if entries is None:
                    comp_vec = self.task_model.computation(task, p)
                    B = np.asarray(
                        self.task_model.comm_matrix(task, p), dtype=float
                    )
                    if B.shape != (p, p):
                        raise SimulationError(
                            f"comm matrix shape {B.shape} != ({p}, {p})"
                        )
                    entries = _analytic_entries(
                        layout, hosts, comp_vec, B.tolist()
                    )
                    if task_memo is not None:
                        task_memo[key] = entries
                rids, ws, net_latency, work = entries
                latency = startup + net_latency
            else:
                duration = self.task_model.duration(task, p)
                if duration < 0:
                    raise SimulationError(
                        f"model predicted negative duration for task {task_id}"
                    )
                w = duration * flops
                if w > 0:
                    rids = hosts
                    ws = (w,) * p
                    work = 1.0
                else:
                    rids, ws, work = _NO_ENTRIES, _NO_ENTRIES, 0.0
                latency = startup
            if not contended and rids:
                rids = eng.alloc_private_rids([caps[r] for r in rids])
            eng.add_entries(
                f"task{task_id}",
                work,
                rids,
                ws,
                latency,
                on_task_complete,
                (task_id, startup),
            )

        def start_redistribution(
            eng: ArraySimulationEngine, src: int, dst: int
        ) -> None:
            src_hosts = schedule.hosts(src)
            dst_hosts = schedule.hosts(dst)
            task = graph.task(src)
            key = (task.n, src_hosts, dst_hosts)
            entries = redist_memo.get(key)
            if entries is None:
                rows = redistribution_matrix_rows(
                    task.n, len(src_hosts), len(dst_hosts)
                )
                entries = _network_entries(layout, rows, src_hosts, dst_hosts)
                redist_memo[key] = entries
            rids, ws, net_latency, work, volume = entries
            overhead = self.redistribution_model.overhead(
                len(src_hosts), len(dst_hosts)
            )
            if not contended and rids:
                rids = eng.alloc_private_rids([caps[r] for r in rids])
            eng.add_entries(
                f"redist{src}->{dst}",
                work,
                rids,
                ws,
                overhead + net_latency,
                on_edge_complete,
                (src, dst, overhead, volume),
            )

        return engine, start_task, start_redistribution

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
            engine=self.engine,
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

        if self.engine == "array":
            engine, start_task, start_redistribution = self._array_backend(
                graph, schedule, on_task_complete, on_edge_complete
            )
        else:
            engine, start_task, start_redistribution = self._object_backend(
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
