"""Run the scheduling study: simulate and execute every configuration.

The paper's methodology (Section V-A), per DAG and scheduling algorithm:

1. the simulator computes the schedule (its cost models drive the
   allocation and mapping phases);
2. the simulator reports the *simulated* makespan of that schedule;
3. the same schedule is executed on the real cluster (here: the testbed
   emulator), yielding the *experimental* makespan.

Different simulator versions produce different schedules for the same
DAG, so each (DAG, algorithm, simulator) triple carries its own pair of
makespans.

Parallel execution
------------------
``run_study(..., workers=N)`` may fan the (suite x DAG x algorithm)
grid out over a process pool.  Every grid cell is independent by
construction: scheduling is deterministic in its inputs, and the
emulator derives each execution's RNG from ``(seed, dag, algorithm,
run_label)`` rather than from shared sequential state — so cell
results do not depend on where or in what order they run, and
``workers=N`` produces record-for-record the same study as
``workers=1``.

One grid walk
-------------
Every study, with or without a pool, goes through one runner and one
walk:

1. **One cell runner** (:class:`_CellRunner`), built per study, holds
   the cells in suite -> DAG -> algorithm order, one simulator per
   suite and the ``SchedulingCosts`` of the current (suite, DAG) pair.
   Its :meth:`~_CellRunner.run` is the only way a cell runs, in the
   parent or in a pool worker.
2. **The plan.**  With one worker (after the clamp to the core count)
   there is no plan: no cache probe, no pool, no pickle, and every
   cell emits straight into the parent's recorder.  With more, a cache
   is probed *side-effect-free* (:func:`_count_misses`) to count the
   cells that still need computing.  A pool is forked only if it gets
   at least two workers; otherwise every cell runs in the parent.
   With a pool, the whole grid is cut into chunks of consecutive
   positions, cached cells included — about four per worker, so the
   pool's shared queue rebalances stragglers work-stealing-style.
   Before the fork each DAG's
   :class:`~repro.scheduling.arena.GraphLayout` (the allocation loop's
   flat lowering) is built parent-side, so every worker inherits it
   copy-on-write.  A worker runs its chunk's positions in order into
   one private recorder (:func:`_pool_run_chunk`) and ships one
   compact result+observability payload per chunk.
3. **The walk** (:func:`_walk_grid`).  Without a pool, the parent runs
   every position in order.  With one, nothing runs in the parent: it
   takes each chunk's payload in submission order and absorbs it whole
   with one :meth:`~repro.obs.recorder.Recorder.absorb`.  Chunks hold
   consecutive positions, so sink records and timeline lines land in
   grid order, and each worker timeline numbers its runs from 0, so
   the parent's running offset alone rebases them; counters, span
   tables and kernel probes are sums.  Records, counters, timelines and
   profiles therefore come out exactly as if every cell ran in the
   parent.
4. **A frozen pre-fork heap.**  Once the layouts are lowered and
   before the first chunk is submitted (with the ``fork`` start method,
   that submit forks every worker), :func:`_fork_pool` freezes the
   heap with the :mod:`gc` module's ``freeze()``; it calls
   ``unfreeze()`` once the pool has shut down, after the walk has
   absorbed every payload, on every exit.  The ``freeze()``
   documentation advises this before a ``fork()`` without ``exec()``:
   no collection in a worker walks, or copies on write, the objects
   the parent held before the study, and the parent's own collections
   while it absorbs skip them too.  A caller's own freeze is left as
   it is, and a study without a pool forks nothing and freezes
   nothing.

Cache keys
----------
With a cache attached, each cell is one entry of the ``"cell"`` layer
(:func:`~repro.cache.keys.cell_key`): a warm cell reads one file and
runs none of its three phases, a missed cell writes one.  The runner
builds one :class:`~repro.cache.keys.StudyKeys` and every cell takes
its key from it, as does the planner's probe.  The shared fingerprints
(emulator, each suite's simulator models, each DAG) are encoded once
per study, not per cell, and no cell encodes its schedule.  Without a
cache nothing is built.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.cache.keys import CellKeys, StudyKeys
from repro.cache.result_cache import ResultCache
from repro.dag.generator import DagParameters
from repro.dag.graph import TaskGraph
from repro.obs.live import CellEmitter, LiveTelemetry, WorkerEmitter
from repro.obs.manifest import RunManifest
from repro.obs.prof import Profiler
from repro.obs.recorder import Recorder, get_recorder, recording
from repro.obs.sinks import MemorySink
from repro.obs.timeline import Timeline
from repro.profiling.calibration import SimulatorSuite
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.arena import graph_layout
from repro.scheduling.driver import schedule_dag
from repro.simgrid.simulator import ApplicationSimulator, ScheduleLowering
from repro.testbed.tgrid import TGridEmulator
from repro.util.stats import relative_error

__all__ = [
    "RunRecord",
    "StudyResult",
    "run_study",
]

#: Auto chunk sizing targets this many chunks per pool worker: small
#: enough that the pool's shared queue rebalances stragglers, large
#: enough that per-future dispatch overhead stays amortized.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class RunRecord:
    """One (DAG, algorithm, simulator) outcome."""

    dag_label: str
    n: int
    algorithm: str
    simulator: str
    sim_makespan: float
    exp_makespan: float
    total_alloc: int

    @property
    def error(self) -> float:
        """Relative simulation error against the experiment."""
        return relative_error(self.sim_makespan, self.exp_makespan)

    @property
    def error_pct(self) -> float:
        return 100.0 * self.error


@dataclass
class StudyResult:
    """All records of one study sweep, with convenience accessors."""

    records: list[RunRecord] = field(default_factory=list)
    #: Provenance of the sweep that produced these records (seed,
    #: platform, suites, package version, metric rollups); attached by
    #: :func:`run_study`, None for hand-built results.
    manifest: RunManifest | None = None

    def __len__(self) -> int:
        return len(self.records)

    def _held_values(self) -> str:
        """Compact description of the cells this study actually holds."""
        if not self.records:
            return "the study holds no records at all"
        dags = sorted({r.dag_label for r in self.records})
        dag_list = (
            ", ".join(dags) if len(dags) <= 8
            else ", ".join(dags[:8]) + f", ... ({len(dags)} total)"
        )
        return (
            f"the study holds {len(self.records)} records over "
            f"dags=[{dag_list}], "
            f"algorithms={sorted({r.algorithm for r in self.records})}, "
            f"simulators={sorted({r.simulator for r in self.records})}, "
            f"n={sorted({r.n for r in self.records})}"
        )

    def select(
        self,
        *,
        simulator: str | None = None,
        algorithm: str | None = None,
        n: int | None = None,
        strict: bool = False,
    ) -> list[RunRecord]:
        """Records matching every given filter.

        With ``strict=True`` an empty selection raises a
        :class:`KeyError` naming the filters and what the study does
        hold — so a filtered-out or skipped cell fails loudly at the
        selection site instead of as an opaque downstream error.
        """
        out = []
        for rec in self.records:
            if simulator is not None and rec.simulator != simulator:
                continue
            if algorithm is not None and rec.algorithm != algorithm:
                continue
            if n is not None and rec.n != n:
                continue
            out.append(rec)
        if strict and not out:
            raise KeyError(
                f"no study records match simulator={simulator!r} "
                f"algorithm={algorithm!r} n={n!r}; {self._held_values()}"
            )
        return out

    def record(self, dag_label: str, algorithm: str, simulator: str) -> RunRecord:
        """The single record of one (dag, algorithm, simulator) cell.

        Raises a :class:`KeyError` that names the missing cell and the
        values the study does hold when the cell was skipped, filtered,
        or never run.
        """
        for rec in self.records:
            if (
                rec.dag_label == dag_label
                and rec.algorithm == algorithm
                and rec.simulator == simulator
            ):
                return rec
        raise KeyError(
            f"no study record for cell (dag={dag_label!r}, "
            f"algorithm={algorithm!r}, simulator={simulator!r}); "
            f"{self._held_values()}"
        )

    def dag_labels(self, *, n: int | None = None) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.records:
            if n is None or rec.n == n:
                seen.setdefault(rec.dag_label)
        return list(seen)


def _run_cell(
    suite: SimulatorSuite,
    params: DagParameters,
    graph: TaskGraph,
    algorithm: str,
    emulator: TGridEmulator,
    obs: Recorder,
    costs: SchedulingCosts,
    simulator: ApplicationSimulator,
    cache: ResultCache | None,
    keys: CellKeys | None,
    messages: dict,
) -> tuple[RunRecord, bool]:
    """One grid cell: schedule, simulate, execute, record.

    Returns the record and whether it came from the cache.

    With a ``cache`` (and this cell's ``keys``), the cell is one entry
    of the ``"cell"`` layer holding the three numbers its record takes
    from the computation: the simulated and experimental makespans and
    the total allocation.  A hit runs none of the three phases; a miss
    runs them and writes the entry.  The cell is deterministic in
    exactly its key — the emulator derives its RNG from its own
    configuration plus (dag, algorithm, run label), never from shared
    sequential state — so cached replays are bit-identical to fresh
    computation, in the parent or a worker.  The record's labels (DAG
    name, n, algorithm, suite name) come from the live cell, so suites
    with equal models share their entries.

    Both executions share one :class:`ScheduleLowering` of the final
    schedule: the first that runs lowers (and validates) it, with the
    study's ``messages`` memo.
    """
    cell = {"dag": graph.name, "algorithm": algorithm, "simulator": suite.name}
    hit = True

    def compute() -> tuple[float, float, int]:
        nonlocal hit
        hit = False
        with obs.span("study.schedule", **cell):
            schedule = schedule_dag(graph, costs, algorithm)
        lowering = ScheduleLowering(graph, schedule, _messages=messages)
        with obs.span("study.simulate", **cell):
            sim_trace = simulator.run(graph, schedule, lowering=lowering)
        with obs.span("study.execute", **cell):
            exp_trace = emulator.execute(graph, schedule, lowering=lowering)
        return (
            sim_trace.makespan,
            exp_trace.makespan,
            sum(schedule.allocations().values()),
        )

    if cache is None:
        sim_makespan, exp_makespan, total_alloc = compute()
    else:
        sim_makespan, exp_makespan, total_alloc = cache.get_or_compute(
            "cell", keys.cell(algorithm), compute
        )
    record = RunRecord(
        dag_label=graph.name,
        n=params.n,
        algorithm=algorithm,
        simulator=suite.name,
        sim_makespan=sim_makespan,
        exp_makespan=exp_makespan,
        total_alloc=total_alloc,
    )
    if obs.enabled:
        obs.count("study.runs")
        obs.event(
            "study.record",
            dag=record.dag_label,
            n=record.n,
            algorithm=record.algorithm,
            simulator=record.simulator,
            sim_makespan=record.sim_makespan,
            exp_makespan=record.exp_makespan,
            error_pct=record.error_pct,
            total_alloc=record.total_alloc,
        )
    return record, hit


class _CellRunner:
    """Runs the cells of one study by grid position.

    Holds the cells in suite -> DAG -> algorithm order, one simulator
    per suite (so its network topology is built once) and the
    ``SchedulingCosts`` of the current (suite, DAG) pair.  A pair's
    cells are adjacent in grid order and in every chunk, so that one
    entry carries the memoised task times across the pair's
    algorithms.  (Cost evaluation emits no observability, so the memo
    cannot change any counter.)  Its ``messages`` memo of
    redistributions lives and dies with the study.  :meth:`run` is the
    only way a cell runs, in the parent or in a pool worker, and the one
    place a cell's live events are emitted.
    """

    def __init__(
        self,
        dags: Sequence[tuple[DagParameters, TaskGraph]],
        suites: Sequence[SimulatorSuite],
        emulator: TGridEmulator,
        algorithms: Sequence[str],
        cache: ResultCache | None,
    ) -> None:
        self.dags = dags
        self.suites = suites
        self.emulator = emulator
        self.cache = cache
        self.keys = (
            StudyKeys(emulator, suites, [graph for _params, graph in dags])
            if cache is not None
            else None
        )
        self.cells = [
            (suite_idx, dag_idx, algorithm)
            for suite_idx in range(len(suites))
            for dag_idx in range(len(dags))
            for algorithm in algorithms
        ]
        self.simulators = [
            ApplicationSimulator(
                emulator.platform,
                suite.task_model,
                startup_model=suite.startup_model,
                redistribution_model=suite.redistribution_model,
            )
            for suite in suites
        ]
        self.messages: dict = {}
        self._pair: tuple[int, int] | None = None
        self._costs: SchedulingCosts | None = None
        self._cell_keys: CellKeys | None = None
        #: Where the cells' live events go: the parent's emitter in a
        #: study without a pool, each worker's own in a pool, None
        #: without telemetry.
        self.emitter: CellEmitter | None = None

    def run(self, pos: int) -> RunRecord:
        """Run the cell at grid position ``pos`` into the active recorder.

        With an emitter, the cell sends a live ``start``, then a
        ``hit`` if it came from the cache or a ``finish`` if it was
        computed.
        """
        suite_idx, dag_idx, algorithm = self.cells[pos]
        suite = self.suites[suite_idx]
        params, graph = self.dags[dag_idx]
        if self._pair != (suite_idx, dag_idx):
            self._pair = (suite_idx, dag_idx)
            self._costs = SchedulingCosts(
                graph,
                self.emulator.platform,
                suite.task_model,
                startup_model=suite.startup_model,
                redistribution_model=suite.redistribution_model,
            )
            self._cell_keys = (
                self.keys.cell(suite_idx, dag_idx)
                if self.keys is not None
                else None
            )
        emitter = self.emitter
        if emitter is not None:
            label = f"{suite.name}:{graph.name}/{algorithm}"
            emitter.cell_started(pos, label)
        obs = get_recorder()
        tl = obs.timeline if obs.enabled else None
        cell_ctx = (
            tl.context(variant=suite.name, n=params.n)
            if tl is not None
            else nullcontext()
        )
        with cell_ctx:
            record, hit = _run_cell(
                suite, params, graph, algorithm, self.emulator, obs,
                self._costs, self.simulators[suite_idx], self.cache,
                self._cell_keys, self.messages,
            )
        if emitter is not None:
            emitter.cell_finished(pos, label, hit)
        return record


#: Per-worker study state, installed once by the pool initializer so
#: each chunk submission ships only its grid positions.
_POOL_STATE: dict = {}


def _pool_init(
    runner: _CellRunner,
    obs_enabled: bool,
    timeline_enabled: bool,
    profiler_enabled: bool,
    live_queue: object | None,
) -> None:
    _POOL_STATE["runner"] = runner
    _POOL_STATE["obs_enabled"] = obs_enabled
    _POOL_STATE["timeline_enabled"] = timeline_enabled
    _POOL_STATE["profiler_enabled"] = profiler_enabled
    # Live telemetry side-channel: ``live_queue`` is the queue of the
    # parent's LiveTelemetry, if one is attached.  The emitter is
    # strictly observational — it feeds the progress display, never
    # the Recorder — so results and merged metrics are identical with
    # or without it.
    if live_queue is not None:
        runner.emitter = WorkerEmitter(live_queue)


def _pool_run_chunk(positions: range) -> tuple[list[RunRecord], dict | None]:
    """Run one chunk of consecutive grid positions in a worker.

    Returns ``(records, obs payload)`` — one compact payload for the
    whole chunk instead of one pickle per cell.  When the parent's
    recorder is enabled the worker records every cell into a single
    private in-memory recorder (never into any sink inherited across
    the fork, which the parent process owns), whose export the parent
    absorbs whole.
    """
    state = _POOL_STATE
    runner = state["runner"]
    if runner.emitter is not None:
        runner.emitter.chunk_claimed(len(positions))
    if not state["obs_enabled"]:
        return [runner.run(pos) for pos in positions], None
    # A worker timeline numbers its runs from 0; the parent's
    # Timeline.absorb offsets them by its running total.
    tl = Timeline() if state["timeline_enabled"] else None
    # Worker span tables merge by absolute span path with summed
    # counts, so one chunk-wide table absorbs to the same structure as
    # the per-cell increments of cells run in the parent.
    prof = Profiler() if state["profiler_enabled"] else None
    worker_obs = Recorder(MemorySink(), timeline=tl, profiler=prof)
    with recording(worker_obs):
        records = [runner.run(pos) for pos in positions]
    return records, worker_obs.export_state()


def _count_misses(runner: _CellRunner) -> int:
    """One-pass batched cache probe: how many cells are not cached?

    Hashes every cell's key from the study's pre-encoded fragments and
    asks the store whether its entry file exists
    (:meth:`~repro.cache.result_cache.ResultCache.contains`), so the
    probe leaves hit/miss and byte counters exactly as if it never
    ran.  The count only decides whether a pool is worth forking.  A
    hit is advisory: the cell still runs through the normal counted
    path, which detects (and counts) a stale or corrupt entry — a
    wrong hint never changes what a cell produces.
    """
    cache, keys = runner.cache, runner.keys
    if cache is None:
        return len(runner.cells)
    return sum(
        not cache.contains(
            "cell", keys.cell(suite_idx, dag_idx).cell(algorithm)
        )
        for suite_idx, dag_idx, algorithm in runner.cells
    )


def _walk_grid(
    runner: _CellRunner,
    result: StudyResult,
    workers: int,
    chunk: int,
    obs: Recorder,
    telemetry: LiveTelemetry | None,
) -> float:
    """Run the grid in position order; returns the seconds the parent
    spent blocked on pool futures (the dispatch wait).

    See the module docstring.  Without a pool every position runs in
    the parent; with one, every position runs in its chunk and each
    chunk's payload is absorbed whole, in submission order, so records,
    events, timeline lines and run numbering come out exactly as if
    every cell ran in the parent, regardless of chunking or completion
    order.
    """
    total = len(runner.cells)
    if not total:
        return 0.0
    pool_workers = min(workers, _count_misses(runner)) if workers > 1 else 0
    if pool_workers < 2:
        # A one-worker pool would do the in-process work plus the
        # fork, pickling and merge: every cell runs in the parent.
        pool_workers = 0
    if telemetry is not None:
        telemetry.begin_study(total, pool_workers)
    if not pool_workers:
        if telemetry is not None:
            runner.emitter = telemetry.emitter()
        result.records.extend(map(runner.run, range(total)))
        return 0.0
    size = chunk or math.ceil(total / (pool_workers * _CHUNKS_PER_WORKER))
    dispatch_wait = 0.0
    with _fork_pool(runner, pool_workers, obs, telemetry) as pool:
        # All chunks are submitted up front into the pool's shared
        # queue; idle workers pull the next chunk as they finish, so
        # uneven chunks rebalance work-stealing-style.  The walk below
        # still consumes them strictly in submission (= grid) order and
        # keeps no future it has consumed, so each payload is freed
        # once absorbed instead of living until the pool closes.
        futures = deque(
            pool.submit(_pool_run_chunk, range(lo, min(lo + size, total)))
            for lo in range(0, total, size)
        )
        while futures:
            future = futures.popleft()
            t0 = time.perf_counter()
            records, payload = future.result()
            dispatch_wait += time.perf_counter() - t0
            result.records.extend(records)
            if payload is not None:
                obs.absorb(payload)
    return dispatch_wait


@contextmanager
def _fork_pool(
    runner: _CellRunner,
    pool_workers: int,
    obs: Recorder,
    telemetry: LiveTelemetry | None,
) -> Iterator[ProcessPoolExecutor]:
    """A process pool whose workers each hold a copy of ``runner``,
    forked from a frozen heap (see the module docstring)."""
    # Lower the DAG layouts once, parent-side, before the fork: every
    # worker then inherits the memoised GraphLayout copy-on-write
    # instead of re-lowering it per process.  (Lowering emits no
    # observability, so this moves work without moving any counter.)
    for _params, graph in runner.dags:
        graph_layout(graph)
    # Fork shares the already-built runner with the workers for free;
    # other start methods pickle it once via the initializer args.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    # The live side-channel queue must come from the pool's own
    # multiprocessing context so it rides through the initializer args
    # (queues are inherited, not pickled).
    live_queue = telemetry.connect(ctx) if telemetry is not None else None
    pool = ProcessPoolExecutor(
        max_workers=pool_workers,
        mp_context=ctx,
        initializer=_pool_init,
        initargs=(
            runner, obs.enabled, obs.timeline is not None,
            obs.profiler is not None, live_queue,
        ),
    )
    # The first submit forks the workers.  A caller's own freeze is
    # left as it is.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        with pool:
            yield pool
    finally:
        if freeze:
            gc.unfreeze()


def run_study(
    dags: Sequence[tuple[DagParameters, TaskGraph]],
    suites: Iterable[SimulatorSuite],
    emulator: TGridEmulator,
    *,
    algorithms: Sequence[str] = ("hcpa", "mcpa"),
    workers: int = 1,
    cache: ResultCache | None = None,
    chunk: int = 0,
    telemetry: LiveTelemetry | None = None,
) -> StudyResult:
    """Run the full grid; returns every (DAG, algorithm, suite) record.

    ``workers`` > 1 may distribute the grid over a process pool (see
    the module docstring); the default runs every cell in process.  The
    records — and, with an enabled recorder, the merged metrics — are
    identical either way.  Requested workers beyond ``os.cpu_count()``
    are clamped to the core count (oversubscribing a process pool only
    multiplies fork and pickle overhead); the clamp is recorded as a
    ``runner.workers_clamped`` counter, never applied silently.  A pool
    is forked only when it would get at least two workers.

    ``cache`` enables content-addressed memoization of every cell, one
    entry each: a warm re-run skips any cell whose inputs are unchanged
    and returns bit-identical records.  The cache is shared safely with
    pool workers (atomic file-per-entry writes); per-layer hit/miss
    counters land in the recorder either way.  With more than one
    worker, a batched
    side-effect-free probe counts the cells that still need computing
    before the pool is forked; a warm grid (fewer than two misses)
    never forks one.  With a pool, cached cells replay in their
    chunk's worker like any other cell.

    ``chunk`` forces the cells per pool dispatch (0, the default: about
    :data:`_CHUNKS_PER_WORKER` chunks per pool worker; 1: per-cell
    dispatch); tests use it to move chunk boundaries.  Chunking changes
    dispatch granularity only — results, counters, timelines and
    profiles are identical for every setting.

    ``telemetry`` attaches a :class:`~repro.obs.live.LiveTelemetry` bus
    for streaming progress (cell start/finish, cache hits, chunk
    claims, worker heartbeats — the ``--progress`` display and
    ``repro serve-metrics``).  The channel is strictly observational:
    records, counters, timeline lines and profiles are bit-identical
    with or without it (asserted by
    ``test_live_telemetry_does_not_perturb_study``), and live-only
    counters such as ``runner.stragglers`` stay in the telemetry
    state, never the Recorder.

    Whatever the path, the recorder's span aggregates gain two
    wall-clock timings per study: ``study.grid`` (end-to-end grid wall
    time, the denominator of cells/sec) and ``study.dispatch`` (time
    the parent spent blocked on pool futures; 0 without a pool) — see
    ``repro report``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk < 0:
        raise ValueError(f"chunk size must be >= 0 (0 = auto), got {chunk}")
    result = StudyResult()
    obs = get_recorder()
    suites = list(suites)
    dags = list(dags)
    cpus = os.cpu_count() or 1
    if workers > cpus:
        # Clamp the pool to the cores that exist; a clamp to one core
        # runs the whole study in process.
        workers = cpus
        if obs.enabled:
            obs.count("runner.workers_clamped")
    grid_t0 = time.perf_counter()
    runner = _CellRunner(dags, suites, emulator, algorithms, cache)
    dispatch_wait = _walk_grid(
        runner, result, workers, chunk, obs, telemetry
    )
    if obs.enabled:
        # Same two aggregates with or without a pool (the dispatch
        # wait is genuinely zero without one), so metrics keep
        # identical span-name sets and counts at every (workers, chunk).
        obs.timing("study.grid", time.perf_counter() - grid_t0)
        obs.timing("study.dispatch", dispatch_wait)
    result.manifest = RunManifest.collect(
        seed=emulator.seed,
        cluster=emulator.platform,
        simulators=[s.name for s in suites],
        algorithms=list(algorithms),
        num_records=len(result.records),
        recorder=obs if obs.enabled else None,
    )
    return result
