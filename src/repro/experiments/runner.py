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
``run_study(..., workers=N)`` fans the (suite x DAG x algorithm) grid
out over a process pool.  Every grid cell is independent by
construction: scheduling is deterministic in its inputs, and the
emulator derives each execution's RNG from ``(seed, dag, algorithm,
run_label)`` rather than from shared sequential state — so cell
results do not depend on execution order, and ``workers=N`` produces
record-for-record the same study as the serial loop.  Workers record
observability into their own in-memory recorder; the parent absorbs
the per-cell payloads in grid submission order, keeping the merged
event stream deterministic too.

Plan-then-execute pipeline
--------------------------
The parallel path runs in three stages, all bit-identical to the
serial loop:

1. **Planner** (:func:`_plan_cache_hits`): with a cache attached, every
   cell's schedule/simulation/testbed keys are hashed in one pass and
   probed *side-effect-free*
   (:meth:`~repro.cache.result_cache.ResultCache.peek`).  Fully cached
   cells never reach the pool: the parent replays them inline through
   the exact per-cell path, so their counters and records are the ones
   the normal counted reads produce.  Each DAG's
   :class:`~repro.scheduling.arena.GraphLayout` (the allocation loop's
   flat lowering) is built once, parent-side, before the fork, so every
   worker inherits it copy-on-write.
2. **Chunked executor** (:func:`_pool_run_chunk`): cache-missing cells
   are dispatched to the pool as whole chunks (``chunk`` cells per
   future; default ~4 chunks per worker so the pool's shared queue
   rebalances stragglers work-stealing-style).  A worker runs its
   chunk's cells sequentially — reusing one simulator per suite and one
   ``SchedulingCosts`` per (suite, DAG) across the chunk — and ships
   one compact result+observability payload per chunk instead of one
   pickle per cell.
3. **Merge**: the parent walks the grid in submission order,
   interleaving inline cache hits with chunk payload slices.  Chunk
   counters/span-stats/profiles merge once per chunk (their sums are
   order-independent); event records and timeline slices are replayed
   at each cell's grid position, with worker-local run ids rebased per
   slice — so records, counters, timelines and profiles come out
   exactly as the serial loop emits them.

Cache keys
----------
With a cache attached, ``run_study`` builds one
:class:`~repro.cache.keys.StudyKeys` and every cell path takes its keys
from it: the serial loop, the planner, the parent's inline replay of
hits and the pool workers.  The shared fingerprints (emulator, each
suite's cost and simulator models, each DAG) are encoded once per
study, not per cell, and each cell's schedule once for its two
execution keys.  Without a cache nothing is built.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cache.keys import CellKeys, StudyKeys
from repro.cache.result_cache import ResultCache
from repro.dag.generator import DagParameters
from repro.dag.graph import TaskGraph
from repro.obs.live import LiveTelemetry, WorkerEmitter
from repro.obs.manifest import RunManifest
from repro.obs.prof import Profiler
from repro.obs.recorder import Recorder, get_recorder, recording
from repro.obs.sinks import MemorySink
from repro.obs.timeline import Timeline
from repro.profiling.calibration import SimulatorSuite
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.arena import graph_layout
from repro.scheduling.driver import schedule_dag
from repro.scheduling.schedule import Schedule
from repro.simgrid.simulator import ApplicationSimulator
from repro.testbed.tgrid import TGridEmulator
from repro.util.stats import relative_error

__all__ = [
    "CHUNK_ENV_VAR",
    "RunRecord",
    "StudyResult",
    "resolve_chunk",
    "run_study",
]

#: Environment variable naming the default cells-per-chunk of the
#: parallel study executor (see :func:`resolve_chunk`).
CHUNK_ENV_VAR = "REPRO_CHUNK"

#: Auto chunk sizing targets this many chunks per pool worker: small
#: enough that the pool's shared queue rebalances stragglers, large
#: enough that per-future dispatch overhead stays amortized.
_CHUNKS_PER_WORKER = 4


def resolve_chunk(chunk: int | None = None) -> int:
    """Resolve the chunk-size setting of the parallel study executor.

    An explicit ``chunk`` wins; ``None`` defers to the ``REPRO_CHUNK``
    environment variable; an unset variable means auto.  Returns 0 for
    auto — the executor then aims for :data:`_CHUNKS_PER_WORKER` chunks
    per pool worker — or the positive cells-per-chunk count
    (``1`` = per-cell dispatch, the pre-chunking behaviour).
    """
    if chunk is None:
        raw = os.environ.get(CHUNK_ENV_VAR, "").strip()
        if not raw:
            return 0
        try:
            chunk = int(raw)
        except ValueError:
            raise ValueError(
                f"{CHUNK_ENV_VAR} must be an integer (0 = auto), "
                f"got {raw!r}"
            ) from None
    if chunk < 0:
        raise ValueError(f"chunk size must be >= 0 (0 = auto), got {chunk}")
    return chunk


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
    costs: SchedulingCosts | None = None,
    cache: ResultCache | None = None,
    simulator: ApplicationSimulator | None = None,
    keys: CellKeys | None = None,
) -> RunRecord:
    """One grid cell: schedule, simulate, execute, record.

    Shared by the serial loop (which reuses one ``costs`` per
    (suite, DAG) so the memoised task times carry across algorithms,
    and one ``simulator`` per suite so its network topology is built
    once per sweep) and the pool workers (which build their own).

    With a ``cache`` (and this cell's ``keys``), all three phases are
    memoised: the schedule under the ``"schedule"`` layer and the
    simulated and emulated traces under the ``"simulation"`` layer.
    Each phase is deterministic in exactly its key — the emulator
    derives its RNG from its own configuration plus (dag, algorithm,
    run label), never from shared sequential state — so cached replays
    are bit-identical to fresh computation, serial or pooled.
    """
    platform = emulator.platform
    obs = get_recorder()
    tl = obs.timeline if obs.enabled else None
    cell_ctx = (
        tl.context(variant=suite.name, n=params.n)
        if tl is not None
        else nullcontext()
    )
    with cell_ctx:
        return _run_cell_body(
            suite, params, graph, algorithm, emulator, obs,
            costs=costs, cache=cache, simulator=simulator, keys=keys,
        )


def _run_cell_body(
    suite: SimulatorSuite,
    params: DagParameters,
    graph: TaskGraph,
    algorithm: str,
    emulator: TGridEmulator,
    obs: Recorder,
    costs: SchedulingCosts | None = None,
    cache: ResultCache | None = None,
    simulator: ApplicationSimulator | None = None,
    keys: CellKeys | None = None,
) -> RunRecord:
    platform = emulator.platform
    if costs is None:
        costs = SchedulingCosts(
            graph,
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
    with obs.span(
        "study.schedule", algorithm=algorithm, simulator=suite.name
    ):
        if cache is None:
            schedule = schedule_dag(graph, costs, algorithm)
        else:
            schedule = cache.get_or_compute(
                "schedule",
                keys.schedule(algorithm),
                lambda: schedule_dag(graph, costs, algorithm),
            )
    if simulator is None:
        simulator = ApplicationSimulator(
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
    with obs.span(
        "study.simulate", algorithm=algorithm, simulator=suite.name
    ):
        if cache is None:
            sim_trace = simulator.run(graph, schedule)
        else:
            sim_key, exp_key = keys.executions(schedule)
            sim_trace = cache.get_or_compute(
                "simulation", sim_key, lambda: simulator.run(graph, schedule)
            )
    with obs.span(
        "study.execute", algorithm=algorithm, simulator=suite.name
    ):
        if cache is None:
            exp_trace = emulator.execute(graph, schedule)
        else:
            exp_trace = cache.get_or_compute(
                "simulation",
                exp_key,
                lambda: emulator.execute(graph, schedule),
            )
    record = RunRecord(
        dag_label=graph.name,
        n=params.n,
        algorithm=algorithm,
        simulator=suite.name,
        sim_makespan=sim_trace.makespan,
        exp_makespan=exp_trace.makespan,
        total_alloc=sum(schedule.allocations().values()),
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
    return record


#: Per-worker study inputs, installed once by the pool initializer so
#: each cell submission ships only three small indices.
_POOL_STATE: dict = {}


def _pool_init(
    dags: Sequence[tuple[DagParameters, TaskGraph]],
    suites: Sequence[SimulatorSuite],
    emulator: TGridEmulator,
    obs_enabled: bool,
    cache: ResultCache | None = None,
    timeline_enabled: bool = False,
    profiler_enabled: bool = False,
    live: tuple | None = None,
    keys: StudyKeys | None = None,
) -> None:
    _POOL_STATE["dags"] = dags
    _POOL_STATE["suites"] = suites
    _POOL_STATE["emulator"] = emulator
    _POOL_STATE["obs_enabled"] = obs_enabled
    _POOL_STATE["cache"] = cache
    _POOL_STATE["timeline_enabled"] = timeline_enabled
    _POOL_STATE["profiler_enabled"] = profiler_enabled
    _POOL_STATE["keys"] = keys
    # Per-suite simulator reuse within a worker: its network topology
    # is then built once per worker (simulators are reusable across
    # runs).
    _POOL_STATE["simulators"] = {}
    # Per-(suite, DAG) SchedulingCosts reuse, mirroring the serial
    # loop: the memoised task-time estimates carry across a chunk's
    # algorithms instead of being rebuilt per cell.  (Cost evaluation
    # emits no observability, so the memo cannot change any counter.)
    _POOL_STATE["costs"] = {}
    # Live telemetry side-channel: ``live`` is (queue, heartbeat_s)
    # when the parent runs with a LiveTelemetry attached.  The emitter
    # is strictly observational — it feeds the progress display, never
    # the Recorder — so results and merged metrics are identical with
    # or without it.
    _POOL_STATE["live"] = (
        WorkerEmitter(live[0], heartbeat_s=live[1])
        if live is not None
        else None
    )


def _chunk_cell(cell: tuple[int, int, str], state: dict) -> RunRecord:
    """Run one grid cell inside a worker, through the shared memos."""
    suite_idx, dag_idx, algorithm = cell
    suite = state["suites"][suite_idx]
    params, graph = state["dags"][dag_idx]
    emulator = state["emulator"]
    simulator = state["simulators"].get(suite_idx)
    if simulator is None:
        simulator = ApplicationSimulator(
            emulator.platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
        state["simulators"][suite_idx] = simulator
    costs = state["costs"].get((suite_idx, dag_idx))
    if costs is None:
        costs = SchedulingCosts(
            graph,
            emulator.platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
        state["costs"][(suite_idx, dag_idx)] = costs
    keys = state.get("keys")
    return _run_cell(
        suite, params, graph, algorithm, emulator, costs=costs,
        cache=state.get("cache"), simulator=simulator,
        keys=keys.cell(suite_idx, dag_idx) if keys is not None else None,
    )


def _cell_label(
    cell: tuple[int, int, str],
    suites: Sequence[SimulatorSuite],
    dags: Sequence[tuple[DagParameters, TaskGraph]],
) -> str:
    """Human-readable cell name for live telemetry: suite:dag/algorithm."""
    suite_idx, dag_idx, algorithm = cell
    return f"{suites[suite_idx].name}:{dags[dag_idx][1].name}/{algorithm}"


def _pool_run_chunk(
    cells: Sequence[tuple[int, int, str]],
    positions: Sequence[int] | None = None,
) -> tuple[list[RunRecord], dict | None]:
    """Run one chunk of grid cells in a worker.

    Returns ``(records, obs payload)`` — one compact payload for the
    whole chunk instead of one pickle per cell.  When the parent's
    recorder is enabled the worker records every cell into a single
    private in-memory recorder (never into any sink inherited across
    the fork, which the parent process owns) and annotates the payload
    with per-cell ``marks`` — ``(sink records, timeline records,
    timeline runs)`` high-water marks after each cell — so the parent
    can replay each cell's record and timeline slice at its exact grid
    position while folding the order-independent aggregates (counters,
    span stats, profile sums) in once per chunk.
    """
    state = _POOL_STATE
    records: list[RunRecord] = []
    emitter = state.get("live")
    if positions is None:
        positions = range(len(cells))

    def _traced_cell(k: int, cell: tuple[int, int, str]) -> RunRecord:
        if emitter is None:
            return _chunk_cell(cell, state)
        label = _cell_label(cell, state["suites"], state["dags"])
        emitter.cell_started(positions[k], label)
        record = _chunk_cell(cell, state)
        emitter.cell_finished(positions[k], label)
        return record

    if emitter is not None:
        emitter.chunk_claimed(len(cells))
    if not state["obs_enabled"]:
        for k, cell in enumerate(cells):
            records.append(_traced_cell(k, cell))
        return records, None
    # A worker timeline numbers its runs from 0; the parent's
    # Timeline.absorb rebases each slice's run ids by its running
    # offset minus the slice's run_base, so absorbing chunk slices in
    # grid submission order reproduces the serial numbering exactly.
    tl = Timeline() if state.get("timeline_enabled") else None
    # Worker profiles merge by absolute span path with summed counts,
    # so one chunk-wide profile absorbs to the same structure as the
    # serial run's per-cell increments.
    prof = Profiler() if state.get("profiler_enabled") else None
    worker_obs = Recorder(MemorySink(), timeline=tl, profiler=prof)
    marks: list[tuple[int, int, int]] = []
    with recording(worker_obs):
        for k, cell in enumerate(cells):
            records.append(_traced_cell(k, cell))
            marks.append(
                (
                    len(worker_obs.sink.records),
                    len(tl.records) if tl is not None else 0,
                    tl.run_count if tl is not None else 0,
                )
            )
    payload = worker_obs.export_state()
    payload["marks"] = marks
    return records, payload


def _plan_cache_hits(
    cells: Sequence[tuple[int, int, str]],
    cache: ResultCache | None,
    keys: StudyKeys | None,
) -> list[bool]:
    """One-pass batched cache probe: which cells are fully cached?

    Hashes every cell's schedule/simulation/testbed keys from the
    study's pre-encoded fragments and probes the cache
    *side-effect-free*
    (:meth:`~repro.cache.result_cache.ResultCache.peek` /
    :meth:`~repro.cache.result_cache.ResultCache.contains`), so the
    probe leaves hit/miss counters, byte counters and the LRU exactly
    as if it never ran.  A True entry is advisory: the parent replays
    that cell inline through the normal counted path, which still
    detects (and counts) a stale or corrupt entry — a wrong hint only
    moves where the cell computes, never what it produces.
    """
    if cache is None:
        return [False] * len(cells)
    hits: list[bool] = []
    for suite_idx, dag_idx, algorithm in cells:
        cell_keys = keys.cell(suite_idx, dag_idx)
        found, schedule = cache.peek("schedule", cell_keys.schedule(algorithm))
        if not found:
            hits.append(False)
            continue
        sim_key, exp_key = cell_keys.executions(schedule)
        hits.append(
            cache.contains("simulation", sim_key)
            and cache.contains("simulation", exp_key)
        )
    return hits


def _absorb_chunk_slice(obs: Recorder, payload: dict, k: int) -> None:
    """Replay cell ``k`` of a chunk payload at the current grid position.

    The cell's sink records land in payload order; its timeline slice
    is rebased from the worker-local run numbering to the parent's via
    ``run_base`` (see :meth:`Timeline.absorb`).  Aggregates — counters,
    span stats, the profile — are NOT touched here: they merge once per
    chunk, which yields the same sums.
    """
    marks = payload["marks"]
    rec_lo, tl_lo, run_lo = marks[k - 1] if k else (0, 0, 0)
    rec_hi, tl_hi, run_hi = marks[k]
    sink = obs.sink
    for record in payload["records"][rec_lo:rec_hi]:
        sink.write(record)
    tl_state = payload.get("timeline")
    if tl_state is not None and obs.timeline is not None:
        obs.timeline.absorb(
            {
                "records": tl_state["records"][tl_lo:tl_hi],
                "runs": run_hi - run_lo,
                "run_base": run_lo,
            }
        )


def _run_grid_chunked(
    result: StudyResult,
    dags: Sequence[tuple[DagParameters, TaskGraph]],
    suites: Sequence[SimulatorSuite],
    emulator: TGridEmulator,
    algorithms: Sequence[str],
    workers: int,
    cache: ResultCache | None,
    chunk: int | None,
    obs: Recorder,
    telemetry: LiveTelemetry | None = None,
    keys: StudyKeys | None = None,
) -> float:
    """Plan, dispatch and merge the parallel grid; returns the seconds
    the parent spent blocked on pool futures (the dispatch wait).

    See the module docstring for the three stages.  The merge walks
    cell positions in grid submission order — interleaving inline
    cache-hit replays with worker chunk slices — so records, events,
    timeline lines and run numbering come out exactly as the serial
    loop emits them, regardless of chunking or completion order.
    """
    platform = emulator.platform
    cells = [
        (suite_idx, dag_idx, algorithm)
        for suite_idx in range(len(suites))
        for dag_idx in range(len(dags))
        for algorithm in algorithms
    ]
    if not cells:
        return 0.0
    hits = _plan_cache_hits(cells, cache, keys)
    misses = [pos for pos, hit in enumerate(hits) if not hit]
    pool_workers = max(1, min(workers, len(misses)))
    chunk_size = resolve_chunk(chunk)
    if chunk_size == 0:
        chunk_size = max(
            1, math.ceil(len(misses) / (pool_workers * _CHUNKS_PER_WORKER))
        )
    chunks = [
        misses[i : i + chunk_size]
        for i in range(0, len(misses), chunk_size)
    ]
    if telemetry is not None:
        telemetry.begin_study(
            len(cells), pool_workers if chunks else 0
        )

    # Parent-side memos for inline cache-hit replays, mirroring the
    # serial loop's reuse: one simulator per suite, one SchedulingCosts
    # per (suite, DAG).
    par_sims: dict[int, ApplicationSimulator] = {}
    par_costs: dict[tuple[int, int], SchedulingCosts] = {}

    def _parent_cell(pos: int) -> RunRecord:
        suite_idx, dag_idx, algorithm = cells[pos]
        suite = suites[suite_idx]
        params, graph = dags[dag_idx]
        simulator = par_sims.get(suite_idx)
        if simulator is None:
            simulator = par_sims[suite_idx] = ApplicationSimulator(
                platform,
                suite.task_model,
                startup_model=suite.startup_model,
                redistribution_model=suite.redistribution_model,
            )
        costs = par_costs.get((suite_idx, dag_idx))
        if costs is None:
            costs = par_costs[(suite_idx, dag_idx)] = SchedulingCosts(
                graph,
                platform,
                suite.task_model,
                startup_model=suite.startup_model,
                redistribution_model=suite.redistribution_model,
            )
        return _run_cell(
            suite, params, graph, algorithm, emulator, costs=costs,
            cache=cache, simulator=simulator,
            keys=keys.cell(suite_idx, dag_idx) if keys is not None else None,
        )

    if not chunks:
        # Every cell is cached: the warm study never touches the pool.
        for pos in range(len(cells)):
            result.records.append(_parent_cell(pos))
            if telemetry is not None:
                telemetry.cache_hit(
                    pos, _cell_label(cells[pos], suites, dags)
                )
        return 0.0

    # Lower the DAG layouts once, parent-side, before the fork: every
    # worker then inherits the memoised GraphLayout copy-on-write
    # instead of re-lowering it per process.  (Lowering emits no
    # observability, so this moves work without moving any counter.)
    for _params, graph in dags:
        graph_layout(graph)

    # Fork shares the already-built DAGs/suites/emulator with the
    # workers for free; other start methods pickle them once via the
    # initializer args.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    where: dict[int, tuple[int, int]] = {}
    for ci, chunk_positions in enumerate(chunks):
        for k, pos in enumerate(chunk_positions):
            where[pos] = (ci, k)
    dispatch_wait = 0.0
    # The live side-channel queue must come from the pool's own
    # multiprocessing context so it rides through the initializer args
    # (queues are inherited, not pickled).
    live = (
        (telemetry.connect(ctx), telemetry.heartbeat_s)
        if telemetry is not None
        else None
    )
    with ProcessPoolExecutor(
        max_workers=pool_workers,
        mp_context=ctx,
        initializer=_pool_init,
        initargs=(
            dags, suites, emulator, obs.enabled, cache,
            obs.timeline is not None, obs.profiler is not None,
            live, keys,
        ),
    ) as pool:
        # All chunks are submitted up front into the pool's shared
        # queue; idle workers pull the next chunk as they finish, so
        # uneven chunks rebalance work-stealing-style.  The merge below
        # still consumes results strictly in grid submission order.
        futures = [
            pool.submit(
                _pool_run_chunk,
                [cells[pos] for pos in positions],
                positions,
            )
            for positions in chunks
        ]
        ready: dict[int, tuple[list[RunRecord], dict | None]] = {}
        for pos in range(len(cells)):
            if hits[pos]:
                result.records.append(_parent_cell(pos))
                if telemetry is not None:
                    telemetry.cache_hit(
                        pos, _cell_label(cells[pos], suites, dags)
                    )
                continue
            ci, k = where[pos]
            fetched = ready.get(ci)
            if fetched is None:
                t0 = time.perf_counter()
                fetched = ready[ci] = futures[ci].result()
                dispatch_wait += time.perf_counter() - t0
                payload = fetched[1]
                if payload is not None:
                    # Chunk-wide aggregates merge once at first
                    # contact: counter/span/profile merges are plain
                    # sums, so per-chunk folding equals the serial
                    # per-cell accumulation exactly.
                    obs.absorb(
                        {
                            "records": (),
                            "counters": payload["counters"],
                            "spans": payload["spans"],
                            "profile": payload.get("profile"),
                        }
                    )
            records, payload = fetched
            result.records.append(records[k])
            if payload is not None:
                _absorb_chunk_slice(obs, payload, k)
            if k + 1 == len(chunks[ci]):
                del ready[ci]
    return dispatch_wait


def run_study(
    dags: Sequence[tuple[DagParameters, TaskGraph]],
    suites: Iterable[SimulatorSuite],
    emulator: TGridEmulator,
    *,
    algorithms: Sequence[str] = ("hcpa", "mcpa"),
    workers: int = 1,
    cache: ResultCache | None = None,
    chunk: int | None = None,
    telemetry: LiveTelemetry | None = None,
) -> StudyResult:
    """Run the full grid; returns every (DAG, algorithm, suite) record.

    ``workers`` > 1 distributes the grid over a process pool through
    the plan-then-execute pipeline (see the module docstring); the
    default keeps the serial in-process loop.  The records — and, with
    an enabled recorder, the merged metrics — are identical either
    way.  Requested workers beyond ``os.cpu_count()`` are clamped to
    the core count (oversubscribing a process pool only multiplies
    fork and pickle overhead); the clamp is recorded as a
    ``runner.workers_clamped`` counter, never applied silently.

    ``cache`` enables content-addressed memoization of every cell's
    schedule, simulated trace and emulated trace: a warm re-run skips
    any cell whose inputs are unchanged and returns bit-identical
    records.  The cache is shared safely with pool workers (atomic
    file-per-entry writes); per-layer hit/miss counters land in the
    recorder either way.  In the parallel path, fully cached cells are
    detected up front by a batched side-effect-free probe and replayed
    inline in the parent — they never reach the pool.

    ``chunk`` sets the cells-per-chunk of the parallel executor
    (``None``: honor ``REPRO_CHUNK``; 0 or unset: auto — about
    :data:`_CHUNKS_PER_WORKER` chunks per pool worker; 1: per-cell
    dispatch).  Chunking changes dispatch granularity only — results,
    counters, timelines and profiles are identical for every setting.

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
    the parent spent blocked on pool futures; 0 in the serial loop) —
    see ``repro report``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    result = StudyResult()
    platform = emulator.platform
    obs = get_recorder()
    suites = list(suites)
    dags = list(dags)
    requested = workers
    cpus = os.cpu_count() or 1
    if workers > cpus:
        # Clamp the pool to the cores that exist; the parallel code
        # path (and its chunking) is still exercised — only the pool
        # size shrinks.
        workers = cpus
        if obs.enabled:
            obs.count("runner.workers_clamped")
    grid_t0 = time.perf_counter()
    dispatch_wait = 0.0
    keys = (
        StudyKeys(emulator, suites, [graph for _params, graph in dags])
        if cache is not None
        else None
    )
    if requested > 1:
        dispatch_wait = _run_grid_chunked(
            result, dags, suites, emulator, algorithms, workers,
            cache, chunk, obs, telemetry, keys,
        )
    else:
        if telemetry is not None and suites and dags and algorithms:
            telemetry.begin_study(
                len(suites) * len(dags) * len(algorithms), 0
            )
        pos = 0
        for suite_idx, suite in enumerate(suites):
            simulator = ApplicationSimulator(
                platform,
                suite.task_model,
                startup_model=suite.startup_model,
                redistribution_model=suite.redistribution_model,
            )
            for dag_idx, (params, graph) in enumerate(dags):
                costs = SchedulingCosts(
                    graph,
                    platform,
                    suite.task_model,
                    startup_model=suite.startup_model,
                    redistribution_model=suite.redistribution_model,
                )
                cell_keys = (
                    keys.cell(suite_idx, dag_idx) if keys is not None else None
                )
                for algorithm in algorithms:
                    if telemetry is not None:
                        label = f"{suite.name}:{graph.name}/{algorithm}"
                        telemetry.cell_started(pos, label)
                        cell_t0 = time.monotonic()
                    result.records.append(
                        _run_cell(
                            suite, params, graph, algorithm, emulator,
                            costs=costs, cache=cache, simulator=simulator,
                            keys=cell_keys,
                        )
                    )
                    if telemetry is not None:
                        telemetry.cell_finished(
                            pos, label, time.monotonic() - cell_t0
                        )
                    pos += 1
    if obs.enabled:
        # Same two aggregates in both modes (the serial loop's
        # dispatch wait is genuinely zero), so metrics keep identical
        # span-name sets and counts across serial/parallel/chunked.
        obs.timing("study.grid", time.perf_counter() - grid_t0)
        obs.timing("study.dispatch", dispatch_wait)
    result.manifest = RunManifest.collect(
        seed=emulator.seed,
        cluster=platform,
        simulators=[s.name for s in suites],
        algorithms=list(algorithms),
        num_records=len(result.records),
        recorder=obs if obs.enabled else None,
    )
    return result
