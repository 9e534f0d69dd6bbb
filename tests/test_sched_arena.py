"""Scheduler backends must be bit-identical.

The flat-array allocation core (:mod:`repro.scheduling.arena`) is a
performance twin of the object allocation loop: same allocations, same
observability events and counters, same timeline bytes, same profiler
structure.  These tests compare the backends exactly, on the paper's
DAGs and on Hypothesis-generated ones, then check the study-level
plumbing: the ``sched`` switch, parallel-worker determinism, and
warm-cache replay across backends (the backend is deliberately absent
from cache keys).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.result_cache import ResultCache
from repro.dag.generator import DagParameters, generate_dag, generate_paper_dags
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATMUL
from repro.experiments.runner import run_study
from repro.obs import MemorySink, Profiler
from repro.obs.recorder import Recorder, recording
from repro.obs.timeline import Timeline, timeline_lines
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite
from repro.scheduling import SchedulingCosts, allocate_batch, schedule_dag
from repro.scheduling import arena
from repro.scheduling.arena import ARRAY_ALLOCATORS, graph_layout, resolve_sched
from repro.scheduling.cpa import cpa_allocate
from repro.scheduling.hcpa import hcpa_allocate
from repro.scheduling.mcpa import mcpa_allocate
from repro.testbed.tgrid import TGridEmulator

OBJECT_ALLOCATORS = {
    "cpa": cpa_allocate,
    "hcpa": hcpa_allocate,
    "mcpa": mcpa_allocate,
}

_PLATFORM = bayreuth_cluster(8)
_SUITE = build_analytical_suite(_PLATFORM)
_DAGS = generate_paper_dags(seed=0)[:3]


def _costs(graph, platform=_PLATFORM, suite=_SUITE):
    return SchedulingCosts(
        graph,
        platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )


def _observed_run(allocator, graph, costs):
    """Allocate under full observability; return every comparable facet."""
    sink = MemorySink()
    rec = Recorder(sink, timeline=Timeline(), profiler=Profiler())
    with recording(rec):
        alloc = allocator(graph, costs)
    return (
        alloc,
        [r for r in sink.records if r.get("type") == "event"],
        dict(rec.counters),
        timeline_lines(rec.timeline.records),
        rec.profiler.structure(),
    )


# ----------------------------------------------------------------------
# bit-identity: paper DAGs, all algorithms
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", sorted(ARRAY_ALLOCATORS))
    def test_paper_dags_match_on_every_facet(self, algorithm):
        facets = ("allocations", "events", "counters", "timeline", "profile")
        for _params, graph in _DAGS:
            obj = _observed_run(
                OBJECT_ALLOCATORS[algorithm], graph, _costs(graph)
            )
            arr = _observed_run(
                ARRAY_ALLOCATORS[algorithm], graph, _costs(graph)
            )
            for facet, x, y in zip(facets, obj, arr):
                assert x == y, (
                    f"{facet} diverged on {graph.name} ({algorithm})"
                )
            # Real work happened: counters saw the allocation loop.
            assert obj[2].get("sched.alloc_grow_steps", 0) >= 0
            assert obj[0]  # non-empty allocation

    def test_hcpa_counters_include_cap_hits(self):
        graph = _DAGS[0][1]
        obj = _observed_run(hcpa_allocate, graph, _costs(graph))
        arr = _observed_run(
            ARRAY_ALLOCATORS["hcpa"], graph, _costs(graph)
        )
        assert obj[2] == arr[2]
        assert "sched.hcpa.cap_hits" in obj[2]

    def test_hcpa_array_rejects_beta_below_one(self):
        graph = _DAGS[0][1]
        with pytest.raises(ValueError, match="beta"):
            arena.hcpa_allocate_array(graph, _costs(graph), beta=0.5)


# ----------------------------------------------------------------------
# bit-identity: Hypothesis-generated DAGs
# ----------------------------------------------------------------------
@st.composite
def sched_cases(draw):
    params = DagParameters(
        num_input_matrices=draw(st.sampled_from((2, 4, 8))),
        add_ratio=draw(st.sampled_from((0.5, 0.75, 1.0))),
        n=draw(st.sampled_from((2000, 3000))),
        sample=draw(st.integers(min_value=0, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=300)),
    )
    graph = generate_dag(params)
    algorithm = draw(st.sampled_from(sorted(ARRAY_ALLOCATORS)))
    return graph, algorithm


class TestHypothesisIdentity:
    @given(sched_cases())
    @settings(max_examples=30, deadline=None)
    def test_random_dags_match(self, case):
        graph, algorithm = case
        obj = _observed_run(OBJECT_ALLOCATORS[algorithm], graph, _costs(graph))
        arr = _observed_run(ARRAY_ALLOCATORS[algorithm], graph, _costs(graph))
        assert obj == arr


# ----------------------------------------------------------------------
# the sched switch end to end
# ----------------------------------------------------------------------
class TestSchedSwitch:
    def test_schedule_dag_matches_across_backends(self):
        for _params, graph in _DAGS:
            for algorithm in sorted(ARRAY_ALLOCATORS):
                obj = schedule_dag(
                    graph, _costs(graph), algorithm, sched="object"
                )
                arr = schedule_dag(
                    graph, _costs(graph), algorithm, sched="array"
                )
                assert arr.placements == obj.placements
                assert arr.order == obj.order
                assert arr.makespan_estimate == obj.makespan_estimate
                assert arr.algorithm == obj.algorithm

    def test_resolve_sched_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="bogus"):
            resolve_sched("bogus")

    def test_resolve_sched_honors_env(self, monkeypatch):
        monkeypatch.setenv(arena.SCHED_ENV_VAR, "array")
        assert resolve_sched() == "array"
        assert resolve_sched("object") == "object"  # explicit wins
        monkeypatch.delenv(arena.SCHED_ENV_VAR)
        assert resolve_sched() == "object"

    def test_study_records_match_across_backends(self):
        emulator = TGridEmulator(_PLATFORM, seed=0)
        obj = run_study(_DAGS, [_SUITE], emulator, sched="object")
        arr = run_study(_DAGS, [_SUITE], emulator, sched="array")
        assert arr.records == obj.records

    def test_parallel_array_study_equals_serial_object_study(self):
        emulator = TGridEmulator(_PLATFORM, seed=0)
        serial = run_study(
            _DAGS, [_SUITE], emulator, sched="object", workers=1
        )
        parallel = run_study(
            _DAGS, [_SUITE], emulator, sched="array", workers=2
        )
        assert parallel.records == serial.records

    def test_warm_cache_replays_across_sched_backends(self, tmp_path):
        # The backend is deliberately absent from cache keys: a cache
        # populated by one backend serves the other verbatim.
        emulator = TGridEmulator(_PLATFORM, seed=0)
        cache = ResultCache(tmp_path / "cache")
        cold = run_study(
            _DAGS, [_SUITE], emulator, cache=cache, sched="object"
        )
        rec = Recorder.to_memory()
        with recording(rec):
            warm = run_study(
                _DAGS, [_SUITE], emulator, cache=cache, sched="array"
            )
        assert warm.records == cold.records
        counters = rec.metrics()["counters"]
        assert counters["cache.hits"] > 0
        assert counters.get("cache.misses", 0) == 0


# ----------------------------------------------------------------------
# batch API
# ----------------------------------------------------------------------
class TestAllocateBatch:
    def test_batch_matches_individual_allocations(self):
        graphs = [graph for _params, graph in _DAGS]
        for algorithm in sorted(ARRAY_ALLOCATORS):
            batch = allocate_batch(
                graphs, [_costs(g) for g in graphs], algorithm=algorithm
            )
            individual = [
                ARRAY_ALLOCATORS[algorithm](g, _costs(g)) for g in graphs
            ]
            assert batch == individual

    def test_batch_validates_lengths_and_algorithm(self):
        graphs = [graph for _params, graph in _DAGS]
        with pytest.raises(ValueError, match="graphs"):
            allocate_batch(graphs, [_costs(graphs[0])])
        with pytest.raises(ValueError, match="unknown array algorithm"):
            allocate_batch(
                graphs, [_costs(g) for g in graphs], algorithm="mheft"
            )


# ----------------------------------------------------------------------
# layout lowering and caches
# ----------------------------------------------------------------------
class TestLayout:
    def test_layout_is_memoised_and_invalidated_structurally(self):
        g = TaskGraph(name="layout-staleness")
        for tid in range(3):
            g.add_task(Task(task_id=tid, kernel=MATMUL, n=2000))
        g.add_edge(0, 1)
        first = graph_layout(g)
        assert graph_layout(g) is first  # memo hit
        g.add_edge(1, 2)  # structural change -> stale layout
        second = graph_layout(g)
        assert second is not first
        assert second.num_edges == g.num_edges == 2
