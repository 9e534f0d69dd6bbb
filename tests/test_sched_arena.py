"""The production allocators must match the object-loop oracle bit for bit.

The CPA, HCPA and MCPA allocators of :mod:`repro.scheduling` run the
flat-array loop of :mod:`repro.scheduling.arena`.  ``tests/reference_cpa.py``
keeps the object allocation loop as an independent oracle.  These tests
compare the two exactly — allocations, events, counters, timeline lines
and profiler structure — on the paper's DAGs and on Hypothesis-generated
ones, under each of three recorder configurations (the production loop
has one body; what is attached decides only which timings and probes
wrap it):

* ``no_recorder``: the disabled default recorder — what every untraced
  study runs;
* ``recorder``: a recorder and timeline without a profiler
  (``--trace-out`` / ``--timeline-out``);
* ``profiler``: a recorder, timeline and profiler (``--profile``).

The analytic suite's allocations mostly stop on the ``T_CP <= T_A``
criterion; measured (profile) models mostly stop when no critical-path
task gains from another processor, so both suites are compared.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.generator import DagParameters, generate_dag, generate_paper_dags
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATMUL
from repro.obs import MemorySink, Profiler
from repro.obs.recorder import Recorder, recording
from repro.obs.timeline import Timeline, timeline_lines
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite, build_profile_suite
from repro.scheduling import SchedulingCosts
from repro.scheduling.arena import graph_layout
from repro.scheduling.cpa import cpa_allocate
from repro.scheduling.hcpa import hcpa_allocate
from repro.scheduling.mcpa import mcpa_allocate
from repro.testbed.tgrid import TGridEmulator
from tests import reference_cpa

PRODUCTION_ALLOCATORS = {
    "cpa": cpa_allocate,
    "hcpa": hcpa_allocate,
    "mcpa": mcpa_allocate,
}
ORACLE_ALLOCATORS = {
    "cpa": reference_cpa.cpa_allocate,
    "hcpa": reference_cpa.hcpa_allocate,
    "mcpa": reference_cpa.mcpa_allocate,
}
ALGORITHMS = sorted(PRODUCTION_ALLOCATORS)
BRANCHES = ("no_recorder", "recorder", "profiler")

_PLATFORM = bayreuth_cluster(8)
_SUITE = build_analytical_suite(_PLATFORM)
_DAGS = generate_paper_dags(seed=0)[:3]


@pytest.fixture(scope="module")
def profile_suite():
    """Measured models of the 8-node platform (about 0.5 s to build)."""
    return build_profile_suite(TGridEmulator(_PLATFORM, seed=0))


def _costs(graph, platform=_PLATFORM, suite=_SUITE):
    return SchedulingCosts(
        graph,
        platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )


def _observed_run(allocator, graph, costs, branch="profiler"):
    """Allocate under one recorder configuration; return every
    comparable facet.

    ``no_recorder`` yields the allocation alone, ``recorder`` adds
    events, counters and timeline lines, ``profiler`` adds the profile
    structure.
    """
    if branch == "no_recorder":
        rec = Recorder()
        assert not rec.enabled and rec.profiler is None
        with recording(rec):
            return (allocator(graph, costs),)
    sink = MemorySink()
    profiler = Profiler() if branch == "profiler" else None
    rec = Recorder(sink, timeline=Timeline(), profiler=profiler)
    with recording(rec):
        alloc = allocator(graph, costs)
    facets = (
        alloc,
        [r for r in sink.records if r.get("type") == "event"],
        dict(rec.counters),
        timeline_lines(rec.timeline.records),
    )
    if profiler is not None:
        facets += (profiler.structure(),)
    return facets


def _assert_paper_dags_match(algorithm, branch, suite=_SUITE):
    facets = ("allocations", "events", "counters", "timeline", "profile")
    observed = []
    for _params, graph in _DAGS:
        oracle = _observed_run(
            ORACLE_ALLOCATORS[algorithm], graph, _costs(graph, suite=suite),
            branch,
        )
        production = _observed_run(
            PRODUCTION_ALLOCATORS[algorithm], graph,
            _costs(graph, suite=suite), branch,
        )
        assert len(oracle) == len(production)
        for facet, x, y in zip(facets, oracle, production):
            assert x == y, (
                f"{facet} diverged on {graph.name} ({algorithm}, {branch})"
            )
        assert oracle[0]  # non-empty allocation
        observed.append(oracle)
    return observed


def _stop_reasons(observed):
    return {
        event["reason"]
        for run in observed
        for event in run[1]
        if event["name"] == "sched.alloc_done"
    }


# ----------------------------------------------------------------------
# bit-identity: paper DAGs, all algorithms
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_paper_dags_match_on_every_facet(self, algorithm):
        observed = _assert_paper_dags_match(algorithm, "profiler")
        # Real work happened: the allocation loop grew something.
        assert any(
            run[2].get("sched.alloc_grow_steps", 0) > 0 for run in observed
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_paper_dags_match_without_recorder(self, algorithm):
        _assert_paper_dags_match(algorithm, "no_recorder")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_paper_dags_match_without_profiler(self, algorithm):
        _assert_paper_dags_match(algorithm, "recorder")

    def test_hcpa_counters_include_cap_hits(self):
        graph = _DAGS[0][1]
        oracle = _observed_run(
            reference_cpa.hcpa_allocate, graph, _costs(graph)
        )
        production = _observed_run(hcpa_allocate, graph, _costs(graph))
        assert oracle[2] == production[2]
        assert "sched.hcpa.cap_hits" in oracle[2]


# ----------------------------------------------------------------------
# bit-identity: measured models
# ----------------------------------------------------------------------
class TestMeasuredModels:
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_profile_suite_paper_dags_match(self, profile_suite, branch):
        observed = []
        for algorithm in ALGORITHMS:
            observed += _assert_paper_dags_match(
                algorithm, branch, suite=profile_suite
            )
        if branch != "no_recorder":
            # The case this suite exists for: measured scaling knees
            # end the loop before the area criterion does.
            assert "no_beneficial_candidate" in _stop_reasons(observed)


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
    algorithm = draw(st.sampled_from(ALGORITHMS))
    return graph, algorithm


def _assert_case_matches(case, branch):
    graph, algorithm = case
    oracle = _observed_run(
        ORACLE_ALLOCATORS[algorithm], graph, _costs(graph), branch
    )
    production = _observed_run(
        PRODUCTION_ALLOCATORS[algorithm], graph, _costs(graph), branch
    )
    assert oracle == production


class TestHypothesisIdentity:
    @given(sched_cases())
    @settings(max_examples=30, deadline=None)
    def test_random_dags_match(self, case):
        _assert_case_matches(case, "profiler")

    @given(sched_cases())
    @settings(max_examples=30, deadline=None)
    def test_random_dags_match_without_recorder(self, case):
        _assert_case_matches(case, "no_recorder")

    @given(sched_cases())
    @settings(max_examples=30, deadline=None)
    def test_random_dags_match_without_profiler(self, case):
        _assert_case_matches(case, "recorder")


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


# ----------------------------------------------------------------------
# allocation records name their cell
# ----------------------------------------------------------------------
class TestAllocationContext:
    """An allocator called directly, outside ``schedule_dag``, pushes
    the ``dag`` and ``algorithm`` its caller's context lacks."""

    @staticmethod
    def _small_dag():
        return generate_dag(
            DagParameters(
                num_input_matrices=2, add_ratio=0.5, n=2000, sample=0, seed=3
            )
        )

    @staticmethod
    def _alloc_records(allocator, graph, **context):
        rec = Recorder(MemorySink(), timeline=Timeline())
        with recording(rec), rec.timeline.context(**context):
            allocator(graph, _costs(graph))
        return [
            r for r in rec.timeline.records
            if r["kind"] in ("alloc", "alloc_done")
        ]

    def test_direct_hcpa_records_name_their_cell(self):
        graph = self._small_dag()
        records = self._alloc_records(hcpa_allocate, graph)
        kinds = [r["kind"] for r in records]
        assert kinds == ["alloc"] * 17 + ["alloc_done"]
        for record in records:
            assert record["dag"] == graph.name
            assert record["algorithm"] == "hcpa"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_only_missing_keys_are_pushed(self, algorithm):
        graph = self._small_dag()
        records = self._alloc_records(
            PRODUCTION_ALLOCATORS[algorithm], graph, variant="v", dag="mine"
        )
        assert records[-1]["kind"] == "alloc_done"
        for record in records:
            assert list(record)[:4] == ["kind", "variant", "dag", "algorithm"]
            assert record["dag"] == "mine"
            assert record["algorithm"] == algorithm
