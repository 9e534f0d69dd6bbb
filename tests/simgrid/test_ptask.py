"""Tests for the ptask_L07 parallel-task action model.

The flow-list path (``ParallelTaskSpec`` and ``build_ptask_action``)
is the oracle in ``tests/reference_simgrid.py``: the duration tests
run it through the engine, and the property tests hold the
simulator's builder, ``build_totals_ptask`` over
``matrix_network_totals``, float-identical to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.distributions import (
    redistribution_matrix,
    redistribution_matrix_rows,
)
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATADD, MATMUL
from repro.platform.cluster import ClusterPlatform
from repro.scheduling.schedule import Placement, Schedule
from repro.simgrid.engine import SimulationEngine
from repro.simgrid.ptask import build_totals_ptask, matrix_network_totals
from repro.simgrid.resources import NetworkTopology
from repro.simgrid.simulator import ScheduleLowering
from repro.util.errors import SimulationError
from tests.reference_simgrid import (
    ParallelTaskSpec,
    build_ptask_action,
    comm_matrix_to_flows,
    redistribution_flows,
)


@pytest.fixture
def topo():
    return NetworkTopology(
        ClusterPlatform(
            num_nodes=4,
            flops=100.0,
            link_bandwidth=10.0,
            link_latency=0.0,
            backbone_bandwidth=100.0,
        )
    )


class TestFlowMapping:
    """How the oracle lowers byte matrices to flows."""

    def test_comm_matrix_to_flows_skips_zero_and_intra_host(self):
        B = np.array([[0.0, 5.0], [3.0, 0.0]])
        flows = comm_matrix_to_flows(B, [0, 0])
        assert flows == []  # both ranks on host 0
        flows = comm_matrix_to_flows(B, [0, 1])
        assert sorted(flows) == [(0, 1, 5.0), (1, 0, 3.0)]

    def test_comm_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            comm_matrix_to_flows(np.zeros((2, 3)), [0, 1])

    def test_redistribution_flows(self):
        M = np.array([[4.0, 0.0], [0.0, 6.0]])
        flows = redistribution_flows(M, [0, 1], [2, 1])
        # (1 -> 1) is intra-host and dropped.
        assert flows == [(0, 2, 4.0)]

    def test_redistribution_shape_checked(self):
        with pytest.raises(ValueError):
            redistribution_flows(np.zeros((2, 2)), [0], [1, 2])


class TestPtaskDurations:
    def test_compute_bound_duration(self, topo):
        # 2 hosts x 300 flops at 100 flop/s => 3 s.
        spec = ParallelTaskSpec(name="t", comp={0: 300.0, 1: 300.0})
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == pytest.approx(3.0)

    def test_slowest_processor_bounds_the_task(self, topo):
        spec = ParallelTaskSpec(name="t", comp={0: 100.0, 1: 500.0})
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == pytest.approx(5.0)

    def test_communication_bound_duration(self, topo):
        # 50 bytes over a 10 B/s link => 5 s.
        spec = ParallelTaskSpec(name="t", flows=[(0, 1, 50.0)])
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == pytest.approx(5.0)

    def test_max_of_compute_and_comm(self, topo):
        spec = ParallelTaskSpec(
            name="t", comp={0: 800.0}, flows=[(0, 1, 20.0)]
        )
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == pytest.approx(8.0)  # compute dominates

    def test_extra_latency_prepended(self, topo):
        spec = ParallelTaskSpec(name="t", comp={0: 100.0}, extra_latency=2.0)
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == pytest.approx(3.0)

    def test_route_latency_included(self):
        topo = NetworkTopology(
            ClusterPlatform(
                num_nodes=2,
                flops=100.0,
                link_bandwidth=10.0,
                link_latency=0.5,
            )
        )
        spec = ParallelTaskSpec(name="t", flows=[(0, 1, 10.0)])
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == pytest.approx(1.0 + 1.0)  # 2*0.5 latency + 1 s

    def test_empty_task_completes_instantly(self, topo):
        spec = ParallelTaskSpec(name="t")
        assert spec.is_empty
        eng = SimulationEngine()
        eng.add_action(build_ptask_action(topo, spec))
        assert eng.run() == 0.0

    def test_two_redistributions_contend_on_shared_link(self, topo):
        # Both flows leave host 0: its uplink (10 B/s) is shared.
        eng = SimulationEngine()
        eng.add_action(
            build_ptask_action(
                topo, ParallelTaskSpec(name="a", flows=[(0, 1, 50.0)])
            )
        )
        eng.add_action(
            build_ptask_action(
                topo, ParallelTaskSpec(name="b", flows=[(0, 2, 50.0)])
            )
        )
        assert eng.run() == pytest.approx(10.0)  # halved bandwidth each

    def test_disjoint_transfers_do_not_contend(self, topo):
        eng = SimulationEngine()
        eng.add_action(
            build_ptask_action(
                topo, ParallelTaskSpec(name="a", flows=[(0, 1, 50.0)])
            )
        )
        eng.add_action(
            build_ptask_action(
                topo, ParallelTaskSpec(name="b", flows=[(2, 3, 50.0)])
            )
        )
        assert eng.run() == pytest.approx(5.0)


class TestValidation:
    """The oracle refuses negative inputs, so a property test cannot
    compare the fused builder with a malformed flow list."""

    def test_negative_computation_rejected(self, topo):
        spec = ParallelTaskSpec(name="t", comp={0: -1.0})
        with pytest.raises(SimulationError):
            build_ptask_action(topo, spec)

    def test_negative_flow_rejected(self, topo):
        spec = ParallelTaskSpec(name="t", flows=[(0, 1, -5.0)])
        with pytest.raises(SimulationError):
            build_ptask_action(topo, spec)

    def test_negative_latency_rejected(self, topo):
        spec = ParallelTaskSpec(name="t", extra_latency=-1.0)
        with pytest.raises(SimulationError):
            build_ptask_action(topo, spec)


# ----------------------------------------------------------------------
# The fused builders against the flow-list oracle
# ----------------------------------------------------------------------
_ORACLE_NODES = 8
_ORACLE_PLATFORM = ClusterPlatform(
    num_nodes=_ORACLE_NODES,
    flops=100.0,
    link_bandwidth=10.0,
    link_latency=0.25,
    backbone_bandwidth=40.0,
)
_ORACLE_TOPO = NetworkTopology(_ORACLE_PLATFORM)

_weights = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e12))


@st.composite
def _host_tuple(draw, p):
    """``p`` distinct hosts of the oracle platform, in any order."""
    return tuple(draw(st.permutations(range(_ORACLE_NODES)))[:p])


@st.composite
def _comp(draw):
    hosts = draw(st.lists(st.integers(0, _ORACLE_NODES - 1), unique=True))
    return {h: draw(_weights) for h in hosts}


def _assert_same_action(fused, oracle):
    # Resources key by identity, so this compares each resource's
    # weight exactly, whatever the insertion order.
    assert fused.consumption == oracle.consumption
    assert fused.latency_left == oracle.latency_left
    assert fused.remaining == oracle.remaining


def _oracle(comp, flows, latency):
    return build_ptask_action(
        _ORACLE_TOPO,
        ParallelTaskSpec(name="oracle", comp=comp, flows=flows,
                         extra_latency=latency),
    )


def _volume(oracle_action):
    return oracle_action.consumption.get(_ORACLE_TOPO.backbone, 0.0)


class TestFusedBuilderMatchesFlowList:
    """``build_totals_ptask`` over ``matrix_network_totals`` and over
    the edge totals of a :class:`ScheduleLowering` claims float
    identity with ``build_ptask_action`` over the same matrix's flow
    list."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3000),
        p_src=st.integers(1, _ORACLE_NODES),
        p_dst=st.integers(1, _ORACLE_NODES),
        comp=_comp(),
        latency=st.floats(0.0, 10.0),
        data=st.data(),
    )
    def test_redistribution(self, n, p_src, p_dst, comp, latency, data):
        src = data.draw(_host_tuple(p_src), label="src_hosts")
        dst = data.draw(_host_tuple(p_dst), label="dst_hosts")
        oracle = _oracle(
            comp,
            redistribution_flows(redistribution_matrix(n, p_src, p_dst),
                                 src, dst),
            latency,
        )
        rows = redistribution_matrix_rows(n, p_src, p_dst)
        fused = build_totals_ptask(
            _ORACLE_TOPO, "fused", comp,
            matrix_network_totals(rows, src, dst), extra_latency=latency,
        )
        _assert_same_action(fused, oracle)

        # The same edge, lowered from a two-task schedule.
        graph = TaskGraph(name="edge")
        graph.add_task(Task(task_id=0, kernel=MATMUL, n=n))
        graph.add_task(Task(task_id=1, kernel=MATADD, n=n))
        graph.add_edge(0, 1)
        schedule = Schedule(
            {0: Placement(0, src), 1: Placement(1, dst)}, [0, 1]
        )
        totals = (
            ScheduleLowering(graph, schedule)
            .layout(_ORACLE_PLATFORM)
            .edge_totals[(0, 1)]
        )
        assert totals == matrix_network_totals(rows, src, dst)
        lowered = build_totals_ptask(
            _ORACLE_TOPO, "lowered", comp, totals, extra_latency=latency
        )
        _assert_same_action(lowered, oracle)
        # The simulator records the backbone total as the edge's volume.
        assert totals[2] == _volume(oracle)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(1, _ORACLE_NODES),
        comp=_comp(),
        latency=st.floats(0.0, 10.0),
        data=st.data(),
    )
    def test_task_comm_matrix(self, p, comp, latency, data):
        hosts = data.draw(_host_tuple(p), label="hosts")
        matrix = data.draw(
            st.lists(st.lists(_weights, min_size=p, max_size=p),
                     min_size=p, max_size=p),
            label="matrix",
        )
        oracle = _oracle(
            comp, comm_matrix_to_flows(np.array(matrix), hosts), latency
        )
        fused = build_totals_ptask(
            _ORACLE_TOPO, "fused", comp,
            matrix_network_totals(matrix, hosts, hosts),
            extra_latency=latency,
        )
        _assert_same_action(fused, oracle)
