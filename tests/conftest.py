"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.dag.generator import DagParameters, generate_dag
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATADD, MATMUL
from repro.experiments.context import StudyContext
from repro.models.analytical import AnalyticalTaskModel
from repro.obs import live
from repro.platform.personalities import bayreuth_cluster
from repro.scheduling.costs import SchedulingCosts
from repro.testbed.tgrid import TGridEmulator


@pytest.fixture(scope="session")
def platform():
    """The paper's 32-node Bayreuth cluster."""
    return bayreuth_cluster()


@pytest.fixture(scope="session")
def emulator(platform):
    """A seeded testbed emulator shared across tests."""
    return TGridEmulator(platform, seed=7)


@pytest.fixture(scope="session")
def study_context():
    """A fully-wired study context (expensive pieces are lazy/cached)."""
    return StudyContext(seed=0)


@pytest.fixture
def small_dag():
    """A deterministic random DAG from the Table I grid."""
    params = DagParameters(
        num_input_matrices=4, add_ratio=0.5, n=2000, sample=0, seed=1
    )
    return generate_dag(params)


@pytest.fixture
def diamond_dag():
    """A hand-built diamond: 0 -> {1, 2} -> 3."""
    g = TaskGraph(name="diamond")
    g.add_task(Task(task_id=0, kernel=MATMUL, n=2000))
    g.add_task(Task(task_id=1, kernel=MATADD, n=2000))
    g.add_task(Task(task_id=2, kernel=MATMUL, n=2000))
    g.add_task(Task(task_id=3, kernel=MATADD, n=2000))
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    return g


@pytest.fixture
def chain_dag():
    """A three-task chain of multiplications."""
    g = TaskGraph(name="chain")
    for i in range(3):
        g.add_task(Task(task_id=i, kernel=MATMUL, n=2000))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


@pytest.fixture
def analytical_costs(small_dag, platform):
    """Analytical scheduling costs for the small DAG."""
    return SchedulingCosts(small_dag, platform, AnalyticalTaskModel(platform))


@pytest.fixture
def fast_heartbeat(monkeypatch):
    """Live telemetry beating every 0.05 s, so a drain thread ticks and
    closes promptly; pool workers forked under it inherit the beat."""
    monkeypatch.setattr(live, "HEARTBEAT_S", 0.05)
