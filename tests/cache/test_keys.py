"""Canonical cache keys: stability and sensitivity properties.

The cache is only correct if the key hash is *stable* under
representation details (dict insertion order, float formatting) and
*sensitive* to every semantically meaningful change (a DAG edge, a
platform, a fitted model coefficient).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import (
    CacheKeyError,
    StudyKeys,
    canonical_bytes,
    canonical_hash,
    dag_fingerprint,
    emulator_fingerprint,
    encoded_fingerprint,
    simulator_fingerprint,
)
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATADD, MATMUL
from repro.models.analytical import AnalyticalTaskModel
from repro.models.profiles import ProfileTaskModel
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import SimulatorSuite, build_analytical_suite
from repro.simgrid.simulator import ApplicationSimulator
from repro.testbed.tgrid import TGridEmulator

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
_plain_data = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def _reorder(obj):
    """Same value, different container insertion order."""
    if isinstance(obj, dict):
        return {k: _reorder(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reorder(v) for v in obj]
    return obj


class TestStability:
    @given(obj=_plain_data)
    @settings(max_examples=100, deadline=None)
    def test_dict_insertion_order_never_matters(self, obj):
        assert canonical_bytes(_reorder(obj)) == canonical_bytes(obj)

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        fmt=st.sampled_from(["{!r}", "{:.17e}", "{:+.20g}"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_formatting_never_matters(self, x, fmt):
        # Any textual rendering that parses back to the same IEEE-754
        # value must hash identically.
        reparsed = float(fmt.format(x))
        assert reparsed == x
        assert canonical_hash(reparsed) == canonical_hash(x)

    @given(
        x=st.floats(
            allow_nan=False, allow_infinity=False, max_value=1e300
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_adjacent_floats_differ(self, x):
        neighbour = np.nextafter(x, np.inf)
        assert canonical_hash(float(neighbour)) != canonical_hash(x)

    def test_encoding_is_pinned(self):
        # Entries on disk are addressed by these hashes: an encoding
        # change orphans every existing cache unless the schema
        # version is bumped with it.
        key = {
            "algorithm": "hcpa",
            "dag": {
                "name": "d",
                "tasks": [(0, "matmul", 2000, "")],
                "edges": [(0, 1)],
            },
            "mixed": [1.5, None, True, False, b"b", -3, {2, 1}],
        }
        assert canonical_hash(key) == (
            "a82b7fefa0f5eadfc54b4f8b38548b24780e425938cc3fee8b471f2c6f2148db"
        )

    def test_numpy_scalars_hash_like_python_scalars(self):
        assert canonical_hash(np.float64(1.5)) == canonical_hash(1.5)
        assert canonical_hash(np.int64(7)) == canonical_hash(7)
        assert canonical_hash(np.array([1.0, 2.0])) == canonical_hash(
            np.array([1.0, 2.0])
        )


class TestSensitivity:
    def test_types_never_collide(self):
        hashes = {canonical_hash(v) for v in (1, 1.0, "1", True, b"1", None)}
        assert len(hashes) == 6

    def test_structure_never_collides_by_concatenation(self):
        assert canonical_hash(["ab"]) != canonical_hash(["a", "b"])
        assert canonical_hash([["a"], "b"]) != canonical_hash(["a", ["b"]])
        assert canonical_hash({"a": "b"}) != canonical_hash(["a", "b"])

    @given(obj=_plain_data, other=_plain_data)
    @settings(max_examples=50, deadline=None)
    def test_unequal_values_hash_differently(self, obj, other):
        if obj != other:
            assert canonical_hash(obj) != canonical_hash(other)


class TestFragments:
    @given(obj=_plain_data)
    @settings(max_examples=100, deadline=None)
    def test_fragment_encodes_like_its_value(self, obj):
        fragment = encoded_fingerprint(obj)
        assert canonical_bytes(fragment) == canonical_bytes(obj)
        assert canonical_bytes({"key": fragment}) == canonical_bytes(
            {"key": obj}
        )
        assert canonical_bytes(["item", fragment]) == canonical_bytes(
            ["item", obj]
        )

    def test_fragment_is_immutable(self):
        fragment = encoded_fingerprint({"a": 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            fragment.data = b""

    def test_study_keys_default_missing_models_like_the_cell_path(self):
        # A suite without overhead models schedules and simulates under
        # zero models; its study key must hash like the cell key built
        # from the ApplicationSimulator the cell runs.
        platform = bayreuth_cluster(8)
        bare = SimulatorSuite(
            name="bare",
            task_model=AnalyticalTaskModel(platform),
            startup_model=None,
            redistribution_model=None,
        )
        graph = _diamond()
        emulator = TGridEmulator(platform, seed=0)
        simulator = ApplicationSimulator(platform, bare.task_model)
        keys = StudyKeys(emulator, [bare], [graph])
        assert canonical_hash(keys.cell(0, 0).cell("hcpa")) == (
            canonical_hash(
                {
                    "algorithm": "hcpa",
                    "dag": dag_fingerprint(graph),
                    "simulator": simulator_fingerprint(simulator),
                    "emulator": emulator_fingerprint(emulator),
                    "run_label": 0,
                }
            )
        )


def _diamond(extra_edge=False, n=2000):
    g = TaskGraph(name="diamond")
    g.add_task(Task(task_id=0, kernel=MATMUL, n=n))
    g.add_task(Task(task_id=1, kernel=MATADD, n=n))
    g.add_task(Task(task_id=2, kernel=MATMUL, n=n))
    g.add_task(Task(task_id=3, kernel=MATADD, n=n))
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    if extra_edge:
        g.add_edge(0, 3)
    return g


class TestDomainFingerprints:
    def test_dag_fingerprint_changes_with_an_edge(self):
        base = canonical_hash(dag_fingerprint(_diamond()))
        assert canonical_hash(dag_fingerprint(_diamond())) == base
        assert canonical_hash(dag_fingerprint(_diamond(extra_edge=True))) != base

    def test_dag_fingerprint_changes_with_task_size(self):
        assert canonical_hash(dag_fingerprint(_diamond(n=2000))) != canonical_hash(
            dag_fingerprint(_diamond(n=3000))
        )

    def test_dag_fingerprint_ignores_derived_topo_cache(self):
        warm, cold = _diamond(), _diamond()
        warm.topological_order()  # populate the memoised order
        assert canonical_hash(dag_fingerprint(warm)) == canonical_hash(
            dag_fingerprint(cold)
        )

    def test_simulator_fingerprint_changes_with_platform(self):
        small, large = bayreuth_cluster(16), bayreuth_cluster(32)

        def fingerprint(platform, suite):
            simulator = ApplicationSimulator(
                platform,
                suite.task_model,
                startup_model=suite.startup_model,
                redistribution_model=suite.redistribution_model,
            )
            return canonical_hash(simulator_fingerprint(simulator))

        base = fingerprint(large, build_analytical_suite(large))
        # The platform the simulator runs on ...
        assert fingerprint(small, build_analytical_suite(large)) != base
        # ... and the one its suite's models were built for.
        assert fingerprint(large, build_analytical_suite(small)) != base

    def test_task_model_changes_with_one_table_entry(self):
        table = {("matmul", 2000, 4): 1.25, ("matadd", 2000, 4): 0.5}
        bumped = dict(table)
        bumped[("matmul", 2000, 4)] += 1e-9
        assert canonical_hash(ProfileTaskModel(table)) != canonical_hash(
            ProfileTaskModel(bumped)
        )

    def test_emulator_fingerprint_tracks_seed_and_noise(self):
        platform = bayreuth_cluster(8)
        base = canonical_hash(
            emulator_fingerprint(TGridEmulator(platform, seed=0))
        )
        assert (
            canonical_hash(
                emulator_fingerprint(TGridEmulator(platform, seed=1))
            )
            != base
        )
        assert (
            canonical_hash(
                emulator_fingerprint(
                    TGridEmulator(platform, seed=0, with_noise=False)
                )
            )
            != base
        )


class TestRefusals:
    def test_unencodable_object_is_refused(self):
        with pytest.raises(CacheKeyError, match="cannot canonically encode"):
            canonical_hash(object())

    def test_rng_is_refused(self):
        with pytest.raises(CacheKeyError):
            canonical_hash({"rng": np.random.default_rng(0)})

    def test_cycles_are_refused(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(CacheKeyError, match="cyclic"):
            canonical_hash(loop)
