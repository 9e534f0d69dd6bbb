"""Memoised ground-truth means: the same constants, drawn once.

``GroundTruthKernels.mean_time`` and the two ``mean_overhead`` methods
keep a per-instance table of the means they have computed.  A lookup
must return bit for bit what the unmemoised body computes, whatever
the fill order; invalid arguments raise on every call and are never
stored; and the table stays invisible to equality, ``repr`` and the
cache fingerprints.  The study test counts structural draws, so a
removed or bypassed table fails it without timing anything.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.keys import canonical_bytes, emulator_fingerprint
from repro.experiments.runner import run_study
from repro.testbed import noise
from repro.testbed.jvm import JvmStartupGroundTruth
from repro.testbed.kernels_rt import SIZE_MAX, SIZE_MIN, GroundTruthKernels
from repro.testbed.subnet import SubnetManagerGroundTruth
from repro.testbed.tgrid import TGridEmulator
from repro.util.errors import SimulationError

seeds = st.integers(min_value=0, max_value=2**64 - 1)
counts = st.integers(min_value=1, max_value=64)
kernel_args = st.tuples(
    st.sampled_from(["matmul", "matadd"]),
    st.integers(min_value=SIZE_MIN, max_value=SIZE_MAX),
    counts,
)


def _filled():
    """One instance of each ground truth, with a few means drawn."""
    kernels = GroundTruthKernels(seed=9)
    kernels.mean_time("matmul", 3000, 16)
    kernels.mean_time("matadd", 2500, 3)
    jvm = JvmStartupGroundTruth(seed=9)
    jvm.mean_overhead(8)
    subnet = SubnetManagerGroundTruth(seed=9)
    subnet.mean_overhead(4, 12)
    return kernels, jvm, subnet


class TestBitIdentity:
    """Every call, first or repeated, equals the unmemoised body."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, calls=st.lists(kernel_args, min_size=1, max_size=12))
    def test_mean_time(self, seed, calls):
        memo = GroundTruthKernels(seed=seed)
        for args in calls + calls[::-1]:
            expected = GroundTruthKernels(seed=seed)._mean_time(*args)
            assert memo.mean_time(*args) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, calls=st.lists(counts, min_size=1, max_size=12))
    def test_jvm_mean_overhead(self, seed, calls):
        memo = JvmStartupGroundTruth(seed=seed)
        for p in calls + calls[::-1]:
            expected = JvmStartupGroundTruth(seed=seed)._mean_overhead(p)
            assert memo.mean_overhead(p) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        seed=seeds,
        calls=st.lists(st.tuples(counts, counts), min_size=1, max_size=12),
    )
    def test_subnet_mean_overhead(self, seed, calls):
        memo = SubnetManagerGroundTruth(seed=seed)
        for pair in calls + calls[::-1]:
            fresh = SubnetManagerGroundTruth(seed=seed)
            assert memo.mean_overhead(*pair) == fresh._mean_overhead(*pair)


class TestInvalidArguments:
    """A rejected argument raises every time and leaves the table empty."""

    @pytest.mark.parametrize("args, error", [
        (("matmul", 2000, 0), ValueError),
        (("fft", 2000, 4), SimulationError),
        (("matmul", SIZE_MIN - 1, 4), SimulationError),
        (("matadd", SIZE_MAX + 1, 4), SimulationError),
    ])
    def test_kernels(self, args, error):
        kernels = GroundTruthKernels(seed=0)
        for _ in range(2):
            with pytest.raises(error):
                kernels.mean_time(*args)
        assert kernels._means == {}

    @pytest.mark.parametrize("p", [0, -3])
    def test_jvm(self, p):
        jvm = JvmStartupGroundTruth(seed=0)
        for _ in range(2):
            with pytest.raises(ValueError):
                jvm.mean_overhead(p)
        assert jvm._means == {}

    @pytest.mark.parametrize("pair", [(0, 4), (4, 0), (-1, -1)])
    def test_subnet(self, pair):
        subnet = SubnetManagerGroundTruth(seed=0)
        for _ in range(2):
            with pytest.raises(ValueError):
                subnet.mean_overhead(*pair)
        assert subnet._means == {}


class TestArgumentTypes:
    """Keys are plain ints: numpy ints share them, floats are refused."""

    def test_numpy_ints_draw_the_int_constant(self):
        kernels, jvm, subnet = (
            GroundTruthKernels(seed=3),
            JvmStartupGroundTruth(seed=3),
            SubnetManagerGroundTruth(seed=3),
        )
        i = np.int64
        # numpy first, so the entry is created from numpy arguments.
        assert kernels.mean_time("matmul", i(2000), i(4)) == (
            GroundTruthKernels(seed=3).mean_time("matmul", 2000, 4)
        )
        assert jvm.mean_overhead(i(5)) == (
            JvmStartupGroundTruth(seed=3).mean_overhead(5)
        )
        assert subnet.mean_overhead(i(2), i(7)) == (
            SubnetManagerGroundTruth(seed=3).mean_overhead(2, 7)
        )
        for table in (kernels._means, jvm._means, subnet._means):
            (key,) = table
            parts = key if isinstance(key, tuple) else (key,)
            assert all(type(x) in (str, int) for x in parts)

    def test_float_counts_are_refused(self):
        kernels, jvm, subnet = (
            GroundTruthKernels(seed=3),
            JvmStartupGroundTruth(seed=3),
            SubnetManagerGroundTruth(seed=3),
        )
        with pytest.raises(TypeError):
            kernels.mean_time("matmul", 2000, 4.0)
        with pytest.raises(TypeError):
            kernels.mean_time("matmul", 2000.0, 4)
        with pytest.raises(TypeError):
            jvm.mean_overhead(4.0)
        with pytest.raises(TypeError):
            subnet.mean_overhead(4.0, 2)
        with pytest.raises(TypeError):
            subnet.mean_overhead(2, 4.0)
        assert kernels._means == jvm._means == subnet._means == {}


class TestTableIsNotState:
    """The table is no field: it never shows, and only copies carry it."""

    def test_filling_changes_nothing_observable(self, platform):
        emu = TGridEmulator(platform, seed=5)
        owners = (emu.kernels, emu.jvm, emu.subnet)

        def observe():
            return (
                [dataclasses.fields(o) for o in owners],
                [repr(o) for o in owners],
                [canonical_bytes(o) for o in owners],
                canonical_bytes(emulator_fingerprint(emu)),
            )

        before = observe()
        emu.measure_kernel("matmul", 3000, 8)
        emu.measure_startup(4, trials=2)
        emu.measure_redistribution_overhead(3, 6)
        assert all(o._means for o in owners)
        assert observe() == before
        fresh = TGridEmulator(platform, seed=5)
        fresh_owners = (fresh.kernels, fresh.jvm, fresh.subnet)
        assert fresh_owners == owners
        assert not any(o._means for o in fresh_owners)

    @pytest.mark.parametrize(
        "clone",
        [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip_keeps_the_values(self, clone):
        for original in _filled():
            twin = clone(original)
            assert twin == original
            assert twin._means == original._means
            assert twin._means is not original._means

    def test_replace_starts_empty(self):
        for original in _filled():
            variant = dataclasses.replace(original)
            assert variant == original
            assert variant._means == {}


class TestStudyDraws:
    """A study draws each structural constant once, whatever fills it."""

    @pytest.fixture(scope="class")
    def grid(self, study_context):
        ctx = study_context
        dags = ctx.dags[::9]
        suites = [ctx.analytic_suite, ctx.profile_suite, ctx.empirical_suite]
        # ctx.emulator calibrated the suites, so its tables are filled.
        calibrated = run_study(dags, suites, ctx.emulator).records
        return ctx, dags, suites, calibrated

    def test_each_label_path_is_drawn_once(self, grid, monkeypatch):
        ctx, dags, suites, calibrated = grid
        fresh = TGridEmulator(ctx.platform, seed=ctx.seed)
        paths = []
        draw = noise.spawn_rng

        def recording_spawn_rng(seed, *labels):
            paths.append((seed, labels))
            return draw(seed, *labels)

        monkeypatch.setattr(noise, "spawn_rng", recording_spawn_rng)
        records = run_study(dags, suites, fresh).records
        assert paths, "the study drew no structural constant"
        assert len(paths) == len(set(paths))
        assert records == calibrated

    def test_pool_workers_match_the_serial_study(self, grid):
        ctx, dags, suites, calibrated = grid
        # Forked workers inherit the fresh emulator's empty tables and
        # fill their own; the calibrated one's they inherit filled.
        fresh = TGridEmulator(ctx.platform, seed=ctx.seed)
        for emulator in (ctx.emulator, fresh):
            pooled = run_study(dags, suites, emulator, workers=2).records
            assert pooled == calibrated
