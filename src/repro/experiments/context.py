"""StudyContext: one fully-wired instance of the whole case study.

Bundles the platform, the testbed emulator, the 54 Table I DAGs and the
three calibrated simulator suites, computing each lazily and caching it,
so the per-figure reproduction functions (and the benchmarks) can share
expensive calibration work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

from repro.cache.result_cache import ResultCache
from repro.dag.generator import DagParameters, generate_paper_dags
from repro.dag.graph import TaskGraph
from repro.experiments.runner import StudyResult, run_study
from repro.platform.cluster import ClusterPlatform
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import (
    SimulatorSuite,
    build_analytical_suite,
    build_empirical_suite,
    build_profile_suite,
)
from repro.testbed.tgrid import TGridEmulator

__all__ = ["StudyContext"]


@dataclass
class StudyContext:
    """Lazily-calibrated bundle of everything the study needs.

    Parameters
    ----------
    seed:
        Root seed of DAG generation and the testbed environment.
    num_nodes:
        Cluster size (the paper's N = 32).
    kernel_trials / startup_trials / redistribution_trials:
        Measurement repetitions used during calibration (paper: 3 / 20 / 3).
    workers:
        Process-pool size for study sweeps (1 = in process, the
        default).  Pooled sweeps produce record-for-record identical
        results — see :func:`repro.experiments.runner.run_study`.
    cache_dir:
        Optional directory of the persistent content-addressed result
        cache.  When set, calibrated suites and study cells are
        memoised on disk and warm study re-runs replay unchanged cells
        bit-identically — see :mod:`repro.cache`.
    telemetry:
        Optional :class:`repro.obs.live.LiveTelemetry` bus attached to
        every study sweep (the ``--progress`` / ``--live-out`` CLI
        flags).  Strictly observational: results and recorded metrics
        are bit-identical with or without it.
    """

    seed: int = 0
    num_nodes: int = 32
    kernel_trials: int = 3
    startup_trials: int = 20
    redistribution_trials: int = 3
    workers: int = 1
    cache_dir: str | Path | None = None
    telemetry: object | None = None
    _studies: dict[tuple[str, ...], StudyResult] = field(
        default_factory=dict, repr=False
    )

    @cached_property
    def cache(self) -> ResultCache | None:
        """The persistent result cache (None when ``cache_dir`` unset)."""
        if self.cache_dir is None:
            return None
        return ResultCache(self.cache_dir)

    @cached_property
    def platform(self) -> ClusterPlatform:
        return bayreuth_cluster(self.num_nodes)

    @cached_property
    def emulator(self) -> TGridEmulator:
        return TGridEmulator(self.platform, seed=self.seed)

    @cached_property
    def dags(self) -> list[tuple[DagParameters, TaskGraph]]:
        """The 54 DAGs of Table I."""
        return generate_paper_dags(seed=self.seed)

    # ------------------------------------------------------------------
    # simulator suites
    # ------------------------------------------------------------------
    @cached_property
    def analytic_suite(self) -> SimulatorSuite:
        return build_analytical_suite(self.platform)

    @cached_property
    def profile_suite(self) -> SimulatorSuite:
        return build_profile_suite(
            self.emulator,
            kernel_trials=self.kernel_trials,
            startup_trials=self.startup_trials,
            redistribution_trials=self.redistribution_trials,
            cache=self.cache,
        )

    @cached_property
    def empirical_suite(self) -> SimulatorSuite:
        return build_empirical_suite(
            self.emulator,
            kernel_trials=self.kernel_trials,
            startup_trials=self.startup_trials,
            redistribution_trials=self.redistribution_trials,
            cache=self.cache,
        )

    def suite(self, name: str) -> SimulatorSuite:
        # Dispatch through thunks: a dict of attribute reads would
        # evaluate (and calibrate) all three cached suites just to
        # return one — the observability traces caught exactly that.
        try:
            builder = {
                "analytic": lambda: self.analytic_suite,
                "profile": lambda: self.profile_suite,
                "empirical": lambda: self.empirical_suite,
            }[name]
        except KeyError:
            raise ValueError(
                f"unknown simulator suite {name!r}; "
                "choose analytic, profile or empirical"
            ) from None
        return builder()

    # ------------------------------------------------------------------
    # studies
    # ------------------------------------------------------------------
    def study(self, *suite_names: str) -> StudyResult:
        """Run (or return the cached) study for the named simulators.

        Studies are cached per suite, so ``study("analytic")`` followed
        by ``full_study()`` only runs the analytic sweep once.
        """
        names = tuple(sorted(set(suite_names))) or ("analytic",)
        merged = StudyResult()
        for name in names:
            key = (name,)
            cached = self._studies.get(key)
            if cached is None:
                cached = run_study(
                    self.dags,
                    [self.suite(name)],
                    self.emulator,
                    workers=self.workers,
                    cache=self.cache,
                    telemetry=self.telemetry,
                )
                self._studies[key] = cached
            merged.records.extend(cached.records)
        # Merged provenance: same seed/platform for every sub-study, so
        # re-collect with the union of suite names.
        from repro.obs.manifest import RunManifest
        from repro.obs.recorder import get_recorder

        rec = get_recorder()
        merged.manifest = RunManifest.collect(
            seed=self.seed,
            cluster=self.platform,
            simulators=list(names),
            algorithms=sorted(
                {r.algorithm for r in merged.records}
            ),
            num_records=len(merged.records),
            recorder=rec if rec.enabled else None,
        )
        return merged

    def full_study(self) -> StudyResult:
        """All three simulators over all 54 DAGs (Fig 8's input)."""
        return self.study("analytic", "profile", "empirical")
