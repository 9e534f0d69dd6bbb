"""The TGrid testbed emulator — the reproduction's "real cluster".

:class:`TGridEmulator` plays the role of the physical Bayreuth cluster
plus the TGrid runtime.  It executes schedules with the same execution
discipline as the simulator (so the comparison isolates *model* error,
exactly like the paper's methodology) but with the environment's true
behaviour:

* kernel times from the generative ground-truth curves of
  :mod:`repro.testbed.kernels_rt` (fluctuation + outliers + noise);
* JVM/SSH startup overhead per task (:mod:`repro.testbed.jvm`);
* subnet-manager overhead per redistribution
  (:mod:`repro.testbed.subnet`);
* data transfers over the real network, which only achieves a fraction
  of nominal Gigabit bandwidth (TCP/IP + MPIJava serialisation);
* lognormal per-execution noise everywhere.

It also exposes the microbenchmark hooks the profiling harness drives
(Sections VI-A/B/C): timing one kernel, one no-op task startup, one
empty-matrix redistribution.  The profile and empirical simulators are
calibrated exclusively through these hooks — they never see the
generative curves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.dag.graph import Task, TaskGraph
from repro.models.base import ModelKind, TaskTimeModel
from repro.models.overheads import RedistributionOverheadModel, StartupOverheadModel
from repro.obs.recorder import get_recorder
from repro.platform.cluster import ClusterPlatform
from repro.scheduling.schedule import Schedule
from repro.simgrid.resources import NetworkTopology
from repro.simgrid.simulator import (
    ApplicationSimulator,
    ScheduleLowering,
    SimulationTrace,
)
from repro.testbed.jvm import JvmStartupGroundTruth
from repro.testbed.kernels_rt import GroundTruthKernels
from repro.testbed.noise import lognormal_noise
from repro.testbed.subnet import SubnetManagerGroundTruth
from repro.util.rng import derive_seed, spawn_rng

__all__ = ["TGridEmulator", "DEFAULT_KERNEL_NOISE"]

#: Per-execution kernel-noise log-std by matrix size.
DEFAULT_KERNEL_NOISE = {2000: 0.05, 3000: 0.025}
#: Fallback for sizes outside the paper's grid.
FALLBACK_KERNEL_NOISE = 0.03


class _GroundTruthTaskModel(TaskTimeModel):
    """Adapter: samples the ground-truth kernel time per task execution."""

    name = "ground-truth"

    def __init__(
        self,
        kernels: GroundTruthKernels,
        rng: np.random.Generator,
        sigma_of_n,
        scale: float = 1.0,
    ) -> None:
        self._kernels = kernels
        self._rng = rng
        self._sigma_of_n = sigma_of_n
        self._scale = scale

    @property
    def kind(self) -> ModelKind:
        return ModelKind.MEASURED

    def duration(self, task: Task, p: int) -> float:
        mean = self._kernels.mean_time(task.kernel.name, task.n, p)
        return self._scale * mean * lognormal_noise(
            self._rng, self._sigma_of_n(task.n)
        )


class _GroundTruthStartup(StartupOverheadModel):
    name = "ground-truth-startup"

    def __init__(
        self,
        jvm: JvmStartupGroundTruth,
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> None:
        self._jvm = jvm
        self._rng = rng
        self._scale = scale

    def startup(self, p: int) -> float:
        self._check(p)
        return self._scale * self._jvm.sample(p, self._rng)


class _GroundTruthRedistribution(RedistributionOverheadModel):
    name = "ground-truth-redistribution"

    def __init__(
        self,
        subnet: SubnetManagerGroundTruth,
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> None:
        self._subnet = subnet
        self._rng = rng
        self._scale = scale

    def overhead(self, p_src: int, p_dst: int) -> float:
        self._check(p_src, p_dst)
        return self._scale * self._subnet.sample(p_src, p_dst, self._rng)


@dataclass
class TGridEmulator:
    """The emulated cluster + TGrid runtime.

    Parameters
    ----------
    platform:
        Nominal platform description (what the simulator also sees).
    seed:
        Environment seed: fixes fluctuation patterns and all noise
        streams.
    bandwidth_efficiency:
        Fraction of nominal link bandwidth the runtime actually achieves
        for redistribution payloads (TCP + serialisation overhead).
    kernel_noise_sigma:
        Log-std of per-execution kernel time noise, keyed by matrix
        size.  Short tasks are proportionally noisier (JIT warm-up, GC
        pauses amortise less), which is part of why the paper's n = 2000
        comparisons were harder to predict.  Sizes missing from the dict
        fall back to :data:`FALLBACK_KERNEL_NOISE`.
    with_outliers / with_noise:
        Ablation switches (disable the Fig 6 outliers or all stochastic
        noise).
    """

    platform: ClusterPlatform
    seed: int = 0
    bandwidth_efficiency: float = 0.8
    kernel_noise_sigma: dict[int, float] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_KERNEL_NOISE)
    )
    with_outliers: bool = True
    with_noise: bool = True
    #: Hypothetical-machine scaling knobs (paper conclusion: models
    #: "could be instantiated for an existing execution environment and
    #: scaled to simulate an hypothetical execution environment").
    #: kernel_time_scale = 0.5 emulates nodes twice as fast; the
    #: overhead scales cover a faster runtime (newer JVM, better subnet
    #: manager).  All default to 1 (the measured Bayreuth machine).
    kernel_time_scale: float = 1.0
    startup_scale: float = 1.0
    redistribution_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.bandwidth_efficiency <= 1.0):
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        for attr in ("kernel_time_scale", "startup_scale", "redistribution_scale"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        env_seed = derive_seed(self.seed, "testbed", self.platform.name)
        # Each ground-truth object memoises its means, so every execution
        # and microbenchmark of this emulator shares one draw per constant.
        self.kernels = GroundTruthKernels(
            seed=env_seed, with_outliers=self.with_outliers
        )
        noise_off = 0.0
        self.jvm = JvmStartupGroundTruth(
            seed=env_seed,
            noise_sigma=0.06 if self.with_noise else noise_off,
        )
        self.subnet = SubnetManagerGroundTruth(
            seed=env_seed,
            noise_sigma=0.08 if self.with_noise else noise_off,
        )
        self._env_seed = env_seed
        # The network as the application experiences it.
        self.effective_platform = dataclasses.replace(
            self.platform,
            link_bandwidth=self.platform.link_bandwidth * self.bandwidth_efficiency,
            backbone_bandwidth=(
                self.platform.backbone_bandwidth * self.bandwidth_efficiency
            ),
        )
        # Built on the first execution and shared by all of them, like
        # a simulator's topology; derived from the fields, so it is no
        # field itself.
        self._topology: NetworkTopology | None = None

    # ------------------------------------------------------------------
    # schedule execution ("running the experiment")
    # ------------------------------------------------------------------
    def execute(
        self,
        graph: TaskGraph,
        schedule: Schedule,
        run_label: object = 0,
        *,
        lowering: ScheduleLowering | None = None,
    ) -> SimulationTrace:
        """Execute a schedule on the emulated cluster.

        Deterministic for identical ``(graph, schedule, run_label)``;
        vary ``run_label`` to emulate repeated real-world runs.
        ``lowering`` shares the pair's lowering with other runs of it
        (see :meth:`ApplicationSimulator.run`).
        """
        rng = spawn_rng(
            self._env_seed, "execute", graph.name, schedule.algorithm, run_label
        )
        topology = self._topology
        if topology is None:
            topology = self._topology = NetworkTopology(self.effective_platform)
        executor = ApplicationSimulator(
            self.effective_platform,
            _GroundTruthTaskModel(
                self.kernels, rng, self._kernel_sigma, self.kernel_time_scale
            ),
            startup_model=_GroundTruthStartup(self.jvm, rng, self.startup_scale),
            redistribution_model=_GroundTruthRedistribution(
                self.subnet, rng, self.redistribution_scale
            ),
            topology=topology,
        )
        obs = get_recorder()
        if obs.enabled:
            obs.count("testbed.executions")
        tl = obs.timeline if obs.enabled else None
        with obs.span(
            "testbed.execute", dag=graph.name, algorithm=schedule.algorithm
        ):
            if tl is None:
                return executor.run(graph, schedule, lowering=lowering)
            # Tag the emulated run's timeline as the experiment side, so
            # `repro diff` can pair it against (or apart from) pure-sim
            # runs of the same cell.
            with tl.context(role="experiment"):
                return executor.run(graph, schedule, lowering=lowering)

    def makespan(
        self, graph: TaskGraph, schedule: Schedule, run_label: object = 0
    ) -> float:
        """Convenience: the experimental makespan of one run."""
        return self.execute(graph, schedule, run_label).makespan

    def _kernel_sigma(self, n: int) -> float:
        """Per-execution kernel-noise log-std for matrix size ``n``."""
        if not self.with_noise:
            return 0.0
        return self.kernel_noise_sigma.get(n, FALLBACK_KERNEL_NOISE)

    # ------------------------------------------------------------------
    # microbenchmark hooks (what the profiler drives)
    # ------------------------------------------------------------------
    def measure_kernel(
        self, kernel_name: str, n: int, p: int, trials: int = 1
    ) -> list[float]:
        """Time ``trials`` standalone executions of a kernel (seconds)."""
        if trials < 1:
            raise ValueError("trials must be >= 1")
        obs = get_recorder()
        if obs.enabled:
            obs.count("testbed.bench_kernel_trials", trials)
        sigma = self._kernel_sigma(n)
        rng = spawn_rng(self._env_seed, "bench-kernel", kernel_name, n, p)
        mean = self.kernel_time_scale * self.kernels.mean_time(kernel_name, n, p)
        return [mean * lognormal_noise(rng, sigma) for _ in range(trials)]

    def measure_startup(self, p: int, trials: int = 20) -> list[float]:
        """Time ``trials`` no-op task startups on ``p`` processors.

        Mirrors the paper's measurement: "the execution time of an
        application that consists of p no-op processes", 20 trials.
        """
        if trials < 1:
            raise ValueError("trials must be >= 1")
        obs = get_recorder()
        if obs.enabled:
            obs.count("testbed.bench_startup_trials", trials)
        rng = spawn_rng(self._env_seed, "bench-startup", p)
        return [self.startup_scale * self.jvm.sample(p, rng) for _ in range(trials)]

    def measure_redistribution_overhead(
        self, p_src: int, p_dst: int, trials: int = 3
    ) -> list[float]:
        """Time ``trials`` near-empty redistributions (paper: 3 trials).

        The measured quantity is the protocol overhead: the payload is a
        mostly-empty matrix whose transfer time is negligible, but every
        processor sends at least one byte so the full protocol runs.
        """
        if trials < 1:
            raise ValueError("trials must be >= 1")
        obs = get_recorder()
        if obs.enabled:
            obs.count("testbed.bench_redistribution_trials", trials)
        rng = spawn_rng(self._env_seed, "bench-redist", p_src, p_dst)
        return [
            self.redistribution_scale * self.subnet.sample(p_src, p_dst, rng)
            for _ in range(trials)
        ]
