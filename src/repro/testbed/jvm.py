"""JVM/SSH task startup overhead of the emulated TGrid runtime.

TGrid starts a task by SSH-ing to every allocated node, launching a JVM
and a task container, registering it with the TGrid server and shipping
byte code (paper, Section VI-B).  The measured overhead (Fig 3) lies
between ~0.8 s and ~1.6 s for p = 1..32, grows roughly linearly
(Table II fit: 0.03 p + 0.65) but is *not monotone* — concurrent SSH
handshakes, DNS caches and JVM warm-up interact unpredictably.

The ground truth is therefore the Table II line plus a deterministic
non-monotone wiggle (a fixed property of the environment), and each
execution adds lognormal noise (Fig 3 averages 20 trials per point).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.testbed.noise import lognormal_noise, structural_uniform

__all__ = ["JvmStartupGroundTruth"]

#: Table II regression of the measured startup overhead.
STARTUP_SLOPE = 0.03
STARTUP_INTERCEPT = 0.65


@dataclass(frozen=True)
class JvmStartupGroundTruth:
    """Mean task startup overhead per allocation size.

    Parameters
    ----------
    seed:
        Environment seed; fixes the non-monotone wiggle.
    wiggle:
        Half-width of the deterministic deviation from the linear trend.
    noise_sigma:
        Log-std of the per-execution noise.
    """

    seed: int = 0
    wiggle: float = 0.12
    noise_sigma: float = 0.06

    def __post_init__(self) -> None:
        # Means already drawn, keyed by p.  Not a field, so equality,
        # repr and cache fingerprints never see it.
        object.__setattr__(self, "_means", {})

    def mean_overhead(self, p: int) -> float:
        """Mean startup seconds for a task on ``p`` processors.

        Each ``p`` is computed once per instance; ``p`` must be an
        integer (``operator.index``), so equal counts share one draw.
        """
        p = operator.index(p)
        mean = self._means.get(p)
        if mean is None:
            mean = self._means[p] = self._mean_overhead(p)
        return mean

    def _mean_overhead(self, p: int) -> float:
        """Unmemoised :meth:`mean_overhead`: checks, draws, computes."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        trend = STARTUP_SLOPE * p + STARTUP_INTERCEPT
        deviation = structural_uniform(self.seed, "jvm-startup", p)
        return max(0.05, trend + self.wiggle * deviation)

    def sample(self, p: int, rng: np.random.Generator) -> float:
        """One noisy startup measurement/execution."""
        return self.mean_overhead(p) * lognormal_noise(rng, self.noise_sigma)
