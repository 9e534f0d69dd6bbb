"""Reproducible stochastic helpers for the testbed.

Two kinds of variation model what the paper observed:

* **structural fluctuation** — a deterministic, pattern-less deviation
  per (kernel, n, p): real Java kernels are "sensitive to number of
  processors and the size of the matrices" in ways no analytical model
  captures.  This is a fixed property of the environment, so it is a
  hash-derived constant, identical across runs and across testbed
  instances sharing a seed;
* **execution noise** — lognormal multiplicative noise per execution,
  modelling run-to-run variation (JIT, OS jitter, network).

Each structural draw derives a seed and builds a fresh generator, which
costs far more than the arithmetic around it.  The ground-truth objects
that own these constants
(:class:`~repro.testbed.kernels_rt.GroundTruthKernels`,
:class:`~repro.testbed.jvm.JvmStartupGroundTruth`,
:class:`~repro.testbed.subnet.SubnetManagerGroundTruth`) therefore keep
a per-instance table of the means they have computed.
:func:`structural_uniform` itself stays uncached on purpose: a module
memo would outlive every emulator, so one study would replay draws made
for an earlier one instead of paying for its own.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import derive_seed, spawn_rng

__all__ = ["structural_factor", "structural_uniform", "lognormal_noise"]


def structural_uniform(seed: int, *labels: object) -> float:
    """Deterministic draw in ``(-1, 1)`` for a label path.

    The same (seed, labels) always yields the same value; different
    labels are independent.
    """
    return float(spawn_rng(seed, "structural", *labels).uniform(-1.0, 1.0))


def structural_factor(seed: int, amplitude: float, *labels: object) -> float:
    """Deterministic multiplicative factor in ``[1-amplitude, 1+amplitude]``.

    Uniformly distributed over the label space; the same (seed, labels)
    always yields the same factor.
    """
    if not (0.0 <= amplitude < 1.0):
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    return 1.0 + amplitude * structural_uniform(seed, *labels)


def lognormal_noise(rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative noise with median 1 and log-std ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return 1.0
    return float(np.exp(rng.normal(0.0, sigma)))
