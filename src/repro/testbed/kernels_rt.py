"""Ground-truth kernel execution times of the emulated cluster.

The mean curves are taken from the paper's own Table II — the published
regressions *of the real measurements* — so the testbed reproduces the
measured reality as closely as the paper lets us:

===============  =======================  ==========================
kernel, n        p <= 16                  p > 16
===============  =======================  ==========================
matmul, 2000     239.44 / (2p) + 3.43     0.08 p + d  (d: continuous)
matmul, 3000     537.91 / p - 25.55       -0.09 p + 11.47
matadd, 2000     22.99 / p + 0.03         (same hyperbola)
matadd, 3000     73.59 / p + 0.38         (same hyperbola)
===============  =======================  ==========================

Reconciliation note: the printed linear coefficients for n = 2000
(c = 0.08, d = 1.93) are inconsistent with the hyperbolic branch at the
regime boundary (11 s vs 3 s at p = 16) — almost certainly a typo in the
paper, since the n = 3000 branches *are* continuous at p = 15.  We keep
the printed slope and shift the intercept for continuity at p = 16.

On top of the mean curves the testbed adds what the paper identified as
the sources of analytical-model error (Sections V-C and VII-A):

* a deterministic pattern-less **fluctuation** per (kernel, n, p) —
  "the error fluctuates without clear patterns up to 60 %" (Fig 2);
* the **p = 8 outlier** for n = 3000 (memory-hierarchy effects: "the
  computation of the local matrix updates ... are simply slower");
* the **p = 16 outlier** for n = 3000 (load imbalance of the vanilla 1D
  distribution: "the last processor is simply allocated too many matrix
  rows/columns");
* multiplicative per-execution **noise** (applied by the caller via
  :func:`~repro.testbed.noise.lognormal_noise`).

A second personality, :class:`CrayPdgemmGroundTruth`, models the tuned
PDGEMM kernel on the Cray XT4 of Fig 2 (right): close to the analytical
model, with a 2-20 % fluctuating error.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from repro.dag.distributions import BlockDistribution
from repro.testbed.noise import structural_factor, structural_uniform
from repro.util.errors import SimulationError

__all__ = [
    "GroundTruthKernels",
    "CrayPdgemmGroundTruth",
    "TABLE2_CURVES",
    "REGIME_SPLIT",
]

#: Boundary between the strong-scaling and overhead-dominated regimes.
REGIME_SPLIT = 16

#: Matrix sizes the emulated environment supports (the paper measured
#: 2000 and 3000; interpolation covers the range between and slightly
#: beyond, see :meth:`GroundTruthKernels._curve_params`).
SIZE_MIN = 1500
SIZE_MAX = 3500

#: The paper's Table II regression coefficients, used generatively.
#: matmul entries: (a, b) of a/p + b for p <= 16 and (c, d) of c*p + d
#: for p > 16 (n = 2000 written as a/(2p) + b in the paper; the factor 2
#: is folded into a here).  matadd entries: (a, b) of a/p + b for all p.
TABLE2_CURVES = {
    ("matmul", 2000): {"hyp": (239.44 / 2.0, 3.43), "lin_slope": 0.08},
    ("matmul", 3000): {"hyp": (537.91, -25.55), "lin": (-0.09, 11.47)},
    ("matadd", 2000): {"hyp": (22.99, 0.03)},
    ("matadd", 3000): {"hyp": (73.59, 0.38)},
}

#: Amplitude of the pattern-less per-(n, p) deviation of the Java
#: kernels.  Smaller matrices are more sensitive to cache geometry and
#: JIT behaviour (the paper's Fig 2 shows wilder errors for its Java
#: kernels than for tuned PDGEMM), so n = 2000 fluctuates harder.
DEFAULT_FLUCTUATION = {
    ("matmul", 2000): 0.35,
    ("matmul", 3000): 0.25,
    ("matadd", 2000): 0.20,
    ("matadd", 3000): 0.12,
}
# (calibrated so the Fig 2 error envelope and the Fig 1/5/7 sign-flip
# rates land in the paper's regime; see EXPERIMENTS.md)

#: Outlier multipliers for n = 3000 (Fig 6 left).
OUTLIER_P8_FACTOR = 1.5
#: Load-imbalance at p = 16 comes from the naive 1D split plus cache
#: effects; the multiplier below lands the measured point visibly above
#: the fitted curve, as in Fig 6.
OUTLIER_P16_FACTOR = 1.6


@dataclass(frozen=True)
class GroundTruthKernels:
    """Mean execution times of the emulated Bayreuth cluster's kernels.

    Parameters
    ----------
    seed:
        Environment seed; fixes the structural fluctuation pattern.
    fluctuation:
        Amplitude of the pattern-less per-p deviation, keyed by
        (kernel, n); see :data:`DEFAULT_FLUCTUATION`.
    with_outliers:
        Inject the paper's p = 8 / p = 16 outliers for n = 3000
        (disable for ablations).

    :meth:`mean_time` computes each (kernel, n, p) once per instance.
    The fields are its only inputs, so do not mutate ``fluctuation`` in
    place; derive a variant with :func:`dataclasses.replace`, which
    starts afresh.
    """

    seed: int = 0
    fluctuation: dict[tuple[str, int], float] = field(
        default_factory=lambda: dict(DEFAULT_FLUCTUATION)
    )
    with_outliers: bool = True

    def __post_init__(self) -> None:
        # Means already drawn, keyed by (kernel, n, p).  Not a field, so
        # equality, repr and cache fingerprints never see it.
        object.__setattr__(self, "_means", {})

    def _anchor_curve(self, kernel: str, n: int, p: int) -> float:
        """Table II curve value at one of the paper's two measured sizes."""
        spec = TABLE2_CURVES[(kernel, n)]
        a, b = spec["hyp"]
        if kernel == "matadd" or p <= REGIME_SPLIT:
            return a / p + b
        if "lin" in spec:
            c, d = spec["lin"]
        else:
            # Continuity-reconciled branch (see module docstring).
            c = spec["lin_slope"]
            d = (a / REGIME_SPLIT + b) - c * REGIME_SPLIT
        return c * p + d

    def _base_curve(self, kernel: str, n: int, p: int) -> float:
        """Generative mean curve for any supported matrix size.

        At the paper's sizes this is exactly the (reconciled) Table II
        curve.  For other sizes the curve *value* is interpolated
        log-linearly in ``log n`` between the two anchors: both anchor
        curves are positive, so the interpolant is positive and
        monotone in n at every p, and execution times scale with a
        locally-constant polynomial exponent — the natural behaviour of
        an O(n^3)-with-overheads kernel.  This extends the emulated
        environment to arbitrary matrix sizes so the size-aware
        empirical models (a paper "future work" item) have something to
        predict.
        """
        if kernel not in ("matmul", "matadd"):
            raise SimulationError(
                f"no ground-truth curve for kernel={kernel!r}; the emulated "
                "cluster only runs the paper's kernels"
            )
        if not (SIZE_MIN <= n <= SIZE_MAX):
            raise SimulationError(
                f"matrix size {n} outside the emulated cluster's validated "
                f"range [{SIZE_MIN}, {SIZE_MAX}]"
            )
        lo = max(self._anchor_curve(kernel, 2000, p), 1e-3)
        hi = max(self._anchor_curve(kernel, 3000, p), 1e-3)
        if n == 2000:
            return lo
        if n == 3000:
            return hi
        w = (math.log(n) - math.log(2000)) / (math.log(3000) - math.log(2000))
        return math.exp((1 - w) * math.log(lo) + w * math.log(hi))

    def _fluct_amplitude(self, kernel: str, n: int) -> float:
        """Fluctuation amplitude, interpolated in n between listed sizes.

        Unlisted kernels — or an entirely empty mapping — fluctuate not
        at all, yielding the pure Table II curves (used by ablations).
        """
        exact = self.fluctuation.get((kernel, n))
        if exact is not None:
            return exact
        lo = self.fluctuation.get((kernel, 2000))
        hi = self.fluctuation.get((kernel, 3000))
        if lo is None or hi is None:
            return 0.0
        w = min(1.0, max(0.0, (n - 2000) / 1000.0))
        return (1 - w) * lo + w * hi

    def _outlier_factor(self, kernel: str, n: int, p: int) -> float:
        if not self.with_outliers or kernel != "matmul" or n != 3000:
            return 1.0
        if p == 8:
            return OUTLIER_P8_FACTOR
        if p == 16:
            # The imbalance of the naive splitting contributes part of
            # the outlier; the constant covers the cache-line effects.
            imbalance = BlockDistribution(n, p, naive=True).imbalance()
            return max(OUTLIER_P16_FACTOR, imbalance)
        return 1.0

    def mean_time(self, kernel: str, n: int, p: int) -> float:
        """Mean wall-clock seconds of one kernel execution (no noise).

        Each (kernel, n, p) is computed once per instance; ``n`` and
        ``p`` must be integers (``operator.index``), so equal sizes and
        counts share one draw.
        """
        key = (kernel, operator.index(n), operator.index(p))
        mean = self._means.get(key)
        if mean is None:
            mean = self._means[key] = self._mean_time(*key)
        return mean

    def _mean_time(self, kernel: str, n: int, p: int) -> float:
        """Unmemoised :meth:`mean_time`: checks, draws, computes."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        base = self._base_curve(kernel, n, p)
        amplitude = self._fluct_amplitude(kernel, n)
        fluct = structural_factor(self.seed, amplitude, "kernel", kernel, n, p)
        value = base * fluct * self._outlier_factor(kernel, n, p)
        return max(value, 1e-3)


@dataclass(frozen=True)
class CrayPdgemmGroundTruth:
    """PDGEMM on the Cray XT4 "Franklin" (Fig 2, right).

    The analytical model ``2 n^3 / (p * FLOPS)`` with the measured
    4165.3 MFLOPS rate has a mean error around 10 %, up to 20 %: tuned
    BLAS is predictable but not perfectly so.  The ground truth is the
    analytical time inflated by a fluctuating factor in [1.02, 1.20].
    """

    seed: int = 0
    flops: float = 4165.3e6
    min_error: float = 0.02
    max_error: float = 0.20

    def mean_time(self, n: int, p: int) -> float:
        if p < 1 or n < 1:
            raise ValueError("n and p must be >= 1")
        analytical = 2.0 * float(n) ** 3 / (p * self.flops)
        span = self.max_error - self.min_error
        u = structural_uniform(self.seed, "pdgemm", n, p)
        # u is uniform in (-1, 1); map to [min_error, max_error].
        err = self.min_error + span * (u + 1.0) / 2.0
        return analytical * (1.0 + err)
