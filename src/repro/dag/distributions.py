"""1D block data distributions and redistribution message matrices.

Every task distributes its n x n matrix 1D column-block over its
processor set: processor ``k`` of ``p`` holds columns
``[k*n//p, (k+1)*n//p)`` — the same "vanilla" splitting the paper's Java
kernels use, including its imbalance when ``p`` does not divide ``n``
(the source of the paper's p = 16 outlier for n = 3000, where the last
processor receives noticeably more columns).

When a producer on processor set P_src hands its matrix to a consumer on
processor set P_dst, each destination processor must fetch the overlap
of its column interval with every source processor's interval.  TGrid
computes exactly these overlapping intervals to derive the point-to-point
messages; :func:`redistribution_matrix` reproduces that computation and
yields the byte matrix consumed by the SimGrid ``ptask_L07`` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.dag.kernels import BYTES_PER_ELEMENT

__all__ = [
    "BlockDistribution",
    "redistribution_matrix",
    "redistribution_matrix_rows",
    "redistribution_volume",
]


@dataclass(frozen=True)
class BlockDistribution:
    """A 1D column-block distribution of an n x n matrix over ``p`` ranks.

    Two splitting conventions are supported:

    * balanced (default): rank ``k`` owns
      ``[k * n // p, (k + 1) * n // p)`` — intervals tile ``[0, n)``
      exactly and differ by at most one column;
    * ``naive=True``: every rank owns ``floor(n / p)`` columns and the
      last rank absorbs the remainder — the paper's "vanilla"
      implementation, whose imbalance it blames for the p = 16 outlier
      at n = 3000.
    """

    n: int
    p: int
    naive: bool = False

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"matrix dimension must be positive, got {self.n}")
        if self.p <= 0:
            raise ValueError(f"rank count must be positive, got {self.p}")

    def interval(self, rank: int) -> tuple[int, int]:
        """Column interval ``[lo, hi)`` owned by ``rank``."""
        if not (0 <= rank < self.p):
            raise ValueError(f"rank {rank} out of range for p={self.p}")
        if self.naive:
            width = self.n // self.p
            lo = rank * width
            hi = self.n if rank == self.p - 1 else (rank + 1) * width
            return (lo, hi)
        lo = rank * self.n // self.p
        hi = (rank + 1) * self.n // self.p
        return (lo, hi)

    def columns(self, rank: int) -> int:
        """Number of columns owned by ``rank``."""
        lo, hi = self.interval(rank)
        return hi - lo

    def bytes_owned(self, rank: int) -> int:
        """Bytes of the matrix held by ``rank``."""
        return self.columns(rank) * self.n * BYTES_PER_ELEMENT

    def imbalance(self) -> float:
        """Max-over-mean column-count ratio (1.0 means perfectly balanced).

        Under the ``naive`` convention the last rank absorbs the whole
        remainder (for n = 3000, p = 16 it holds 195 columns against a
        187.5 mean), which the paper identifies as the cause of its
        p = 16 outlier; the balanced convention keeps this ratio within
        one column of 1.0.
        """
        counts = np.array([self.columns(k) for k in range(self.p)], dtype=float)
        return float(counts.max() / counts.mean())


def redistribution_matrix(
    n: int, p_src: int, p_dst: int
) -> np.ndarray:
    """Byte matrix of the redistribution between two block distributions.

    Returns an array ``M`` of shape ``(p_src, p_dst)`` where ``M[i, j]``
    is the number of bytes source rank ``i`` must send to destination
    rank ``j`` — the length of the overlap of their column intervals
    times ``n`` rows times 8 bytes.  Ranks are *local* to each task; the
    mapping onto physical processors happens in the simulator, which also
    elides messages whose endpoints share a physical node.

    The result is memoised per ``(n, p_src, p_dst)`` — a study hits the
    same few hundred combinations thousands of times — and returned as a
    **read-only** array shared between callers; writing to it raises.
    Copy before mutating.
    """
    return _redistribution_matrix_cached(n, p_src, p_dst)


@lru_cache(maxsize=1024)
def _redistribution_matrix_cached(n: int, p_src: int, p_dst: int) -> np.ndarray:
    BlockDistribution(n, p_src)  # argument validation
    BlockDistribution(n, p_dst)
    # Balanced interval boundaries, precomputed: rank k owns
    # ``[b[k], b[k+1])`` — the same integers ``interval`` returns, at a
    # fraction of the per-overlap method-call cost.
    src_b = [k * n // p_src for k in range(p_src + 1)]
    dst_b = [k * n // p_dst for k in range(p_dst + 1)]
    M = np.zeros((p_src, p_dst), dtype=float)
    j = 0
    for i in range(p_src):
        s_lo = src_b[i]
        s_hi = src_b[i + 1]
        if s_lo == s_hi:
            continue
        # Walk destination intervals overlapping [s_lo, s_hi); both
        # interval lists are sorted so a merge scan is linear overall.
        while j > 0 and dst_b[j] > s_lo:
            j -= 1
        while j < p_dst and dst_b[j + 1] <= s_lo:
            j += 1
        k = j
        while k < p_dst:
            d_lo = dst_b[k]
            d_hi = dst_b[k + 1]
            overlap = min(s_hi, d_hi) - max(s_lo, d_lo)
            if overlap > 0:
                M[i, k] = overlap * n * BYTES_PER_ELEMENT
            if d_hi >= s_hi:
                break
            k += 1
    M.setflags(write=False)
    return M


@lru_cache(maxsize=1024)
def redistribution_matrix_rows(
    n: int, p_src: int, p_dst: int
) -> list[list[float]]:
    """:func:`redistribution_matrix` as cached plain-float row lists.

    The simulator's per-link totals iterate the matrix in Python;
    ``tolist`` once per cache entry beats boxing an ndarray scalar per
    element per call.  The nested lists are shared between callers —
    **read-only** by convention (same contract as the read-only array).
    """
    return _redistribution_matrix_cached(n, p_src, p_dst).tolist()


def redistribution_volume(n: int, p_src: int, p_dst: int) -> float:
    """Total bytes moved by a redistribution (sum of the message matrix)."""
    return float(redistribution_matrix(n, p_src, p_dst).sum())
