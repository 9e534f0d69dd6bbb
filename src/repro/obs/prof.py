"""Hierarchical wall-clock profiler.

:class:`Profiler` records nestable named spans forming a call-path tree
plus *dimension-tagged kernel probes*.  A span records wall-clock time
under its full path (``("sched.allocate", "critical_path_dp")``), so the
flamegraph exporters in :mod:`repro.obs.flame` can attribute cost
hierarchically; a probe records ``(kernel, size_bucket, seconds)`` so
every ``solve_rates`` call, ``alloc_grow`` sweep and bottom-level DP
pass of the allocation loop (``critical_path_dp``) contributes to an
empirical per-kernel, per-size cost table.

Design rules (matching the Recorder's, see ``docs/observability.md``):

* **Disabled is free.**  Instrumented code holds ``prof = rec.profiler``
  and guards with ``if prof is not None:`` — no profiler means one
  attribute load and a branch, no clock reads.
* **Deterministic merge.**  A profiler's accumulated state is a plain
  dict (:meth:`Profiler.export_state`), merged across workers by
  :meth:`Profiler.absorb` in the study runner's submission order; the
  serialized form is key-sorted, so the *structure* (paths and counts)
  is byte-identical across worker counts.
* **Wall clocks never feed back.**  Nothing here influences simulated
  time or scheduling decisions.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Profiler",
    "size_bucket",
]

#: Path separator in serialized span keys and collapsed stacks.  Span
#: names are dotted identifiers and must not contain it.
PATH_SEP = ";"


def size_bucket(n: int) -> int:
    """Power-of-two bucket of a size (``0`` for empty instances).

    Buckets keep the probe tables small while preserving the order of
    magnitude a kernel's cost depends on: ``1..1 -> 1``,
    ``2 -> 2``, ``3..4 -> 4``, ``5..8 -> 8`` and so on (the bucket is
    the smallest power of two >= n).
    """
    if n <= 0:
        return 0
    return 1 << (int(n) - 1).bit_length()


def _merge_stats(into: list, count: int, total: float, mn: float, mx: float) -> None:
    into[0] += count
    into[1] += total
    if mn < into[2]:
        into[2] = mn
    if mx > into[3]:
        into[3] = mx


def _stats_dict(stats: list) -> dict:
    count, total, mn, mx = stats
    return {
        "count": count,
        "total_s": total,
        "mean_s": total / count if count else 0.0,
        "min_s": mn if count else None,
        "max_s": mx,
    }


class Profiler:
    """Accumulates span-path timings and kernel probes.

    Span state is a flat dict keyed by the full path tuple — the tree
    is implicit in the keys, which is what the collapsed-stack format
    wants anyway.  The *stack* is thread-local (each worker thread
    nests independently); the aggregate dicts are shared, which is safe
    under the GIL for the append-only update pattern used here.
    """

    __slots__ = ("spans", "kernels", "_local")

    def __init__(self) -> None:
        #: ``{path tuple: [count, total_s, min_s, max_s]}``
        self.spans: dict[tuple[str, ...], list] = {}
        #: ``{(kernel, size_bucket): [count, total_s, min_s, max_s]}``
        self.kernels: dict[tuple[str, int], list] = {}
        self._local = threading.local()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_path(self) -> tuple[str, ...]:
        """The open span path of the calling thread (for tests)."""
        return tuple(self._stack())

    def push(self, name: str) -> None:
        """Open a nested span (the Recorder calls this on span entry)."""
        self._stack().append(name)

    def pop(self, seconds: float) -> None:
        """Close the innermost span, folding its duration into the tree."""
        stack = self._stack()
        path = tuple(stack)
        stack.pop()
        self._record(path, seconds)

    def leaf(self, name: str, seconds: float) -> None:
        """Record a pre-timed child under the current path (no nesting).

        The profiler twin of ``Recorder.timing``: hot paths that clock
        themselves (``engine.solve``) attribute the measurement to the
        tree without the push/pop bookkeeping.
        """
        self._record(tuple(self._stack()) + (name,), seconds)

    def _record(self, path: tuple[str, ...], seconds: float) -> None:
        stats = self.spans.get(path)
        if stats is None:
            self.spans[path] = [1, seconds, seconds, seconds]
        else:
            _merge_stats(stats, 1, seconds, seconds, seconds)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Directly time a block (for code without a Recorder handle)."""
        self.push(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.pop(time.perf_counter() - t0)

    # -- kernel probes -------------------------------------------------
    def probe(self, kernel: str, size: int, seconds: float) -> None:
        """Record one kernel invocation at an input size.

        ``size`` is bucketed to the next power of two, so the table
        stays a handful of rows per kernel while still resolving how
        its cost grows with size.
        """
        key = (kernel, size_bucket(size))
        stats = self.kernels.get(key)
        if stats is None:
            self.kernels[key] = [1, seconds, seconds, seconds]
        else:
            _merge_stats(stats, 1, seconds, seconds, seconds)

    # -- merge / serialization -----------------------------------------
    def export_state(self) -> dict:
        """Plain-dict snapshot (picklable, JSON-able), key-sorted."""
        return {
            "spans": {
                PATH_SEP.join(path): _stats_dict(stats)
                for path, stats in sorted(self.spans.items())
            },
            "kernels": {
                f"{kernel}{PATH_SEP}{bucket}": _stats_dict(stats)
                for (kernel, bucket), stats in sorted(self.kernels.items())
            },
        }

    def absorb(self, state: dict) -> None:
        """Fold an :meth:`export_state` payload into this profiler.

        Counts and totals sum, min/max widen — the same merge the
        Recorder applies to span aggregates, so worker profiles folded
        in submission order yield a deterministic structure.
        """
        for key, agg in state.get("spans", {}).items():
            if not agg["count"]:
                continue
            path = tuple(key.split(PATH_SEP))
            stats = self.spans.get(path)
            if stats is None:
                stats = self.spans[path] = [0, 0.0, float("inf"), 0.0]
            _merge_stats(
                stats, agg["count"], agg["total_s"], agg["min_s"], agg["max_s"]
            )
        for key, agg in state.get("kernels", {}).items():
            if not agg["count"]:
                continue
            kernel, _, bucket = key.rpartition(PATH_SEP)
            kkey = (kernel, int(bucket))
            stats = self.kernels.get(kkey)
            if stats is None:
                stats = self.kernels[kkey] = [0, 0.0, float("inf"), 0.0]
            _merge_stats(
                stats, agg["count"], agg["total_s"], agg["min_s"], agg["max_s"]
            )

    def structure(self) -> dict:
        """Deterministic shape of the profile: paths/keys and counts only.

        Wall-clock durations jitter run to run; the *structure* — which
        spans nested under which, how many times, which kernels ran at
        which size buckets — is a pure function of the workload, so the
        determinism tests compare exactly this.
        """
        return {
            "spans": {
                PATH_SEP.join(path): stats[0]
                for path, stats in sorted(self.spans.items())
            },
            "kernels": {
                f"{kernel}{PATH_SEP}{bucket}": stats[0]
                for (kernel, bucket), stats in sorted(self.kernels.items())
            },
        }

    # -- rollups -------------------------------------------------------
    def kernel_table(self) -> list[tuple[str, int, int, float, float]]:
        """Sorted ``(kernel, bucket, calls, total_s, mean_s)`` rows."""
        rows = []
        for (kernel, bucket), stats in sorted(self.kernels.items()):
            count, total = stats[0], stats[1]
            rows.append(
                (kernel, bucket, count, total, total / count if count else 0.0)
            )
        return rows

    def render(self) -> str:
        """Human-readable span tree plus the kernel cost table."""
        lines = ["span tree (wall-clock):"]
        if not self.spans:
            lines.append("  (no spans recorded)")
        header = f"  {'path':<44} {'calls':>7} {'total':>10} {'mean':>10}"
        if self.spans:
            lines.append(header)
        for path, stats in sorted(self.spans.items()):
            count, total = stats[0], stats[1]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"  {label:<44} {count:>7} {total:>9.4f}s "
                f"{1e6 * total / count:>8.1f}us"
            )
        lines.append("")
        lines.append("kernel cost table (per (kernel, size bucket)):")
        if not self.kernels:
            lines.append("  (no kernel probes recorded)")
        else:
            lines.append(
                f"  {'kernel':<18} {'size<=':>8} {'calls':>8} "
                f"{'total':>10} {'mean':>10}"
            )
            for kernel, bucket, count, total, mean in self.kernel_table():
                lines.append(
                    f"  {kernel:<18} {bucket:>8} {count:>8} "
                    f"{total:>9.4f}s {1e6 * mean:>8.1f}us"
                )
        return "\n".join(lines)
