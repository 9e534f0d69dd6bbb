"""Wall-clock attribution: the span tree and kernel probes.

A :class:`Profiler` attached to a :class:`~repro.obs.recorder.Recorder`
shows the recorder's one span table, ``{span path: SpanStats}``, as a
call-path tree: every ``span()`` and ``timing()`` lands under its full
path (``("study.schedule", "sched.allocate", "sched.critical_path")``),
so the flamegraph exporters in :mod:`repro.obs.flame` can attribute
cost hierarchically.  What the profiler keeps itself are the
*dimension-tagged kernel probes*: a probe records ``(kernel,
size_bucket, seconds)`` so every ``solve_rates`` call, ``alloc_grow``
sweep and bottom-level DP pass of the allocation loop
(``critical_path_dp``) contributes to an empirical per-kernel,
per-size cost table.

Design rules (matching the Recorder's, see ``docs/observability.md``):

* **Disabled is free.**  Instrumented code holds ``prof = rec.profiler``
  and guards with ``if prof is not None:`` — no profiler means one
  attribute load and a branch, no clock reads.
* **Deterministic merge.**  Worker recorders ship their span table and
  kernel probes in ``Recorder.export_state``; the parent's
  ``Recorder.absorb`` folds them in the study runner's submission
  order.  The serialized form is key-sorted, so the *structure* (paths
  and counts) is byte-identical across worker counts.
* **Wall clocks never feed back.**  Nothing here influences simulated
  time or scheduling decisions.
"""

from __future__ import annotations

from repro.obs.recorder import PATH_SEP, SpanStats, table_state

__all__ = [
    "Profiler",
    "size_bucket",
]


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


class Profiler:
    """Kernel probes plus views of the attached recorder's span table.

    ``spans`` is the ``{path tuple: SpanStats}`` table of the recorder
    this profiler is attached to — the tree is implicit in the keys,
    which is what the collapsed-stack format wants anyway.
    """

    __slots__ = ("spans", "kernels")

    def __init__(self) -> None:
        #: ``{path tuple: SpanStats}``, the attached recorder's table.
        self.spans: dict[tuple[str, ...], SpanStats] = {}
        #: ``{(kernel, size_bucket): SpanStats}``
        self.kernels: dict[tuple[str, int], SpanStats] = {}

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
            stats = self.kernels[key] = SpanStats()
        stats.add(seconds)

    # -- merge / serialization -----------------------------------------
    def export_state(self) -> dict:
        """Plain-dict snapshot (picklable, JSON-able), key-sorted."""
        return {
            "spans": table_state(self.spans),
            "kernels": table_state(self.kernels),
        }

    def absorb(self, state: dict) -> None:
        """Fold the kernel probes of a ``Recorder.export_state`` payload.

        Counts and totals sum, min/max widen — the same merge the
        Recorder applies to its span table, so worker probes folded in
        submission order yield a deterministic structure.
        """
        for key, agg in state.get("kernels", {}).items():
            if agg["count"]:
                kernel, _, bucket = key.rpartition(PATH_SEP)
                kkey = (kernel, int(bucket))
                self.kernels.setdefault(kkey, SpanStats()).merge(agg)

    def structure(self) -> dict:
        """Deterministic shape of the profile: paths/keys and counts only.

        Wall-clock durations jitter run to run; the *structure* — which
        spans nested under which, how many times, which kernels ran at
        which size buckets — is a pure function of the workload, so the
        determinism tests compare exactly this.
        """
        return {
            part: {key: agg["count"] for key, agg in table.items()}
            for part, table in self.export_state().items()
        }

    # -- rollups -------------------------------------------------------
    def kernel_table(self) -> list[tuple[str, int, int, float, float]]:
        """Sorted ``(kernel, bucket, calls, total_s, mean_s)`` rows."""
        return [
            (kernel, bucket, stats.count, stats.total, stats.mean)
            for (kernel, bucket), stats in sorted(self.kernels.items())
        ]

    def render(self) -> str:
        """Human-readable span tree plus the kernel cost table."""
        lines = ["span tree (wall-clock):"]
        if not self.spans:
            lines.append("  (no spans recorded)")
        header = f"  {'path':<44} {'calls':>7} {'total':>10} {'mean':>10}"
        if self.spans:
            lines.append(header)
        for path, stats in sorted(self.spans.items()):
            count, total = stats.count, stats.total
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
