"""Cross-variant discrepancy explorer (the ``repro diff`` command).

Compares two timeline files run for run and answers the paper's core
question — *where* does a simulator's prediction diverge from another
variant's (or from the emulated experiment)?  Makespan deltas are
decomposed into the paper's Section-V attribution categories:

* **exec** — time spent computing inside tasks,
* **startup** — per-task startup overhead (the JVM/process-spawn cost
  the paper measures separately),
* **redist** — data-redistribution transfer time between tasks,
* **other** — residual idle time on the critical chain (zero under the
  engines' gapless execution discipline; non-zero only for truncated
  or foreign timelines).

The decomposition walks the critical chain *backward* from the last
finishing task: the engines start a task at exactly the simulated time
its last gating event (input redistribution or host-order predecessor)
finished, and start a redistribution at exactly its producer's finish —
so chain segments telescope and the per-category times sum to the
makespan **exactly** (floating-point identical, not approximately).
Two runs' category deltas therefore sum to their makespan delta.

The explorer also flags **wrong-sign cells**: (dag, n) cells where the
two timelines disagree about *which algorithm wins* (e.g. A says HCPA
beats MCPA, B says the opposite) — the qualitative failure mode the
paper's simulation-vs-experiment comparison is designed to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.obs.report import TraceReadError
from repro.obs.timeline import load_timeline
from repro.util.text import format_table

__all__ = [
    "TimelineRun",
    "split_runs",
    "decompose",
    "diff_timelines",
    "render_diff",
    "diff_files",
]

#: Components of the makespan decomposition, in report order.
COMPONENTS = ("exec", "startup", "redist", "other")


@dataclass
class TimelineRun:
    """One simulated (or emulated) run reassembled from timeline records."""

    run: int
    dag: str
    algorithm: str
    role: str
    variant: str | None = None
    n: int | None = None
    model: str | None = None
    makespan: float = 0.0
    tasks: dict[int, dict] = field(default_factory=dict)
    xfers: dict[tuple[int, int], dict] = field(default_factory=dict)

    @property
    def cell(self) -> tuple:
        """Grid coordinates used to pair runs across timelines."""
        return (self.variant, self.dag, self.algorithm, self.role, self.n)


def split_runs(records: list[dict]) -> list[TimelineRun]:
    """Group a timeline's records into per-run structures.

    ``task`` / ``xfer`` records are attributed to their ``run`` id; the
    trailing ``run`` summary record supplies the metadata.  Records
    outside any run (scheduler ``alloc`` decisions, the ``meta``
    header) are skipped — the diff works on realised executions.
    """
    tasks: dict[int, dict[int, dict]] = {}
    xfers: dict[int, dict[tuple[int, int], dict]] = {}
    runs: list[TimelineRun] = []
    for record in records:
        kind = record.get("kind")
        run_id = record.get("run")
        if run_id is None:
            continue
        if kind == "task":
            tasks.setdefault(run_id, {})[int(record["task"])] = record
        elif kind == "xfer":
            key = (int(record["src"]), int(record["dst"]))
            xfers.setdefault(run_id, {})[key] = record
        elif kind == "run":
            runs.append(
                TimelineRun(
                    run=int(run_id),
                    dag=str(record.get("dag", "?")),
                    algorithm=str(record.get("algorithm", "?")),
                    role=str(record.get("role", "sim")),
                    variant=record.get("variant"),
                    n=record.get("n"),
                    model=record.get("model"),
                    makespan=float(record.get("makespan", 0.0)),
                    tasks=tasks.pop(run_id, {}),
                    xfers=xfers.pop(run_id, {}),
                )
            )
    return runs


def _links_close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def decompose(run: TimelineRun) -> dict[str, float]:
    """Split ``run``'s makespan into the paper's attribution categories.

    Walks the critical chain backward from the last-finishing task
    (ties broken toward the smallest task id, so the walk is
    deterministic).  At each task, the gating event is the input
    redistribution — preferred, since transfers are what the paper
    attributes — or the host-order predecessor whose finish equals the
    task's start; the engines make that equality exact.  Category times
    sum to the makespan exactly; any residual (foreign timelines only)
    lands in ``other``.
    """
    out = {name: 0.0 for name in COMPONENTS}
    if not run.tasks:
        return out
    # Host-order predecessors: for each host, tasks sorted by finish.
    by_host: dict[int, list[dict]] = {}
    for rec in run.tasks.values():
        for host in rec.get("hosts", ()):
            by_host.setdefault(int(host), []).append(rec)
    # Inbound transfers per destination task.
    inbound: dict[int, list[tuple[tuple[int, int], dict]]] = {}
    for key, rec in run.xfers.items():
        inbound.setdefault(key[1], []).append((key, rec))

    current = min(
        run.tasks.values(),
        key=lambda r: (-float(r["finish"]), int(r["task"])),
    )
    visited: set[int] = set()
    while True:
        task_id = int(current["task"])
        if task_id in visited:
            break
        visited.add(task_id)
        start = float(current["start"])
        dur = float(current["finish"]) - start
        startup = min(float(current.get("startup", 0.0)), dur)
        out["startup"] += startup
        out["exec"] += dur - startup
        if start <= 0.0:
            break
        # Gating input redistribution (finish == this task's start)?
        gate_xfer = None
        for key, rec in sorted(inbound.get(task_id, ())):
            if _links_close(float(rec["finish"]), start):
                gate_xfer = rec
                break
        if gate_xfer is not None:
            xstart = float(gate_xfer["start"])
            out["redist"] += float(gate_xfer["finish"]) - xstart
            producer = run.tasks.get(int(gate_xfer["src"]))
            if producer is not None and _links_close(
                float(producer["finish"]), xstart
            ):
                current = producer
                continue
            out["other"] += xstart
            break
        # Host-order predecessor finishing exactly at this start?
        gate_pred = None
        for host in current.get("hosts", ()):
            for rec in by_host.get(int(host), ()):
                if int(rec["task"]) == task_id or int(rec["task"]) in visited:
                    continue
                if _links_close(float(rec["finish"]), start):
                    if gate_pred is None or int(rec["task"]) < int(
                        gate_pred["task"]
                    ):
                        gate_pred = rec
        if gate_pred is None:
            out["other"] += start
            break
        current = gate_pred
    return out


def _pair_runs(
    a_runs: list[TimelineRun], b_runs: list[TimelineRun]
) -> list[tuple[TimelineRun, TimelineRun]]:
    """Match runs across the two timelines by grid cell.

    Pairs on the full (variant, dag, algorithm, role, n) cell when the
    two timelines share variants; otherwise — the cross-variant case
    the explorer exists for — the variant coordinate is dropped, and
    only cells unambiguous on both sides are paired.
    """

    def index(runs: list[TimelineRun], with_variant: bool) -> dict:
        out: dict = {}
        for run in runs:
            key = run.cell if with_variant else run.cell[1:]
            out.setdefault(key, []).append(run)
        return out

    a_full, b_full = index(a_runs, True), index(b_runs, True)
    if set(a_full) & set(b_full):
        keys, a_idx, b_idx = sorted(set(a_full) & set(b_full)), a_full, b_full
    else:
        a_idx, b_idx = index(a_runs, False), index(b_runs, False)
        keys = sorted(
            k
            for k in set(a_idx) & set(b_idx)
            if len(a_idx[k]) == 1 and len(b_idx[k]) == 1
        )
    return [(a_idx[k][0], b_idx[k][0]) for k in keys]


def _wrong_sign_cells(
    a_runs: list[TimelineRun], b_runs: list[TimelineRun]
) -> list[dict]:
    """Cells where the two timelines disagree on the winning algorithm.

    For every (dag, n, role) holding both an ``hcpa`` and an ``mcpa``
    run in *both* timelines, compare the sign of ``makespan(hcpa) -
    makespan(mcpa)``; a flipped (nonzero) sign means one timeline
    predicts the wrong winner relative to the other — the qualitative
    error the paper's comparison methodology targets.
    """

    def gaps(runs: list[TimelineRun]) -> dict[tuple, float]:
        spans: dict[tuple, dict[str, float]] = {}
        for run in runs:
            cell = (run.dag, run.n, run.role)
            spans.setdefault(cell, {})[run.algorithm] = run.makespan
        return {
            cell: algos["hcpa"] - algos["mcpa"]
            for cell, algos in spans.items()
            if "hcpa" in algos and "mcpa" in algos
        }

    a_gaps, b_gaps = gaps(a_runs), gaps(b_runs)
    flagged = []
    for cell in sorted(set(a_gaps) & set(b_gaps), key=str):
        ga, gb = a_gaps[cell], b_gaps[cell]
        if ga * gb < 0.0:
            flagged.append(
                {
                    "dag": cell[0],
                    "n": cell[1],
                    "role": cell[2],
                    "gap_a": ga,
                    "gap_b": gb,
                    "winner_a": "hcpa" if ga < 0 else "mcpa",
                    "winner_b": "hcpa" if gb < 0 else "mcpa",
                }
            )
    return flagged


def diff_timelines(
    a_records: list[dict],
    b_records: list[dict],
    *,
    role: str | None = "sim",
    top: int = 5,
) -> dict:
    """Structured comparison of two timelines.

    Returns a dict with ``pairs`` (per-cell makespan deltas and their
    component decomposition; the components of every pair sum to its
    makespan delta), ``wrong_sign`` cells, the ``top`` per-task
    duration movers, and unmatched-run counts.  ``role=None`` keeps
    both roles, and each run pairs with the run of the same role in
    the other timeline, so a ``sim``-only timeline against an
    ``experiment``-only one pairs nothing.
    """
    a_runs = split_runs(a_records)
    b_runs = split_runs(b_records)
    wrong_sign = _wrong_sign_cells(a_runs, b_runs)
    if role is not None:
        a_runs = [r for r in a_runs if r.role == role]
        b_runs = [r for r in b_runs if r.role == role]
    pairs = _pair_runs(a_runs, b_runs)
    paired_a = {id(a) for a, _ in pairs}
    paired_b = {id(b) for _, b in pairs}
    results = []
    movers: list[dict] = []
    for a, b in pairs:
        comp_a = decompose(a)
        comp_b = decompose(b)
        delta = {name: comp_b[name] - comp_a[name] for name in COMPONENTS}
        results.append(
            {
                "dag": a.dag,
                "n": a.n,
                "algorithm": a.algorithm,
                "role": a.role,
                "variant_a": a.variant,
                "variant_b": b.variant,
                "makespan_a": a.makespan,
                "makespan_b": b.makespan,
                "delta": b.makespan - a.makespan,
                "components": delta,
                "components_a": comp_a,
                "components_b": comp_b,
            }
        )
        for task_id in sorted(set(a.tasks) & set(b.tasks)):
            ta, tb = a.tasks[task_id], b.tasks[task_id]
            da = float(ta["finish"]) - float(ta["start"])
            db = float(tb["finish"]) - float(tb["start"])
            if da != db:
                movers.append(
                    {
                        "dag": a.dag,
                        "algorithm": a.algorithm,
                        "task": task_id,
                        "dur_a": da,
                        "dur_b": db,
                        "delta": db - da,
                    }
                )
    movers.sort(key=lambda m: (-abs(m["delta"]), m["dag"], m["task"]))
    return {
        "pairs": results,
        "wrong_sign": wrong_sign,
        "movers": movers[:top],
        "unmatched_a": len(a_runs) - len(paired_a),
        "unmatched_b": len(b_runs) - len(paired_b),
    }


def render_diff(diff: dict, label_a: str, label_b: str) -> str:
    """Human-readable report of a :func:`diff_timelines` result."""
    lines = [f"A: {label_a}", f"B: {label_b}"]
    pairs = diff["pairs"]
    lines.append(
        f"paired runs: {len(pairs)}  "
        f"(unmatched: {diff['unmatched_a']} in A, "
        f"{diff['unmatched_b']} in B)"
    )
    if pairs:
        lines.append("")
        lines.append("makespan delta (B - A) and its decomposition [s]:")
        rows = []
        for p in pairs:
            rows.append(
                [
                    p["dag"],
                    p["algorithm"],
                    f"{p['makespan_a']:.4f}",
                    f"{p['makespan_b']:.4f}",
                    f"{p['delta']:+.4f}",
                    f"{p['components']['exec']:+.4f}",
                    f"{p['components']['startup']:+.4f}",
                    f"{p['components']['redist']:+.4f}",
                    f"{p['components']['other']:+.4f}",
                ]
            )
        lines.append(
            format_table(
                [
                    "dag",
                    "algorithm",
                    "A [s]",
                    "B [s]",
                    "delta",
                    "exec",
                    "startup",
                    "redist",
                    "other",
                ],
                rows,
            )
        )
    wrong = diff["wrong_sign"]
    lines.append("")
    if wrong:
        lines.append(f"WRONG-SIGN cells ({len(wrong)}): the two timelines")
        lines.append("disagree about which of hcpa/mcpa wins:")
        lines.append(
            format_table(
                ["dag", "n", "role", "gap A [s]", "gap B [s]", "A says", "B says"],
                [
                    [
                        w["dag"],
                        str(w["n"]),
                        w["role"],
                        f"{w['gap_a']:+.4f}",
                        f"{w['gap_b']:+.4f}",
                        w["winner_a"],
                        w["winner_b"],
                    ]
                    for w in wrong
                ],
            )
        )
    else:
        lines.append("wrong-sign cells: none (hcpa-vs-mcpa ordering agrees)")
    movers = diff["movers"]
    if movers:
        lines.append("")
        lines.append("top task duration movers:")
        lines.append(
            format_table(
                ["dag", "algorithm", "task", "A [s]", "B [s]", "delta [s]"],
                [
                    [
                        m["dag"],
                        m["algorithm"],
                        str(m["task"]),
                        f"{m['dur_a']:.4f}",
                        f"{m['dur_b']:.4f}",
                        f"{m['delta']:+.4f}",
                    ]
                    for m in movers
                ],
            )
        )
    return "\n".join(lines)


def diff_files(
    a: Union[str, Path],
    b: Union[str, Path],
    *,
    role: str | None = "sim",
    top: int = 5,
) -> str:
    """Load two timeline files and render their comparison.

    Empty and run-less (header-only) inputs raise
    :class:`~repro.obs.report.TraceReadError` up front — diffing them
    would print a vacuous "paired runs: 0" report that hides the real
    problem.
    """
    a_records, b_records = load_timeline(a), load_timeline(b)
    for path, records in ((a, a_records), (b, b_records)):
        if not records:
            raise TraceReadError(
                f"{path}: file is empty — no timeline records to diff "
                "(was the traced command interrupted?)"
            )
        if not any(r.get("kind") == "run" for r in records):
            raise TraceReadError(
                f"{path}: timeline has no completed runs to pair — only "
                "header/decision records (rerun a workload, e.g. "
                "'repro --timeline-out FILE study')"
            )
    diff = diff_timelines(a_records, b_records, role=role, top=top)
    return render_diff(diff, str(a), str(b))
