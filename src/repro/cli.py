"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate the paper's tables/figures (all, or a selection) and
    print them; optionally write artifacts to a directory.
``study``
    Run the HCPA-vs-MCPA comparison under one simulator suite.
``dag``
    Generate one Table I DAG and print (or JSON-dump) it.
``simulate``
    Schedule one DAG, simulate it and execute it on the testbed,
    printing makespans and an optional Gantt chart.
``profile``
    Print the raw measurement tables (kernels / startup /
    redistribution) of the emulated environment, or — with
    ``--what wall`` — profile a mini-study's wall-clock time
    (hierarchical span tree and per-kernel cost table;
    ``--flame``/``--chrome`` export flamegraph artifacts).
``report``
    Summarise a JSONL trace produced with ``--trace-out`` (counters,
    span timings, per-algorithm makespans); ``--json`` emits the same
    report machine-readably.
``trace``
    Export (``trace export``) a timeline/trace file to Chrome
    trace-event JSON or OpenMetrics text, or summarise
    (``trace summary``) a ``--timeline-out`` file per run.
``diff``
    Compare two ``--timeline-out`` files: per-cell makespan deltas
    decomposed into exec/startup/redistribution components, plus
    wrong-sign HCPA-vs-MCPA cells.
``cache``
    Inspect or invalidate the content-addressed result cache
    (``info`` / ``clear`` / ``prune``).
``top``
    Live per-worker view of a running study: point it at a
    ``--live-out`` snapshot file or a ``serve-metrics`` ``/state`` URL.
``serve-metrics``
    Minimal stdlib HTTP endpoint serving the current OpenMetrics
    snapshot of a ``--live-out`` / ``--trace-out`` / ``--timeline-out``
    file (re-read per scrape, so it tracks a running study).

Global observability flags (before the subcommand): ``--trace-out PATH``
streams typed events to a JSONL file and appends a provenance manifest;
``--timeline-out PATH`` streams the simulated-time timeline (task /
transfer / allocation / share records) to a JSONL file; ``--metrics``
prints the counter/span rollup after the command; ``--profile``
attaches a wall-clock profiler whose span-tree/kernel rollup lands in
``--trace-out`` manifests (``repro report --json``) and prints after
the command; ``--progress`` streams a live study status line to stderr
(cells done, cells/sec, ETA, stragglers); ``--live-out PATH``
atomically rewrites a live telemetry snapshot JSON every heartbeat —
the file ``repro top`` and ``repro serve-metrics`` watch.

Caching: ``--cache-dir PATH`` (global, or after ``study``/``figures``/
``simulate``) memoises calibrations and study cells on disk so warm
re-runs replay unchanged cells bit-identically; ``simulate`` caches
only the calibration — see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import repro
from repro.dag.generator import DagParameters, generate_dag
from repro.experiments import figures as fig_mod
from repro.experiments.comparison import compare_algorithms
from repro.experiments.context import StudyContext
from repro.experiments import reporting
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import ALGORITHMS, schedule_dag
from repro.obs import (
    JsonlSink,
    MemorySink,
    Profiler,
    Recorder,
    RunManifest,
    Timeline,
    TraceReadError,
    emit_manifest,
    report_file,
    set_recorder,
)
from repro.simgrid.simulator import ApplicationSimulator
from repro.simgrid.trace_tools import render_gantt, trace_to_json
from repro.util.text import format_table

__all__ = ["main", "build_parser"]

#: Figure name -> (builder, renderer) registry for the ``figures`` command.
_FIGURES = {
    "table1": (fig_mod.table1, reporting.render_table1),
    "fig2": (fig_mod.figure2, reporting.render_figure2),
    "fig3": (fig_mod.figure3, reporting.render_figure3),
    "fig4": (fig_mod.figure4, reporting.render_figure4),
    "fig6": (fig_mod.figure6, reporting.render_figure6),
    "fig8": (fig_mod.figure8, reporting.render_figure8),
    "table2": (fig_mod.table2, reporting.render_table2),
}
_COMPARISON_FIGURES = {
    "fig1": ("analytic", fig_mod.figure1),
    "fig5": ("profile", fig_mod.figure5),
    "fig7": ("empirical", fig_mod.figure7),
}


def _int_at_least(minimum: int):
    """An argparse ``type`` accepting integers >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'From Simulation to Experiment: A Case Study "
            "on Multiprocessor Task Scheduling' (APDCM 2011)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="process-pool size for study sweeps (1 = serial; results "
        "are identical either way)",
    )
    parser.add_argument(
        "--trace-out",
        default="",
        metavar="PATH",
        help="stream observability events to a JSONL trace file "
        "(with a trailing provenance manifest)",
    )
    parser.add_argument(
        "--timeline-out",
        default="",
        metavar="PATH",
        help="stream the simulated-time timeline (task/transfer/"
        "allocation/share records) to a JSONL file; feed it to "
        "'repro trace export' or 'repro diff'",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the counter/span metric rollup after the command",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach a wall-clock profiler: prints the span tree and "
        "kernel cost table after the command, and embeds the rollup "
        "in --trace-out manifests (see 'repro report --json')",
    )
    parser.add_argument(
        "--cache-dir",
        default="",
        metavar="PATH",
        help="persistent result-cache directory; warm re-runs skip "
        "unchanged cells (bit-identical results)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream a live study status line to stderr (cells "
        "done/total, cells/sec, ETA, straggler/stall flags); results "
        "are bit-identical with or without it",
    )
    parser.add_argument(
        "--live-out",
        default="",
        metavar="PATH",
        help="atomically rewrite a live telemetry snapshot JSON every "
        "heartbeat; watch it with 'repro top PATH' or serve it with "
        "'repro serve-metrics PATH'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_dir(p: argparse.ArgumentParser) -> None:
        # Also accepted after the subcommand; SUPPRESS keeps a value
        # parsed from the global position from being overwritten.
        p.add_argument(
            "--cache-dir",
            default=argparse.SUPPRESS,
            metavar="PATH",
            help="persistent result-cache directory",
        )

    p_fig = sub.add_parser("figures", help="regenerate tables/figures")
    p_fig.add_argument(
        "--only",
        default="",
        help="comma-separated subset, e.g. fig1,fig8,table2 (default: all)",
    )
    p_fig.add_argument("--out", default="", help="directory for .txt artifacts")
    add_cache_dir(p_fig)

    p_study = sub.add_parser("study", help="HCPA-vs-MCPA comparison")
    p_study.add_argument(
        "--simulator",
        choices=("analytic", "profile", "empirical"),
        default="analytic",
    )
    p_study.add_argument("--n", type=int, choices=(2000, 3000), default=2000)
    add_cache_dir(p_study)

    p_dag = sub.add_parser("dag", help="generate one Table I DAG")
    p_dag.add_argument("--width", type=int, default=4)
    p_dag.add_argument("--ratio", type=float, default=0.5)
    p_dag.add_argument("--n", type=int, default=2000)
    p_dag.add_argument("--sample", type=int, default=0)
    p_dag.add_argument("--json", action="store_true", help="dump as JSON")

    p_sim = sub.add_parser("simulate", help="simulate + execute one DAG")
    p_sim.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="hcpa")
    p_sim.add_argument(
        "--simulator",
        choices=("analytic", "profile", "empirical"),
        default="analytic",
    )
    p_sim.add_argument("--width", type=int, default=4)
    p_sim.add_argument("--ratio", type=float, default=0.5)
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--sample", type=int, default=0)
    p_sim.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    p_sim.add_argument("--trace-json", action="store_true",
                       help="dump the experimental trace as JSON")
    add_cache_dir(p_sim)

    p_prof = sub.add_parser(
        "profile",
        help="print measurement tables, or profile wall-clock time "
        "(--what wall)",
    )
    p_prof.add_argument(
        "--what",
        choices=("kernels", "startup", "redistribution", "wall"),
        default="kernels",
        help="kernels/startup/redistribution: emulated-environment "
        "measurement tables; wall: profile a mini-study's wall-clock "
        "time",
    )
    p_prof.add_argument("--trials", type=int, default=3)
    p_prof.add_argument(
        "--dags", type=int, default=6,
        help="(--what wall) how many Table I DAGs the profiled "
        "mini-study runs",
    )
    p_prof.add_argument(
        "--flame", default="", metavar="PATH",
        help="(--what wall) write a collapsed-stack flamegraph "
        "(flamegraph.pl / speedscope input)",
    )
    p_prof.add_argument(
        "--chrome", default="", metavar="PATH",
        help="(--what wall) write the wall-clock profile as Chrome "
        "trace-event JSON (Perfetto-loadable)",
    )

    p_var = sub.add_parser(
        "variance", help="run-to-run stability of the algorithm comparison"
    )
    p_var.add_argument(
        "--simulator",
        choices=("analytic", "profile", "empirical"),
        default="analytic",
    )
    p_var.add_argument("--n", type=int, choices=(2000, 3000), default=2000)
    p_var.add_argument("--runs", type=int, default=5)
    p_var.add_argument("--dags", type=int, default=9,
                       help="how many DAGs to analyse")

    p_att = sub.add_parser(
        "attribution", help="decompose one schedule's simulation gap"
    )
    p_att.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="mcpa")
    p_att.add_argument("--width", type=int, default=4)
    p_att.add_argument("--ratio", type=float, default=0.5)
    p_att.add_argument("--n", type=int, default=2000)
    p_att.add_argument("--sample", type=int, default=0)

    p_rep = sub.add_parser(
        "report", help="summarise a JSONL observability trace"
    )
    p_rep.add_argument("trace", help="path to a --trace-out JSONL file")
    p_rep.add_argument(
        "--top", type=int, default=15, help="how many counters to list"
    )
    p_rep.add_argument(
        "--json",
        action="store_true",
        help="emit the report as one machine-readable JSON document "
        "(counters, timings, cache hit-rates, profile rollup)",
    )

    p_trace = sub.add_parser(
        "trace", help="export or summarise a timeline/trace file"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_texp = trace_sub.add_parser(
        "export", help="convert to an external tooling format"
    )
    p_texp.add_argument("trace", help="a --timeline-out (or --trace-out) file")
    p_texp.add_argument(
        "--format",
        choices=("chrome", "openmetrics"),
        default="chrome",
        help="chrome: Perfetto-loadable trace-event JSON (timelines "
        "only); openmetrics: Prometheus-parseable text rollup",
    )
    p_texp.add_argument(
        "--out", default="", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    p_tsum = trace_sub.add_parser(
        "summary", help="per-run table of a --timeline-out file"
    )
    p_tsum.add_argument("trace", help="a --timeline-out (or --trace-out) file")

    p_diff = sub.add_parser(
        "diff", help="compare two --timeline-out files cell by cell"
    )
    p_diff.add_argument("a", help="baseline timeline JSONL file")
    p_diff.add_argument("b", help="comparison timeline JSONL file")
    p_diff.add_argument(
        "--role",
        choices=("sim", "experiment", "any"),
        default="sim",
        help=(
            "which runs to pair (default sim; 'any' keeps both roles, "
            "and each run pairs with the run of the same role in the "
            "other file)"
        ),
    )
    p_diff.add_argument(
        "--top", type=int, default=5,
        help="how many per-task duration movers to list",
    )

    p_top = sub.add_parser(
        "top", help="live per-worker view of a running study"
    )
    p_top.add_argument(
        "source",
        help="a --live-out snapshot file, or the /state URL of a "
        "'repro serve-metrics' endpoint",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period in seconds (default 1.0)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one view and exit instead of refreshing",
    )

    p_serve = sub.add_parser(
        "serve-metrics",
        help="HTTP /metrics endpoint over a live snapshot or trace file",
    )
    p_serve.add_argument(
        "source",
        help="a --live-out snapshot (live gauges), or a --trace-out / "
        "--timeline-out file (post-hoc rollups); re-read per scrape",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_serve.add_argument(
        "--port", type=int, default=9308,
        help="bind port (0 = ephemeral; default 9308)",
    )
    p_serve.add_argument(
        "--once", action="store_true",
        help="print the current /metrics payload to stdout and exit "
        "instead of serving",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or invalidate the result cache"
    )
    p_cache.add_argument(
        "action",
        choices=("info", "clear", "prune"),
        help="info: entry counts and sizes; clear: delete everything; "
        "prune: delete stale (old schema or unread layer) and corrupt "
        "entries only",
    )
    add_cache_dir(p_cache)
    return parser


def _cmd_figures(ctx: StudyContext, args: argparse.Namespace) -> int:
    wanted = (
        [w.strip() for w in args.only.split(",") if w.strip()]
        if args.only
        else list(_FIGURES) + list(_COMPARISON_FIGURES)
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in wanted:
        if name in _FIGURES:
            builder, renderer = _FIGURES[name]
            blocks = [renderer(builder(ctx))]
        elif name in _COMPARISON_FIGURES:
            sim, builder = _COMPARISON_FIGURES[name]
            blocks = [
                reporting.render_comparison(
                    builder(ctx, n=n), paper_wrong=fig_mod.PAPER_WRONG[sim][n]
                )
                for n in (2000, 3000)
            ]
        else:
            print(f"unknown figure {name!r}; choose from "
                  f"{sorted(list(_FIGURES) + list(_COMPARISON_FIGURES))}",
                  file=sys.stderr)
            return 2
        for i, text in enumerate(blocks):
            suffix = f"_{(2000, 3000)[i]}" if len(blocks) > 1 else ""
            print(f"===== {name}{suffix} =====")
            print(text)
            print()
            if out_dir:
                (out_dir / f"{name}{suffix}.txt").write_text(text + "\n")
    return 0


def _cmd_study(ctx: StudyContext, args: argparse.Namespace) -> int:
    study = ctx.study(args.simulator)
    cmp = compare_algorithms(study, simulator=args.simulator, n=args.n)
    print(reporting.render_comparison(cmp))
    return 0


def _params(args: argparse.Namespace, seed: int) -> DagParameters:
    return DagParameters(
        num_input_matrices=args.width,
        add_ratio=args.ratio,
        n=args.n,
        sample=args.sample,
        seed=seed,
    )


def _cmd_dag(ctx: StudyContext, args: argparse.Namespace) -> int:
    graph = generate_dag(_params(args, ctx.seed))
    if args.json:
        print(json.dumps(graph.to_dict(), indent=2))
        return 0
    print(f"{graph.name}: {len(graph)} tasks, {graph.num_edges} edges")
    rows = [
        [t.task_id, t.kernel.name, t.n,
         ",".join(map(str, graph.predecessors(t.task_id))) or "-"]
        for t in graph
    ]
    print(format_table(["task", "kernel", "n", "depends on"], rows))
    return 0


def _cmd_simulate(ctx: StudyContext, args: argparse.Namespace) -> int:
    graph = generate_dag(_params(args, ctx.seed))
    suite = ctx.suite(args.simulator)
    costs = SchedulingCosts(
        graph,
        ctx.platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )
    schedule = schedule_dag(graph, costs, args.algorithm)
    simulator = ApplicationSimulator(
        ctx.platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )
    sim_trace = simulator.run(graph, schedule)
    exp_trace = ctx.emulator.execute(graph, schedule)
    print(f"dag: {graph.name}  algorithm: {args.algorithm}  "
          f"simulator: {args.simulator}")
    print(f"allocations: {schedule.allocations()}")
    print(f"simulated makespan:    {sim_trace.makespan:10.3f} s")
    print(f"experimental makespan: {exp_trace.makespan:10.3f} s")
    print(f"simulation error:      "
          f"{100 * abs(sim_trace.makespan - exp_trace.makespan) / exp_trace.makespan:10.1f} %")
    if args.gantt:
        print()
        print(render_gantt(exp_trace, num_hosts=ctx.platform.num_nodes))
    if args.trace_json:
        print(trace_to_json(exp_trace))
    return 0


def _profile_wall(ctx: StudyContext, args: argparse.Namespace) -> int:
    """Profile a mini-study's wall-clock time.

    Runs the first ``--dags`` Table I DAGs through the full pipeline
    (schedule, simulate, execute) with a :class:`Profiler` attached and
    prints the hierarchical span tree and per-kernel cost table.
    """
    from repro.experiments.runner import run_study
    from repro.obs import chrome_profile_trace, collapsed_stacks, recording

    profiler = Profiler()
    dags = ctx.dags[: args.dags]
    print(
        f"profiling a {len(dags)}-DAG mini-study "
        f"(workers={ctx.workers}) ..."
    )
    with recording(Recorder(MemorySink(), profiler=profiler)):
        run_study(
            dags,
            [ctx.suite("analytic")],
            ctx.emulator,
            workers=ctx.workers,
        )
    print()
    print(profiler.render())
    if args.flame:
        Path(args.flame).write_text(
            collapsed_stacks(profiler), encoding="utf-8"
        )
        print(f"wrote {args.flame}")
    if args.chrome:
        Path(args.chrome).write_text(
            json.dumps(chrome_profile_trace(profiler), indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.chrome}")
    return 0


def _cmd_profile(ctx: StudyContext, args: argparse.Namespace) -> int:
    if args.what == "wall":
        return _profile_wall(ctx, args)
    emu = ctx.emulator
    if args.what == "kernels":
        from repro.profiling.profiler import profile_kernels

        profile = profile_kernels(emu, trials=args.trials)
        rows = [
            [k, n, p, t] for (k, n, p), t in sorted(profile.means.items())
        ]
        print(format_table(["kernel", "n", "p", "mean time [s]"], rows))
    elif args.what == "startup":
        f3 = fig_mod.figure3(ctx, trials=args.trials)
        print(reporting.render_figure3(f3))
    else:
        f4 = fig_mod.figure4(ctx, trials=args.trials)
        print(reporting.render_figure4(f4))
    return 0


def _cmd_variance(ctx: StudyContext, args: argparse.Namespace) -> int:
    from repro.experiments.variance import run_variance_study

    dags = [d for d in ctx.dags if d[0].n == args.n][: args.dags]
    study = run_variance_study(
        dags, ctx.suite(args.simulator), ctx.emulator, runs=args.runs,
        n=args.n,
    )
    rows = [
        [
            d.dag_label,
            d.rel_sim,
            d.rel_exp_mean,
            d.rel_exp_std,
            f"{d.winner_stability:.2f}",
            "noise" if d.noise_dominated else (
                "FLIP" if d.sign_flipped_vs_mean else "ok"
            ),
        ]
        for d in study.dags
    ]
    print(
        format_table(
            ["dag", "rel sim", "rel exp", "std", "stability", "verdict"],
            rows,
            float_fmt="{:+.3f}",
        )
    )
    print(
        f"\nnoise-dominated: {study.num_noise_dominated} / {len(study.dags)}"
        f"; flips vs mean: {study.num_flips_vs_mean}"
        f" (model-dominated: {study.num_model_dominated_flips})"
    )
    return 0


def _cmd_attribution(ctx: StudyContext, args: argparse.Namespace) -> int:
    from repro.experiments.attribution import attribute_gap

    graph = generate_dag(_params(args, ctx.seed))
    suite = ctx.analytic_suite
    costs = SchedulingCosts(
        graph,
        ctx.platform,
        suite.task_model,
        startup_model=suite.startup_model,
        redistribution_model=suite.redistribution_model,
    )
    schedule = schedule_dag(graph, costs, args.algorithm)
    att = attribute_gap(graph, schedule, suite, ctx.profile_suite, ctx.emulator)
    print(f"dag: {att.dag_label}  algorithm: {args.algorithm}")
    print(f"analytic simulation: {att.base_makespan:8.2f} s")
    print(f"experiment:          {att.exp_makespan:8.2f} s")
    print("gap attribution (Section V-C, computed):")
    for culprit, seconds in att.contributions.items():
        share = att.fractions()[culprit]
        print(f"  {culprit:<22} {seconds:+8.2f} s  ({100 * share:+.0f} %)")
    print(f"  {'residual':<22} {att.residual:+8.2f} s")
    return 0


def _cmd_cache(ctx: StudyContext, args: argparse.Namespace) -> int:
    cache = ctx.cache
    if cache is None:
        print(
            "error: no cache directory; pass --cache-dir PATH",
            file=sys.stderr,
        )
        return 2
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    if args.action == "prune":
        removed = cache.prune()
        print(f"pruned {removed} stale/corrupt entries from {cache.root}")
        return 0
    info = cache.info()
    print(f"cache: {info.root}  (schema {info.schema})")
    print(f"entries: {info.entries}  bytes: {info.bytes}")
    if info.stale_entries or info.corrupt_entries:
        print(
            f"stale: {info.stale_entries}  corrupt: {info.corrupt_entries}"
            "  (run 'repro cache prune')"
        )
    if info.namespaces:
        rows = [
            [name, ns["entries"], ns["bytes"]]
            for name, ns in sorted(info.namespaces.items())
        ]
        print(format_table(["layer", "entries", "bytes"], rows))
    return 0


def _cmd_report(ctx: StudyContext, args: argparse.Namespace) -> int:
    try:
        if args.json:
            from repro.obs.report import load_trace, report_json

            records, manifest = load_trace(args.trace)
            print(json.dumps(report_json(records, manifest), indent=2))
        else:
            print(report_file(args.trace, top=args.top))
    except TraceReadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_trace(ctx: StudyContext, args: argparse.Namespace) -> int:
    from repro.obs.export import export_file, summarize_file

    try:
        if args.trace_command == "export":
            text = export_file(args.trace, args.format)
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
                print(f"wrote {args.out}")
            else:
                print(text, end="" if text.endswith("\n") else "\n")
        else:
            print(summarize_file(args.trace))
    except (TraceReadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_diff(ctx: StudyContext, args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_files

    role = None if args.role == "any" else args.role
    try:
        print(diff_files(args.a, args.b, role=role, top=args.top))
    except TraceReadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _fetch_snapshot(source: str) -> dict:
    """A live snapshot from a file path or a serve-metrics /state URL."""
    from repro.obs.live import load_snapshot

    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        with urlopen(source, timeout=10) as resp:
            snap = json.loads(resp.read().decode("utf-8"))
        if not isinstance(snap, dict):
            raise ValueError(f"{source}: response is not a snapshot object")
        return snap
    return load_snapshot(source)


def _cmd_top(ctx: StudyContext, args: argparse.Namespace) -> int:
    import time

    from repro.obs.live import render_top

    tty = sys.stdout.isatty()
    try:
        while True:
            try:
                snap = _fetch_snapshot(args.source)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if tty and not args.once:
                # Home + clear-to-end keeps the refresh flicker-free.
                sys.stdout.write("\033[H\033[J")
            print(render_top(snap))
            sys.stdout.flush()
            if args.once or snap.get("phase") == "done":
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_serve_metrics(ctx: StudyContext, args: argparse.Namespace) -> int:
    from repro.obs.serve import (
        MetricsServer,
        ProviderError,
        file_metrics_provider,
        file_state_provider,
    )

    provider = file_metrics_provider(args.source)
    if args.once:
        try:
            text = provider()
        except ProviderError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text, end="" if text.endswith("\n") else "\n")
        return 0
    server = MetricsServer(
        provider,
        file_state_provider(args.source),
        host=args.host,
        port=args.port,
    )
    print(
        f"serving {args.source} at {server.metrics_url} "
        f"(state: {server.url}/state; ctrl-C to stop)"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "study": _cmd_study,
    "dag": _cmd_dag,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "variance": _cmd_variance,
    "attribution": _cmd_attribution,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "diff": _cmd_diff,
    "cache": _cmd_cache,
    "top": _cmd_top,
    "serve-metrics": _cmd_serve_metrics,
}


def _render_metrics(recorder: Recorder) -> str:
    metrics = recorder.metrics()
    lines = ["===== metrics ====="]
    if metrics["counters"]:
        lines.append(
            format_table(
                ["counter", "value"],
                [[k, f"{v:g}"] for k, v in metrics["counters"].items()],
            )
        )
    if metrics["spans"]:
        lines.append(
            format_table(
                ["span", "count", "total [s]", "mean [ms]"],
                [
                    [k, s["count"], f"{s['total_s']:.4f}",
                     f"{1e3 * s['mean_s']:.3f}"]
                    for k, s in metrics["spans"].items()
                ],
            )
        )
    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    recorder: Recorder | None = None
    if args.trace_out or args.metrics or args.timeline_out or args.profile:
        sink = JsonlSink(args.trace_out) if args.trace_out else None
        timeline = (
            Timeline.to_file(args.timeline_out) if args.timeline_out else None
        )
        profiler = Profiler() if args.profile else None
        if sink is None and timeline is None:
            recorder = Recorder(MemorySink(), profiler=profiler)
        else:
            recorder = Recorder(sink, timeline=timeline, profiler=profiler)
        set_recorder(recorder)
    telemetry = None
    progress = None
    if args.progress or args.live_out:
        from repro.obs.live import LiveTelemetry, ProgressPrinter

        telemetry = LiveTelemetry(
            snapshot_path=args.live_out or None
        ).start()
        if args.progress:
            progress = ProgressPrinter(telemetry)
    ctx = StudyContext(
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir or None,
        telemetry=telemetry,
    )
    try:
        return _COMMANDS[args.command](ctx, args)
    finally:
        if progress is not None:
            progress.close()
        if telemetry is not None:
            telemetry.close()
        if recorder is not None:
            manifest = RunManifest.collect(
                seed=args.seed,
                cluster=ctx.platform,
                command=args.command,
                recorder=recorder,
            )
            emit_manifest(recorder, manifest)
            recorder.close()
            set_recorder(None)
            if args.metrics:
                print(_render_metrics(recorder))
            if recorder.profiler is not None:
                print("===== wall-clock profile =====")
                print(recorder.profiler.render())


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
