"""Study benchmark: four study workloads, cells/s end to end.

    python3 bench/run.py [--workload NAME] [--seed S] [--trace [0|1]]
                         [--quick] [--out FILE]

Each workload runs in a fresh interpreter (``bench/workload.py``) with
every ``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``, so the
repository's defaults are what gets measured.  Each makes a fixed number
of passes, sized to ``run_seconds`` of ``BENCHMARK.json``; ``--seconds``
is accepted only with that value, so every run has the same length.
Set-up time is the median of three fresh interpreters.  Every time is
scaled to a reference host speed, measured by a fixed probe timed next
to it (``workload.host_probe``).  Without ``--workload`` all four
workloads run in turn.

Untraced runs print every end-to-end metric with its unit, median,
quartiles and sample count; ``--trace`` runs print the per-layer metrics
instead (see ``bench/README.md``).  With ``--workload`` the last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

The exit code is 0 when every record matched its reference, 1 when a
record was wrong, a pass raised, or (``--trace``) the attribution gate
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_PY = BENCH_DIR / "workload.py"

#: Fresh interpreters whose set-up time ``setup_s`` is the median of.
SETUP_SAMPLES = 3
#: A workload's measuring interpreter is stopped after this long.
RUN_TIMEOUT_S = 150
#: ``--trace`` fails when the parent time no span covers exceeds this
#: share of the pass wall time on these workloads (all their work is in
#: the parent, so the layer self times must add up to the wall time).
ATTRIBUTION_LIMIT = 0.05
ATTRIBUTION_GATED = ("cold_serial", "incremental_cache")
#: Cross-checked against each other when the seed has no reference.
SAME_GRIDS = ("cold_serial", "cold_pool", "observed_pool")


class BenchError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Spawns workload interpreters and turns their output into metrics."""

    def __init__(self, spec: dict, args: argparse.Namespace, tmp: Path) -> None:
        self.spec = spec
        self.args = args
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONHASHSEED"] = "0"
        self.env["TMPDIR"] = str(tmp)

    def _spawn(self, argv: list[str], timeout: float) -> dict:
        cmd = [sys.executable, str(WORKLOAD_PY), *argv]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
            text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:
            # Timeout, Ctrl-C or SIGTERM: stop the workload and its pool
            # workers (one process group) before leaving.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{' '.join(argv)}: timed out after {timeout:.0f} s") from None
            raise
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{' '.join(argv)}: exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def run(self, name: str) -> dict:
        """Measure one workload; returns its raw result plus metrics."""
        a = self.args
        common = ["--workload", name, "--seed", str(a.seed)]
        if a.quick:
            common.append("--quick")
        setup = []
        if not a.trace and not a.quick:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(self._spawn([*common, "--setup-only"], 120))
        argv = [*common, "--reference", str(a.reference)]
        if a.trace:
            argv.append("--trace")
        result = self._spawn(argv, RUN_TIMEOUT_S)
        setup.append(result)
        result["setup_samples"] = [s["setup_s"] for s in setup]
        result["setup_probes"] = [s["setup_probe_s"] for s in setup]
        passes = result["passes"]
        result["attempted"] = sum(p["cells"] for p in passes)
        result["failed"] = sum(p["cells"] - p["correct"] for p in passes)
        if a.trace:
            result["metrics"] = self._layer_metrics(result)
        else:
            result["metrics"] = self._end_to_end(result)
        return result

    def _end_to_end(self, result: dict) -> dict:
        # A shared host's speed drifts by tens of percent over minutes.
        # Every time is scaled to the speed at which the probe takes
        # ``probe_ref_s``, using the probe timed next to it.
        passes = result["passes"]
        ref = result["probe_ref_s"]
        values = {
            "cells_per_s": [p["correct"] / p["wall_s"] * p["probe_s"] / ref for p in passes],
            "cells_per_cpu_s": [p["correct"] / p["cpu_s"] * p["probe_cpu_s"] / ref for p in passes],
            "setup_s": [
                s * ref / probe for s, probe in zip(result["setup_samples"], result["setup_probes"])
            ],
            "peak_rss_mb": [result["peak_rss_mb"]],
        }
        result["host"] = {
            "probe_ms": 1000 * statistics.median(p["probe_s"] for p in passes),
            "unscaled_cells_per_s": statistics.median(p["correct"] / p["wall_s"] for p in passes),
        }
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        metrics = {name: dict(unit=units[name], **_stats(v)) for name, v in values.items()}
        metrics["failed_frac"] = dict(
            unit="fraction",
            **_stats([result["failed"] / result["attempted"]]),
        )
        return metrics

    def _layer_metrics(self, result: dict) -> dict:
        by_kind: dict[str, dict[int, dict]] = {}
        for p in result["passes"]:
            by_kind.setdefault(p["kind"], {})[p["k"]] = p
        traced = by_kind["traced"]
        plain = by_kind["plain"]
        companion = by_kind.get("companion", {})
        values: dict[str, list[float]] = {}
        for p in traced.values():
            for name, value in p["layers"].items():
                values.setdefault(name, []).append(value)
        values["obs.emit_s"] = [
            p["worker_layer_busy_s"] - companion[k]["worker_layer_busy_s"]
            if k in companion else 0.0
            for k, p in traced.items()
        ]
        values["trace.overhead"] = [p["wall_s"] / plain[k]["wall_s"] for k, p in traced.items()]
        result["unattributed_share"] = statistics.median(
            p["layers"]["runner.unattributed_s"] / p["wall_s"] for p in traced.values()
        )
        return {
            m["name"]: dict(unit=m["unit"], **_stats(values[m["name"]]))
            for m in self.spec["per_layer"]
        }


def _print_table(name: str, result: dict, trace: bool) -> None:
    passes = result["passes"]
    ok = sum(1 for p in passes if p["correct"] == p["cells"])
    print(
        f"== {name}{' (traced)' if trace else ''}  seed={result['seed']}  "
        f"workers={result['workers']}  passes={len(passes)}  "
        f"set-up samples={len(result['setup_samples'])}"
    )
    print(f"   correctness: {result['check']}; {ok}/{len(passes)} passes correct")
    if "host" in result:
        host = result["host"]
        print(
            f"   host speed: probe median {host['probe_ms']:.1f} ms, times scaled to "
            f"{1000 * result['probe_ref_s']:.0f} ms; unscaled cells/s median "
            f"{host['unscaled_cells_per_s']:.6g}"
        )
    print(f"   {'metric':<28} {'unit':<12} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    for metric, s in result["metrics"].items():
        print(
            f"   {metric:<28} {s['unit']:<12} {s['median']:>14.6g} "
            f"{s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>4}"
        )
    if trace:
        print(f"   attribution: unattributed {100 * result['unattributed_share']:.2f}% of pass wall")


def _cross_check(results: dict[str, dict]) -> list[str]:
    """Workloads over the same grids must produce the same digests."""
    seen: dict[int, tuple[str, str]] = {}
    problems = []
    for name in SAME_GRIDS:
        for p in results.get(name, {}).get("passes", ()):
            if p["digest"] is None:
                continue
            first = seen.setdefault(p["grid"], (name, p["digest"]))
            if first[1] != p["digest"]:
                problems.append(f"grid {p['grid']}: {name} differs from {first[0]}")
    return problems


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _write_out(path: Path, args: argparse.Namespace, results: dict[str, dict]) -> None:
    payload = {
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "commit": _commit(),
        "seed": args.seed,
        "trace": bool(args.trace),
        "quick": args.quick,
        "workloads": {
            name: {
                "workers": r["workers"],
                "passes": len(r["passes"]),
                "referenced": r["referenced"],
                "check": r["check"],
                "setup_s_samples": r["setup_samples"],
                "setup_probe_s_samples": r["setup_probes"],
                "probe_ref_s": r["probe_ref_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "per_pass": r["passes"],
                "metrics": r["metrics"],
            }
            for name, r in results.items()
        },
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"run.py: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="2 passes on a 6-DAG grid")
    parser.add_argument("--out", type=Path, help="write every measurement as JSON")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute bench/reference.json (seeds 0 and 1)")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(
            f"--seconds {args.seconds:g}: the pass counts are sized to "
            f"run_seconds = {spec['run_seconds']}, the only run length"
        )

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".bench_tmp"
    tmp = tmp_root / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(spec, args, tmp)
        if args.write_reference:
            runner._spawn(["--write-reference", str(args.reference)], 900)
            print(f"wrote {args.reference}")
            return 0
        results: dict[str, dict] = {}
        for name in [args.workload] if args.workload else names:
            try:
                results[name] = runner.run(name)
            except BenchError as exc:
                print(f"run.py: {exc}", file=sys.stderr)
                return 2
            _print_table(name, results[name], bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if args.out is not None:
        _write_out(args.out, args, results)
    failed = sum(r["failed"] for r in results.values())
    status = 0 if failed == 0 else 1
    if failed:
        print(f"FAIL: {failed} of {sum(r['attempted'] for r in results.values())} cells wrong or missing")
    if args.trace:
        for name in ATTRIBUTION_GATED:
            share = results.get(name, {}).get("unattributed_share")
            if share is not None and share > ATTRIBUTION_LIMIT:
                print(f"FAIL: {name}: unattributed {100 * share:.2f}% of pass wall > {100 * ATTRIBUTION_LIMIT:.0f}%")
                status = 1
    if args.workload is None and not all(r["referenced"] for r in results.values()):
        problems = _cross_check(results)
        for problem in problems:
            print(f"FAIL: cross-workload check: {problem}")
        if problems:
            status = 1
        else:
            print(f"cross-workload check: {', '.join(SAME_GRIDS)} agree pass for pass")
    if args.workload is not None:
        result = results[args.workload]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": s["median"], "unit": s["unit"]}
                for name, s in result["metrics"].items()
                if name != "failed_frac"
            },
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
