"""One study-benchmark workload, measured in a fresh interpreter.

``bench/run.py`` starts this script with a clean environment; it is not
meant to be run by hand.  It prints one JSON object on stdout holding
the raw measurements (set-up time, per-pass wall and CPU times, record
digests, peak RSS, the host-speed probe around set-up and every pass
and, when traced, per-pass layer numbers).  ``run.py`` turns them into
metrics.

    workload.py --workload NAME --seed S [--trace] [--quick]
    workload.py --workload NAME --seed S --setup-only [--quick]
    workload.py --write-reference FILE

One pass is one ``run_study`` call over a freshly built grid: the Table I
DAGs, a testbed emulator and the three calibrated simulator suites
(analytic, profile, empirical) with HCPA and MCPA, 324 cells.  The next
pass starts when the previous one returns (a closed loop with one
client).  Grids cycle through :data:`CYCLE` seeds so that every pass of
seeds 0 and 1 has a committed reference digest.  Every workload makes a
fixed number of passes, a whole number of cycles, so each grid seed
weighs the same in every run and on every commit.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from before ``import repro``

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR.parent)]

try:
    import repro  # noqa: E402
except ImportError as exc:
    sys.exit(f"workload: cannot import repro from {SRC}: {exc}")
if SRC.resolve() not in Path(repro.__file__).resolve().parents:
    sys.exit(f"workload: repro imported from {repro.__file__}, not from {SRC}")

from repro import (  # noqa: E402
    ResultCache,
    TGridEmulator,
    bayreuth_cluster,
    build_empirical_suite,
    build_profile_suite,
    generate_paper_dags,
    run_study,
)
from repro.obs import LiveTelemetry, MemorySink, Profiler, Recorder, Timeline  # noqa: E402
from repro.obs.recorder import recording  # noqa: E402
from repro.profiling.calibration import build_analytical_suite  # noqa: E402

from bench.trace import Tracer, layer_metrics  # noqa: E402

#: Grid seeds cycle with this period (quick mode: 2).
CYCLE = 4
#: A traced run makes one cycle of passes.
TRACE_PASSES = CYCLE
#: Quick mode: exactly this many passes over every 9th DAG (6 DAGs).
QUICK_PASSES = 2
QUICK_STRIDE = 9
#: ``incremental_cache`` replaces DAGs with those of seed S + this + k.
REPLACE_OFFSET = 1000
#: Pool size of the pool workloads.
WORKERS = min(os.cpu_count() or 1, 4)
#: Size of the host-speed probe (about 0.1 s), and the probe time that
#: every end-to-end time is scaled to (see :func:`host_probe`).
PROBE_TASKS = 3000
PROBE_SWEEPS = 180
PROBE_REF_S = 0.1


@dataclass(frozen=True)
class Spec:
    pool: bool = False
    cache: bool = False
    observed: bool = False
    #: Untraced passes per run, a multiple of CYCLE.  Sized so that the
    #: timed passes take about ``run_seconds`` (20 s) on a 2-vCPU host,
    #: and that 22 runs of every workload fit in 57 minutes there;
    #: change these, never the per-pass grid, to change the run length.
    passes: int = CYCLE


WORKLOADS = {
    "cold_serial": Spec(passes=12),
    "cold_pool": Spec(pool=True, passes=20),
    "incremental_cache": Spec(cache=True, passes=16),
    "observed_pool": Spec(pool=True, observed=True, passes=16),
}


@dataclass
class Grid:
    index: int  # position in the seed cycle; selects the reference digest
    dags: list
    emulator: TGridEmulator
    suites: list
    generate_s: float
    calibrate_s: float


def digest(records) -> str:
    """SHA-256 over every record's fields in grid order (makespans as hex)."""
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.dag_label}\t{r.n}\t{r.algorithm}\t{r.simulator}\t"
            f"{float(r.sim_makespan).hex()}\t{float(r.exp_makespan).hex()}\t"
            f"{r.total_alloc}\n".encode()
        )
    return h.hexdigest()


def _paper_dags(seed: int, quick: bool) -> list:
    dags = generate_paper_dags(seed=seed)
    return dags[::QUICK_STRIDE] if quick else dags


def build_grid(
    index: int, env_seed: int, quick: bool, replace: tuple[int, int] | None = None
) -> Grid:
    """The study inputs for one pass.

    ``replace = (dag_seed, slot)`` swaps every DAG slot ``i`` with
    ``i % 4 == slot`` for the DAG of ``dag_seed`` in the same slot.
    """
    t0 = time.perf_counter()
    dags = _paper_dags(env_seed, quick)
    if replace is not None:
        dag_seed, slot = replace
        fresh = _paper_dags(dag_seed, quick)
        dags = [fresh[i] if i % 4 == slot else d for i, d in enumerate(dags)]
    t1 = time.perf_counter()
    platform = bayreuth_cluster(32)
    emulator = TGridEmulator(platform, seed=env_seed)
    suites = [
        build_analytical_suite(platform),
        build_profile_suite(emulator),
        build_empirical_suite(emulator),
    ]
    return Grid(index, dags, emulator, suites, t1 - t0, time.perf_counter() - t1)


def pass_grid(spec: Spec, seed: int, k: int, quick: bool) -> Grid:
    index = k % (QUICK_PASSES if quick else CYCLE)
    if spec.cache:
        replace = (seed + REPLACE_OFFSET + index, index % 4)
        return build_grid(index, seed, quick, replace)
    return build_grid(index, seed + index, quick)


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class _ProbeTask:
    __slots__ = ("preds", "cost", "finish")


def host_probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of interpreter work.

    A shared host's speed drifts by tens of percent over minutes, and
    CPU time drifts with it: the contention is in shared cores and
    caches, not in stolen time.  This work is timed next to every pass
    to measure that drift.  It is the study's kind of work, finish-time
    sweeps over a graph of Python objects, whose slowdown tracks the
    study's more closely than heap, dict or numpy loops do.  It uses
    only the standard library, never ``repro``, so no change to the
    program moves it.
    """
    rng = random.Random(0)
    tasks: list[_ProbeTask] = []
    for i in range(PROBE_TASKS):
        task = _ProbeTask()
        task.preds = [tasks[rng.randrange(i)] for _ in range(min(i, 3))]
        task.cost = rng.random()
        task.finish = 0.0
        tasks.append(task)
    was_enabled = gc.isenabled()
    gc.disable()
    c0 = time.process_time()
    t0 = time.perf_counter()
    for _ in range(PROBE_SWEEPS):
        for task in tasks:
            start = 0.0
            for pred in task.preds:
                if pred.finish > start:
                    start = pred.finish
            task.finish = start + task.cost
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if was_enabled:
        gc.enable()
    return wall, cpu


def _files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


class Workload:
    """Set-up and passes of one workload in this process."""

    def __init__(self, name: str, seed: int, quick: bool, tmp: Path) -> None:
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.cache_dir = tmp / "cache"
        self.spool_dir = tmp / "spans"
        self.spool_dir.mkdir()
        self._pristine: set[Path] = set()
        # One live bus for the whole run, as the CLI attaches one to
        # every study of an invocation.
        self.telemetry = LiveTelemetry().start() if self.spec.observed else None

    def close(self) -> None:
        if self.telemetry is not None:
            self.telemetry.close()

    def setup(self) -> Grid:
        """Everything before the first pass can start."""
        if self.spec.cache:
            base = build_grid(0, self.seed, self.quick)
            run_study(
                base.dags, base.suites, base.emulator,
                cache=ResultCache(self.cache_dir),
            )
            self._pristine = _files(self.cache_dir)
        return pass_grid(self.spec, self.seed, 0, self.quick)

    def restore_cache(self) -> None:
        """Drop the entries a pass wrote, back to the prefilled state."""
        if self.spec.cache:
            for path in _files(self.cache_dir) - self._pristine:
                path.unlink()

    def run_pass(self, grid: Grid, spec: Spec, tracer: Tracer | None = None) -> dict:
        """Time one study; returns the pass record."""
        cache = ResultCache(self.cache_dir) if spec.cache else None
        workers = WORKERS if spec.pool else 1
        out = {
            "grid": grid.index,
            "cells": len(grid.dags) * len(grid.suites) * 2,
            "digest": None,
            "error": None,
        }
        recorder = None
        if spec.observed:
            recorder = Recorder(MemorySink(), timeline=Timeline(), profiler=Profiler())
        telemetry = self.telemetry if spec.observed else None
        if tracer is not None:
            tracer.begin_pass()
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with recording(recorder) if recorder is not None else nullcontext():
                result = run_study(
                    grid.dags, grid.suites, grid.emulator,
                    workers=workers, cache=cache, telemetry=telemetry,
                )
        except Exception:
            out["error"] = traceback.format_exc()
            print(out["error"], file=sys.stderr)
            result = None
        finally:
            out["wall_s"] = time.perf_counter() - t0
            out["cpu_s"] = _cpu_s() - c0
        if result is not None:
            out["digest"] = digest(result.records)
        if tracer is not None:
            parent, pool = tracer.end_pass()
            layers = layer_metrics(parent, pool, out["wall_s"], workers)
            layers["dag.generate_s"] = grid.generate_s
            layers["profiling.calibrate_s"] = grid.calibrate_s
            layers["obs.records"] = (
                len(recorder.sink.records) + len(recorder.timeline.records)
                if recorder is not None
                else 0
            )
            out["layers"] = layers
            out["worker_layer_busy_s"] = pool["layer_busy_s"]
            out["parent_busy_s"] = parent["busy_s"]
            out["parent_spans"] = sorted(parent["self_s"])
        return out


def _expected_digests(
    reference: Path, seed: int, quick: bool, spec: Spec
) -> dict[int, str] | None:
    entry = json.loads(reference.read_text())["seeds"].get(str(seed))
    if entry is None:
        return None
    digests = entry["quick" if quick else "full"]
    return dict(enumerate(digests["incremental" if spec.cache else "cold"]))


def measure(
    work: Workload, grid0: Grid, probe: tuple[float, float], trace: bool, reference: Path
) -> dict:
    """The timed loop, then the correctness verdict of every pass.

    ``probe`` is the :func:`host_probe` taken just before the loop.
    """
    spec = work.spec
    tracer = Tracer(work.spool_dir) if trace else None
    # A traced run pairs every traced pass with an untraced one on the
    # same grid (for trace.overhead); observed_pool adds a traced
    # cold_pool pass on the same grid (for obs.emit_s).
    kinds = [("plain", spec)]
    if trace:
        kinds.append(("traced", spec))
        if spec.observed:
            kinds.append(("companion", WORKLOADS["cold_pool"]))
    passes: list[dict] = []
    grid: Grid | None = grid0
    count = QUICK_PASSES if work.quick else TRACE_PASSES if trace else spec.passes
    for k in range(count):
        for kind, kind_spec in kinds:
            if grid is None:
                grid = pass_grid(spec, work.seed, k, work.quick)
            traced = kind != "plain"
            if traced:
                tracer.install()
            try:
                record = work.run_pass(grid, kind_spec, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            grid = None
            work.restore_cache()
            # The host's speed during a pass: the probes on either side.
            before, probe = probe, host_probe()
            record.update(
                k=k, kind=kind,
                probe_s=(before[0] + probe[0]) / 2,
                probe_cpu_s=(before[1] + probe[1]) / 2,
            )
            passes.append(record)
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (me + kids) / 1024.0

    expected = _expected_digests(reference, work.seed, work.quick, spec)
    referenced = expected is not None
    if referenced:
        check = f"reference digests of seed {work.seed}"
    else:
        # No reference: every pass over one grid must agree, and grid 0
        # must agree with an independent run through the other executor
        # (serial <-> pool), without cache or recorder.
        expected = {}
        for record in passes:
            if record["digest"] is not None:
                expected.setdefault(record["grid"], record["digest"])
        other = 1 if spec.pool else WORKERS
        cross = pass_grid(spec, work.seed, 0, work.quick)
        try:
            result = run_study(cross.dags, cross.suites, cross.emulator, workers=other)
            expected[0] = digest(result.records)
        except Exception:
            traceback.print_exc()
            expected[0] = None
        check = f"no reference for seed {work.seed}: passes agree per grid, grid 0 cross-checked with workers={other}"
    for record in passes:
        ok = record["digest"] is not None and record["digest"] == expected.get(record["grid"])
        record["correct"] = record["cells"] if ok else 0
    return {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "referenced": referenced,
        "check": check,
    }


def write_reference(path: Path) -> None:
    """Digests of every pass of seeds 0 and 1, by serial no-cache runs."""
    seeds: dict = {}
    for seed in (0, 1):
        entry = seeds[str(seed)] = {}
        for mode, quick, count in (("full", False, CYCLE), ("quick", True, QUICK_PASSES)):
            entry[mode] = {}
            for kind, spec in (("cold", Spec()), ("incremental", Spec(cache=True))):
                digests = []
                for k in range(count):
                    grid = pass_grid(spec, seed, k, quick)
                    digests.append(digest(run_study(grid.dags, grid.suites, grid.emulator).records))
                entry[mode][kind] = digests
                print(f"seed {seed} {mode} {kind}: {count} digests", file=sys.stderr)
    payload = {
        "about": (
            "SHA-256 per pass of bench/workload.py digest(); cold passes "
            "k use grid seed S + k % cycle, incremental passes mix seed S "
            "with seed S + 1000 + k % cycle; computed serially without cache"
        ),
        "cycle": {"full": CYCLE, "quick": QUICK_PASSES},
        "seeds": seeds,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--write-reference", metavar="FILE")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(Path(args.write_reference))
        print(json.dumps({"wrote": args.write_reference}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    work = Workload(args.workload, args.seed, args.quick, tmp)
    try:
        grid0 = work.setup()
        setup_s = time.perf_counter() - _T0
        probe = host_probe()  # the host's speed, to scale setup_s by
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "setup_probe_s": probe[0],
            "probe_ref_s": PROBE_REF_S,
        }
        if not args.setup_only:
            out.update(workers=WORKERS, quick=args.quick, trace=args.trace)
            out.update(measure(work, grid0, probe, args.trace, args.reference))
        print(json.dumps(out))
    finally:
        work.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
