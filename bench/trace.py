"""Outside-in layer tracer for the study benchmark.

The benchmark does not instrument ``src/``.  Instead, :class:`Tracer`
replaces the public entry points the study runner calls with thin
wrappers that record one span per call: its name, start, end and the
span that called it.  Spans stay in memory.  A span's self time is its
duration minus the durations of its direct children.

Forked pool workers inherit the wrappers.  Each worker starts with an
empty span list and writes it, at exit, to ``spans-<pid>.pkl`` in the
spool directory; :meth:`Tracer.end_pass` folds those files in.

Span names map onto the repository's layers:

========================  =============================================
``scheduling.allocate``   each ``driver.ALGORITHMS`` entry
``scheduling.map``        ``driver.map_allocations``
``scheduling.schedule``   ``runner.schedule_dag`` (self time = the rest)
``simgrid.simulate``      ``ApplicationSimulator.run``, not under testbed
``testbed.engine``        ``ApplicationSimulator.run`` under the testbed
``testbed.execute``       ``TGridEmulator.execute``
``cache.hash``            ``canonical_hash`` and the ``*_fingerprint``
                          names of ``runner``, ``driver`` and ``keys``
``cache.get`` / ``put``   ``CacheStore.get`` / ``CacheStore.put``
``cache.probe``           ``CacheStore.peek`` and ``CacheStore.contains``
``obs.export``            ``Recorder.export_state``
``obs.absorb``            ``Recorder.absorb`` and ``Timeline.absorb``
``runner.wait``           ``Future.result`` (the parent's dispatch wait)
========================  =============================================
"""

from __future__ import annotations

import functools
import multiprocessing.util
import os
import pickle
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "summarize", "layer_metrics"]

# ``ApplicationSimulator.run`` serves both the simulators and the
# testbed; the parent span decides which layer a call belongs to.
_ENGINE = "engine.run"


def _cache_get_extra(result):
    found, _value = result
    return "hit" if found else "miss"


def _cache_put_extra(result):
    return result  # bytes written


class Tracer:
    """Records spans around the study's layer entry points.

    ``install()`` patches the entry points, ``uninstall()`` restores
    them, so untraced and traced passes can alternate in one process.
    Only the thread that created the tracer (or, in a forked worker,
    the thread that forked) records spans; other threads call through.
    """

    def __init__(self, spool_dir: str | Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- patching ------------------------------------------------------
    def _targets(self) -> list[tuple[object, str, str, object]]:
        from concurrent.futures import Future

        from repro.cache import keys, result_cache
        from repro.cache.store import CacheStore
        from repro.experiments import runner
        from repro.obs.recorder import Recorder
        from repro.obs.timeline import Timeline
        from repro.scheduling import driver
        from repro.simgrid.simulator import ApplicationSimulator
        from repro.testbed.tgrid import TGridEmulator

        targets = [
            (driver.ALGORITHMS, name, "scheduling.allocate", None)
            for name in driver.ALGORITHMS
        ]
        targets += [
            (driver, "map_allocations", "scheduling.map", None),
            (runner, "schedule_dag", "scheduling.schedule", None),
            (ApplicationSimulator, "run", _ENGINE, None),
            (TGridEmulator, "execute", "testbed.execute", None),
            (CacheStore, "get", "cache.get", _cache_get_extra),
            (CacheStore, "put", "cache.put", _cache_put_extra),
            (CacheStore, "peek", "cache.probe", None),
            (CacheStore, "contains", "cache.probe", None),
            (result_cache, "canonical_hash", "cache.hash", None),
            (Recorder, "export_state", "obs.export", None),
            (Recorder, "absorb", "obs.absorb", None),
            (Timeline, "absorb", "obs.absorb", None),
            (Future, "result", "runner.wait", None),
        ]
        for module in (runner, driver, keys):
            for attr in sorted(vars(module)):
                if attr.endswith("_fingerprint") and callable(
                    getattr(module, attr)
                ):
                    targets.append((module, attr, "cache.hash", None))
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, extra in self._targets():
            original = _get(owner, attr)
            self._patches.append((owner, attr, original))
            _set(owner, attr, self._wrap(name, original, extra))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)

    def _wrap(self, name: str, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(result)
            return result

        return traced

    # -- passes ----------------------------------------------------------
    def begin_pass(self) -> None:
        self.spans = []
        self._stack = []
        for path in self.spool_dir.glob("spans-*.pkl"):
            path.unlink()

    def end_pass(self) -> tuple[dict, dict]:
        """Summaries of this pass: ``(parent, workers)``.

        Worker spans come from the spool files of workers that exited
        during the pass; the study runner joins its pool before it
        returns, so every worker has flushed by then.
        """
        parent = summarize(self.spans)
        worker_spans: list[list[list]] = []
        for path in sorted(self.spool_dir.glob("spans-*.pkl")):
            with path.open("rb") as fh:
                worker_spans.append(pickle.load(fh))
            path.unlink()
        workers = summarize([])
        for spans in worker_spans:
            _merge(workers, summarize(spans))
        self.spans = []
        return parent, workers

    # -- forked workers ------------------------------------------------
    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()
        if self._patches:
            multiprocessing.util.Finalize(None, self._flush, exitpriority=10)

    def _flush(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.pkl"
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def summarize(spans: list[list]) -> dict:
    """Per-name self time and call count, plus cache outcomes.

    ``busy_s`` sums the root spans' durations (time spent inside any
    traced layer); ``layer_busy_s`` is the same without ``obs.*`` spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    out = {
        "self_s": {},
        "calls": {},
        "busy_s": 0.0,
        "layer_busy_s": 0.0,
        "hits": 0,
        "misses": 0,
        "bytes_written": 0,
    }
    self_s, calls = out["self_s"], out["calls"]
    for i, (name, start, end, parent, extra) in enumerate(spans):
        if name == _ENGINE:
            under_testbed = parent >= 0 and spans[parent][0] == "testbed.execute"
            name = "testbed.engine" if under_testbed else "simgrid.simulate"
        own = (end - start) - child[i]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if not name.startswith("obs."):
            out["layer_busy_s"] += own
        if parent < 0:
            out["busy_s"] += end - start
        if name == "cache.get":
            out["hits" if extra == "hit" else "misses"] += 1
        elif name == "cache.put":
            out["bytes_written"] += extra
    return out


def _merge(into: dict, other: dict) -> None:
    for key in ("self_s", "calls"):
        for name, value in other[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for key in ("busy_s", "layer_busy_s", "hits", "misses", "bytes_written"):
        into[key] += other[key]


def layer_metrics(parent: dict, workers: dict, wall_s: float, pool_size: int) -> dict:
    """Per-layer metrics of one traced pass.

    Layer times add the parent's and the workers' self times.
    ``runner.unattributed_s`` is the parent's pass wall time that no
    traced span covers, so the parent's self times plus it equal the
    wall time exactly.
    """
    total = summarize([])
    _merge(total, parent)
    _merge(total, workers)
    own, calls = total["self_s"], total["calls"]
    lookups = total["hits"] + total["misses"]
    return {
        "scheduling.allocate_s": own.get("scheduling.allocate", 0.0),
        "scheduling.allocate_calls": calls.get("scheduling.allocate", 0),
        "scheduling.map_s": own.get("scheduling.map", 0.0),
        "scheduling.schedule_self_s": own.get("scheduling.schedule", 0.0),
        "simgrid.simulate_s": own.get("simgrid.simulate", 0.0),
        "simgrid.simulate_calls": calls.get("simgrid.simulate", 0),
        "testbed.engine_s": own.get("testbed.engine", 0.0),
        "testbed.self_s": own.get("testbed.execute", 0.0),
        "testbed.execute_calls": calls.get("testbed.execute", 0),
        "cache.hash_s": own.get("cache.hash", 0.0),
        "cache.get_s": own.get("cache.get", 0.0),
        "cache.put_s": own.get("cache.put", 0.0),
        "cache.probe_s": own.get("cache.probe", 0.0),
        "cache.hits": total["hits"],
        "cache.misses": total["misses"],
        "cache.hit_ratio": total["hits"] / lookups if lookups else 0.0,
        "cache.bytes_written": total["bytes_written"],
        "runner.dispatch_wait_s": own.get("runner.wait", 0.0),
        "runner.chunks": calls.get("runner.wait", 0),
        "runner.worker_util": (
            workers["busy_s"] / (pool_size * wall_s) if pool_size > 1 else 0.0
        ),
        "runner.unattributed_s": wall_s - sum(parent["self_s"].values()),
        "obs.export_s": own.get("obs.export", 0.0),
        "obs.absorb_s": own.get("obs.absorb", 0.0),
    }
