"""The memoization facade the pipeline integrates against.

A :class:`ResultCache` wraps one :class:`~repro.cache.store.CacheStore`
and exposes :meth:`get_or_compute` over named *layers*:

``calibration``
    Fitted simulator suites, keyed by the emulator's configuration and
    the measurement plan.  Shared across every study on the same
    environment.
``cell``
    One study cell: its simulated makespan, experimental makespan and
    total allocation, keyed by the algorithm, the DAG, the suite's
    simulator models and the emulator (see
    :func:`~repro.cache.keys.cell_key`).  The study runner reads and
    writes only this layer.

These are the only layers (:data:`~repro.cache.schema.CACHE_LAYERS`):
the store reads an entry under any other layer as stale.  Every key
additionally includes the cache schema version (via the store's
envelope), so a code-semantics bump invalidates everything at once.
Hit/miss tallies are recorded per layer through the global
:class:`~repro.obs.recorder.Recorder` as ``cache.hits`` /
``cache.misses`` / ``cache.<layer>.hits`` / ``cache.<layer>.misses``
counters, alongside the store's ``cache.bytes_read`` /
``cache.bytes_written``; ``repro report`` turns them into per-layer
hit rates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.cache.keys import canonical_hash
from repro.cache.store import CacheStore, CacheStoreInfo
from repro.obs.recorder import get_recorder

__all__ = ["ResultCache"]

T = TypeVar("T")


class ResultCache:
    """Content-addressed memoization over a directory.

    Safe to share with forked pool workers: lookups and stores go
    through the store's atomic file protocol, and every read goes to
    the disk.
    """

    def __init__(self, root: str | Path) -> None:
        self.store = CacheStore(root)

    @property
    def root(self) -> Path:
        return self.store.root

    # -- the memoization primitive -------------------------------------
    def get_or_compute(
        self, layer: str, key: Any, compute: Callable[[], T]
    ) -> T:
        """Return the cached value for ``(layer, key)`` or compute it.

        ``key`` is any canonically-encodable structure (see
        :mod:`repro.cache.keys`); ``compute`` runs only on a miss and
        its result is persisted before being returned.
        """
        digest = canonical_hash(key)
        found, value = self.store.get(layer, digest)
        obs = get_recorder()
        if found:
            if obs.enabled:
                obs.count("cache.hits")
                obs.count(f"cache.{layer}.hits")
            return value
        if obs.enabled:
            obs.count("cache.misses")
            obs.count(f"cache.{layer}.misses")
        value = compute()
        self.store.put(layer, digest, value)
        return value

    def contains(self, layer: str, key: Any) -> bool:
        """Existence hint for ``(layer, key)`` without reading the entry.

        Advisory only — a stale entry answers True; callers must treat
        a wrong hint as "use the normal path", never as data.
        """
        return self.store.contains(layer, canonical_hash(key))

    # -- maintenance (the ``repro cache`` command) ---------------------
    def info(self) -> CacheStoreInfo:
        return self.store.info()

    def prune(self) -> int:
        return self.store.prune()

    def clear(self) -> int:
        return self.store.clear()
