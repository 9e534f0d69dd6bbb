"""Cache schema version and layers: what makes an entry current.

Every on-disk cache entry embeds :data:`CACHE_SCHEMA_VERSION`; an entry
whose embedded version differs from the running code's is *stale* and
is discarded on read (see :class:`repro.cache.store.CacheStore`).  Bump
it whenever the semantics of any cached computation change — a
scheduling algorithm tweak, a simulator fix, a calibration change, a
serialization change — so old entries can never masquerade as fresh
results.

An entry is also stale when it sits under a layer outside
:data:`CACHE_LAYERS`, the layers the code reads: no lookup would ever
reach it, so ``repro cache info`` counts it as stale and ``repro cache
prune`` removes it.

CI keys its persisted ``.repro-cache`` on a hash of this file and of
:mod:`repro.cache.keys`, so a bump or a new key layout also invalidates
the cache carried between workflow runs.
"""

from __future__ import annotations

__all__ = ["CACHE_LAYERS", "CACHE_SCHEMA_VERSION"]

#: Bump on any semantic change to cached computations (see module doc).
CACHE_SCHEMA_VERSION = "repro-cache-1"

#: The layers the code reads: fitted simulator suites and study cells.
CACHE_LAYERS = ("calibration", "cell")
