"""Content-addressed result cache with incremental study re-execution.

The study methodology is iterative: the same comparison grid is re-run
across simulator variants, matrix sizes and calibration sweeps.  This
package makes re-runs incremental — any grid cell whose inputs are
unchanged is replayed bit-identically from disk instead of recomputed,
and editing one parameter recomputes only the cells it reaches.  A
study caches each cell as one entry, so a warm cell reads one file and
a missed cell writes one.

Pieces
------
:mod:`repro.cache.keys`
    Canonical hashing: a deterministic type-tagged encoding (dict-order
    and float-formatting insensitive) plus domain fingerprints for
    DAGs, simulators and the emulator, the cell key layout, and
    :class:`~repro.cache.keys.StudyKeys`, which encodes a study's
    shared fingerprints once and splices them into every cell's key.
:mod:`repro.cache.store`
    Atomic file-per-entry store (write-temp-then-rename, fork-pool
    safe) with corruption/version-skew detection.
:mod:`repro.cache.result_cache`
    The :class:`ResultCache` facade the pipeline calls, with per-layer
    hit/miss counters through the observability Recorder.
:data:`CACHE_SCHEMA_VERSION`
    The code-generation fingerprint embedded in every entry; bumping it
    invalidates all previously persisted results.

Usage
-----
>>> from repro.cache import ResultCache
>>> cache = ResultCache(".repro-cache")
>>> cache.get_or_compute("cell", {"answer": 42}, lambda: "slow")
'slow'
>>> cache.get_or_compute("cell", {"answer": 42}, lambda: 1 / 0)
'slow'
"""

from repro.cache.keys import (
    CacheKeyError,
    canonical_bytes,
    canonical_hash,
    dag_fingerprint,
    emulator_fingerprint,
)
from repro.cache.result_cache import ResultCache
from repro.cache.schema import CACHE_SCHEMA_VERSION
from repro.cache.store import CacheEntryStatus, CacheStore, CacheStoreInfo

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryStatus",
    "CacheKeyError",
    "CacheStore",
    "CacheStoreInfo",
    "ResultCache",
    "canonical_bytes",
    "canonical_hash",
    "dag_fingerprint",
    "emulator_fingerprint",
]
