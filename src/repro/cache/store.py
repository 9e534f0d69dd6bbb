"""Content-addressed on-disk entry store.

Layout: ``<root>/<namespace>/<hash[:2]>/<hash>.pkl`` — one file per
entry, fanned out over 256 subdirectories.  Each file holds a pickled
envelope ``{"schema", "namespace", "key", "value"}``; the embedded
schema version and key hash are verified on every read, so a stale
(old-schema, or under a layer outside
:data:`~repro.cache.schema.CACHE_LAYERS`) or corrupted (truncated,
bit-flipped, misplaced) entry is *detected, counted, deleted and
reported as a miss* — it can never crash a study or smuggle wrong data
into one.

Writes are atomic: the envelope goes to a unique temporary file in the
same directory and is published with :func:`os.replace`.  Concurrent
writers (the study runner's fork pool) can therefore race on the same
entry safely — both compute the same value, the last rename wins, and
no reader ever observes a half-written file.
"""

from __future__ import annotations

import io
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cache.schema import CACHE_LAYERS, CACHE_SCHEMA_VERSION
from repro.obs.recorder import get_recorder

__all__ = ["CacheEntryStatus", "CacheStoreInfo", "CacheStore"]

_SUFFIX = ".pkl"
#: Pickle protocol pinned for portability across the supported Pythons.
_PICKLE_PROTOCOL = 4


class CacheEntryStatus:
    """Read outcomes (internal, used for counters and tests)."""

    HIT = "hit"
    MISS = "miss"
    STALE = "stale"
    CORRUPT = "corrupt"


@dataclass
class CacheStoreInfo:
    """Aggregate statistics of one store scan."""

    root: str
    schema: str
    entries: int = 0
    bytes: int = 0
    stale_entries: int = 0
    corrupt_entries: int = 0
    namespaces: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "schema": self.schema,
            "entries": self.entries,
            "bytes": self.bytes,
            "stale_entries": self.stale_entries,
            "corrupt_entries": self.corrupt_entries,
            "namespaces": dict(self.namespaces),
        }


class CacheStore:
    """File-per-entry store, safe under concurrent forked writers."""

    def __init__(
        self, root: str | Path, *, schema: str = CACHE_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self._tmp_counter = 0

    # -- paths ---------------------------------------------------------
    def _entry_path(self, namespace: str, digest: str) -> Path:
        return self.root / namespace / digest[:2] / (digest + _SUFFIX)

    # -- read ----------------------------------------------------------
    def get(self, namespace: str, digest: str) -> tuple[bool, Any]:
        """Look up an entry; returns ``(found, value)``.

        A stale or corrupt file counts as a miss: it is deleted,
        a ``cache.discard`` event is recorded, and the caller recomputes.
        """
        path = self._entry_path(namespace, digest)
        value, status, nbytes = self._read_entry(path, namespace, digest)
        if status == CacheEntryStatus.HIT:
            obs = get_recorder()
            if obs.enabled:
                obs.count("cache.bytes_read", nbytes)
            return True, value
        if status in (CacheEntryStatus.STALE, CacheEntryStatus.CORRUPT):
            self._discard(path, namespace, status)
        return False, None

    def peek(self, namespace: str, digest: str) -> tuple[bool, Any]:
        """Side-effect-free lookup; returns ``(found, value)``.

        Unlike :meth:`get`, a peek never disturbs the state the counted
        path owns: a hit is not counted (``cache.bytes_read``), and
        stale or corrupt files are left in place — a later counted
        read still discards and counts them, so a peek leaves every
        counter exactly as if it had never happened.
        """
        path = self._entry_path(namespace, digest)
        value, status, _nbytes = self._read_entry(path, namespace, digest)
        if status == CacheEntryStatus.HIT:
            return True, value
        return False, None

    def contains(self, namespace: str, digest: str) -> bool:
        """Cheap existence hint: an entry file on disk.

        Purely advisory — the file is not read or validated, so a stale
        or corrupt entry answers True and the counted read that follows
        discovers the truth.  Callers must treat a wrong hint as "fall
        back to the normal path", never as data.
        """
        return self._entry_path(namespace, digest).exists()

    def _read_entry(
        self, path: Path, namespace: str, digest: str
    ) -> tuple[Any, str, int]:
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, OSError):
            return None, CacheEntryStatus.MISS, 0
        try:
            envelope = pickle.load(io.BytesIO(blob))
        except Exception:
            # Truncated writes, bit rot, or non-pickle garbage.
            return None, CacheEntryStatus.CORRUPT, 0
        if not isinstance(envelope, dict) or "value" not in envelope:
            return None, CacheEntryStatus.CORRUPT, 0
        if (
            envelope.get("schema") != self.schema
            or namespace not in CACHE_LAYERS
        ):
            return None, CacheEntryStatus.STALE, 0
        if (
            envelope.get("namespace") != namespace
            or envelope.get("key") != digest
        ):
            # A file placed under the wrong name can never be trusted.
            return None, CacheEntryStatus.CORRUPT, 0
        return envelope["value"], CacheEntryStatus.HIT, len(blob)

    def _discard(self, path: Path, namespace: str, status: str) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone or unwritable
            pass
        obs = get_recorder()
        if obs.enabled:
            obs.count(f"cache.discarded.{status}")
            obs.event(
                "cache.discard",
                namespace=namespace,
                path=str(path),
                reason=status,
            )

    # -- write ---------------------------------------------------------
    def put(self, namespace: str, digest: str, value: Any) -> int:
        """Atomically persist an entry; returns the bytes written."""
        envelope = {
            "schema": self.schema,
            "namespace": namespace,
            "key": digest,
            "value": value,
        }
        blob = pickle.dumps(envelope, protocol=_PICKLE_PROTOCOL)
        path = self._entry_path(namespace, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_counter += 1
        tmp = path.parent / (
            f".{digest}.{os.getpid()}.{self._tmp_counter}.tmp"
        )
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on replace failure
                tmp.unlink(missing_ok=True)
        obs = get_recorder()
        if obs.enabled:
            obs.count("cache.bytes_written", len(blob))
        return len(blob)

    # -- maintenance ---------------------------------------------------
    def _iter_entry_paths(self):
        if not self.root.is_dir():
            return
        for namespace_dir in sorted(self.root.iterdir()):
            if not namespace_dir.is_dir():
                continue
            for path in sorted(namespace_dir.glob(f"*/*{_SUFFIX}")):
                yield namespace_dir.name, path

    def info(self) -> CacheStoreInfo:
        """Scan the store: entry counts, sizes, stale/corrupt tallies."""
        info = CacheStoreInfo(root=str(self.root), schema=self.schema)
        for namespace, path in self._iter_entry_paths():
            _value, status, _nbytes = self._read_entry(
                path, namespace, path.stem
            )
            if status == CacheEntryStatus.HIT:
                size = path.stat().st_size
                ns = info.namespaces.setdefault(
                    namespace, {"entries": 0, "bytes": 0}
                )
                info.entries += 1
                info.bytes += size
                ns["entries"] += 1
                ns["bytes"] += size
            elif status == CacheEntryStatus.STALE:
                info.stale_entries += 1
            else:
                info.corrupt_entries += 1
        return info

    def prune(self) -> int:
        """Delete stale and corrupt entries; returns the count."""
        removed = 0
        for namespace, path in self._iter_entry_paths():
            _value, status, _nbytes = self._read_entry(
                path, namespace, path.stem
            )
            if status in (CacheEntryStatus.STALE, CacheEntryStatus.CORRUPT):
                self._discard(path, namespace, status)
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry (and the store directory); returns the count."""
        removed = sum(1 for _ in self._iter_entry_paths())
        if self.root.is_dir():
            shutil.rmtree(self.root)
        return removed
