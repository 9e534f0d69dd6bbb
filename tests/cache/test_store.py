"""CacheStore resilience: corruption, version skew, atomicity, maintenance.

A damaged cache must never crash a study or serve wrong data — every
bad entry is detected, logged through the Recorder, deleted, and the
value transparently recomputed.  The tests use the two layers the code
reads, ``cell`` and ``calibration``.
"""

from __future__ import annotations

import pickle
import shutil

import pytest

from repro.cache.keys import canonical_hash
from repro.cache.result_cache import ResultCache
from repro.cache.schema import CACHE_SCHEMA_VERSION
from repro.cache.store import CacheEntryStatus, CacheStore
from repro.obs.recorder import Recorder, recording


@pytest.fixture
def root(tmp_path):
    return tmp_path / "cache"


def _entry_file(store: CacheStore, namespace: str, key_hash: str):
    return store._entry_path(namespace, key_hash)


KEY = "ab" + "0" * 62  # hash-shaped: fans out into the "ab" subdirectory


class TestRoundTrip:
    def test_put_get(self, root):
        store = CacheStore(root)
        store.put("cell", KEY, {"makespan": 12.5})
        assert store.get("cell", KEY) == (True, {"makespan": 12.5})

    def test_cached_none_is_a_hit(self, root):
        store = CacheStore(root)
        store.put("cell", KEY, None)
        assert store.get("cell", KEY) == (True, None)

    def test_miss(self, root):
        assert CacheStore(root).get("cell", KEY) == (False, None)

    def test_get_reads_the_disk(self, root):
        store = CacheStore(root)
        store.put("cell", KEY, "value")
        shutil.rmtree(root)  # rip the disk out from under the store
        assert store.get("cell", KEY) == (False, None)


class TestCorruptionAndSkew:
    def _assert_discarded(self, root, status, mutate):
        """Write an entry, damage it with ``mutate``, then re-read."""
        writer = CacheStore(root)
        writer.put("cell", KEY, "good value")
        mutate(_entry_file(writer, "cell", KEY))

        recorder = Recorder.to_memory()
        reader = CacheStore(root)  # a second store over the same files
        with recording(recorder):
            found, value = reader.get("cell", KEY)
        assert (found, value) == (False, None)
        # ... detected and counted ...
        counters = recorder.metrics()["counters"]
        assert counters[f"cache.discarded.{status}"] == 1
        # ... logged through the Recorder ...
        events = [
            r for r in recorder.sink.records if r.get("name") == "cache.discard"
        ]
        assert len(events) == 1 and events[0]["reason"] == status
        # ... and deleted, so the next read is a clean miss.
        assert not _entry_file(reader, "cell", KEY).exists()

    def test_truncated_entry_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(path.read_bytes()[: 10]),
        )

    def test_garbage_entry_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(b"not a pickle at all"),
        )

    def test_non_envelope_pickle_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(pickle.dumps([1, 2, 3])),
        )

    def test_stale_schema_entry_is_discarded(self, root):
        def rewrite_with_old_schema(path):
            envelope = pickle.loads(path.read_bytes())
            envelope["schema"] = "repro-cache-0"
            path.write_bytes(pickle.dumps(envelope))

        self._assert_discarded(
            root, CacheEntryStatus.STALE, rewrite_with_old_schema
        )

    def test_entry_under_an_unread_layer_is_discarded(self, root):
        # Only the calibration and cell layers are ever looked up; an
        # entry under any other layer is stale, like an old schema's.
        CacheStore(root).put("schedule", KEY, "good value")
        recorder = Recorder.to_memory()
        with recording(recorder):
            found, value = CacheStore(root).get("schedule", KEY)
        assert (found, value) == (False, None)
        counters = recorder.metrics()["counters"]
        assert counters["cache.discarded.stale"] == 1
        assert not _entry_file(CacheStore(root), "schedule", KEY).exists()

    def test_misplaced_entry_is_discarded(self, root):
        def misfile(path):
            # A valid envelope for a *different* key under this name:
            # renamed or hash-collided files can never be trusted.
            envelope = pickle.loads(path.read_bytes())
            envelope["key"] = "cd" + "1" * 62
            path.write_bytes(pickle.dumps(envelope))

        self._assert_discarded(root, CacheEntryStatus.CORRUPT, misfile)

    def test_damaged_entry_is_transparently_recomputed(self, root):
        cache = ResultCache(root)
        key = {"dag": "diamond", "algorithm": "hcpa"}
        assert cache.get_or_compute("cell", key, lambda: 41) == 41
        _entry_file(cache.store, "cell", canonical_hash(key)).write_bytes(
            b"\x00 bit rot \x00"
        )

        recorder = Recorder.to_memory()
        fresh = ResultCache(root)
        with recording(recorder):
            value = fresh.get_or_compute("cell", key, lambda: 42)
        assert value == 42  # recomputed, never crashed
        counters = recorder.metrics()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.discarded.corrupt"] == 1
        # The recomputed value was re-persisted.
        assert ResultCache(root).get_or_compute(
            "cell", key, lambda: 43
        ) == 42


class TestMaintenance:
    def _populate(self, root):
        store = CacheStore(root)
        store.put("cell", KEY, "a")
        store.put("calibration", KEY, "b")
        old = CacheStore(root, schema="repro-cache-0")
        old.put("cell", "cd" + "1" * 62, "stale")
        bad = _entry_file(store, "calibration", "ef" + "2" * 62)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"garbage")
        return store

    def test_info_tallies_by_status_and_namespace(self, root):
        info = self._populate(root).info()
        assert info.schema == CACHE_SCHEMA_VERSION
        assert info.entries == 2
        assert info.stale_entries == 1
        assert info.corrupt_entries == 1
        assert info.bytes > 0
        assert info.namespaces["cell"]["entries"] == 1
        assert info.namespaces["calibration"]["entries"] == 1
        assert set(info.to_dict()) >= {"root", "entries", "namespaces"}

    def test_prune_removes_only_bad_entries(self, root):
        store = self._populate(root)
        assert store.prune() == 2
        info = store.info()
        assert info.entries == 2
        assert info.stale_entries == 0 and info.corrupt_entries == 0

    def test_clear_removes_everything(self, root):
        store = self._populate(root)
        assert store.clear() == 4
        assert not root.exists()
        assert store.info().entries == 0
