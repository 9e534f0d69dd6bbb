"""Canonical, content-addressed cache keys.

The cache's correctness rests on one property: **two computations get
the same key if and only if their semantically meaningful inputs are
equal**.  :func:`canonical_bytes` therefore defines a deterministic,
type-tagged binary encoding of plain Python data:

* dict entries are sorted by their encoded keys, so insertion order
  never matters;
* floats are encoded by their IEEE-754 bits (``struct.pack('>d')``),
  so formatting (``1.5`` vs ``1.50`` vs ``15e-1``) never matters while
  genuinely different values — even ones that print identically —
  always differ;
* every value carries a type tag and every composite a length prefix,
  so distinct structures can never collide by concatenation
  (``["ab"]`` vs ``["a", "b"]``) and distinct types can never collide
  by repr (``1`` vs ``1.0`` vs ``"1"``);
* dataclasses encode as (class name, field dict) and model objects as
  (class name, ``__dict__``), letting the calibrated simulator suites —
  profile tables, regression fits — act as their own fingerprints.

Objects the encoding cannot handle deterministically (open files, RNGs,
arbitrary callables) raise :class:`CacheKeyError` — the cache refuses
to guess rather than risk a wrong hit.

Mutable-state caveat: the generic object rule hashes ``__dict__``, so
classes carrying derived mutable state (memo tables, topo-order caches)
need an explicit fingerprint here instead — :func:`dag_fingerprint`
exists precisely because :class:`TaskGraph` is such a class.

Pre-encoded fragments: a study hashes one key per cell, and the keys
repeat the same large fingerprints — a calibrated suite's models are
several KB of profile tables and fits.  :func:`encoded_fingerprint`
encodes a fingerprint once into a :class:`Fragment`, which
:func:`canonical_bytes` splices in verbatim, so a key holding fragments
hashes exactly like the same key holding the plain fingerprints.
:class:`StudyKeys` builds every :func:`cell_key` of one study that way.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from types import SimpleNamespace
from typing import Any, Sequence

from repro.util.errors import ReproError

__all__ = [
    "CacheKeyError",
    "CellKeys",
    "Fragment",
    "StudyKeys",
    "canonical_bytes",
    "canonical_hash",
    "cell_key",
    "dag_fingerprint",
    "emulator_fingerprint",
    "encoded_fingerprint",
    "simulator_fingerprint",
]


class CacheKeyError(ReproError):
    """An object cannot be canonically encoded into a cache key."""


@dataclasses.dataclass(frozen=True)
class Fragment:
    """A key part already in canonical form, spliced in verbatim.

    Make one with :func:`encoded_fingerprint`, never from arbitrary
    bytes: its ``data`` must be the :func:`canonical_bytes` of a value.
    """

    data: bytes


def _join(tag: bytes, parts: list[bytes]) -> bytes:
    """Unambiguous composite: tag, child count, length-prefixed children."""
    out = [tag, struct.pack(">I", len(parts))]
    for part in parts:
        out.append(struct.pack(">I", len(part)))
        out.append(part)
    return b"".join(out)


def _encode(obj: Any, stack: tuple[int, ...]) -> bytes:
    if obj is None:
        return b"N"
    if obj is True:
        return b"T"
    if obj is False:
        return b"F"
    cls = type(obj)
    if cls is int:
        return b"i" + repr(obj).encode("ascii")
    if cls is float:
        return b"f" + struct.pack(">d", obj)
    if cls is str:
        return b"s" + obj.encode("utf-8")
    if cls is bytes:
        return b"b" + obj
    if cls is Fragment:
        return obj.data
    # Containers: guard against cycles via the identity stack.
    if id(obj) in stack:
        raise CacheKeyError("cannot encode a cyclic structure into a cache key")
    sub = stack + (id(obj),)
    if cls in (list, tuple):
        return _join(b"L", [_encode(item, sub) for item in obj])
    if cls is dict:
        entries = sorted(
            (_encode(k, sub), _encode(v, sub)) for k, v in obj.items()
        )
        return _join(b"D", [kv for pair in entries for kv in pair])
    if cls in (set, frozenset):
        return _join(b"S", sorted(_encode(item, sub) for item in obj))
    if isinstance(obj, enum.Enum):
        return _join(
            b"E",
            [cls.__qualname__.encode("utf-8"), _encode(obj.value, sub)],
        )
    # numpy scalars and arrays (profile tables, comm matrices) without a
    # hard numpy dependency at import time.
    item = getattr(obj, "item", None)
    if item is not None and getattr(obj, "shape", None) == ():
        return _encode(obj.item(), sub)
    if hasattr(obj, "shape") and hasattr(obj, "tolist"):
        return _join(
            b"A",
            [
                _encode(list(getattr(obj, "shape")), sub),
                _encode(obj.tolist(), sub),
            ],
        )
    # Protocol hook: objects may define their own semantic fingerprint.
    fp = getattr(obj, "cache_fingerprint", None)
    if callable(fp):
        return _join(
            b"P",
            [cls.__qualname__.encode("utf-8"), _encode(fp(), sub)],
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return _join(
            b"C",
            [cls.__qualname__.encode("utf-8"), _encode(fields, sub)],
        )
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict):
        return _join(
            b"O",
            [cls.__qualname__.encode("utf-8"), _encode(dict(state), sub)],
        )
    raise CacheKeyError(
        f"cannot canonically encode {cls.__module__}.{cls.__qualname__} "
        "into a cache key; give it a cache_fingerprint() method or build "
        "the key from plain data"
    )


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic byte encoding of ``obj`` (see module doc)."""
    return _encode(obj, ())


def canonical_hash(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def encoded_fingerprint(fingerprint: Any) -> Fragment:
    """``fingerprint`` encoded once, to splice into many keys."""
    return Fragment(canonical_bytes(fingerprint))


# ----------------------------------------------------------------------
# domain fingerprints
# ----------------------------------------------------------------------
def dag_fingerprint(graph) -> dict:
    """Semantic content of a :class:`~repro.dag.graph.TaskGraph`.

    Explicit (rather than the generic object rule) because the graph
    carries derived mutable state (the memoised topological order) that
    must not leak into the key, and because edge insertion order is not
    semantically meaningful.
    """
    return {
        "name": graph.name,
        "tasks": [
            (t.task_id, t.kernel.name, t.n, t.name)
            for t in sorted(graph, key=lambda t: t.task_id)
        ],
        "edges": sorted(graph.edges()),
    }


def simulator_fingerprint(simulator) -> dict:
    """Semantic content of an :class:`ApplicationSimulator`.

    Everything its ``run`` depends on besides the (graph, schedule)
    pair: the platform, the three cost models and the contention
    switch.  The lazily built network topology is derived from the
    platform, so it is absent.
    """
    return {
        "platform": simulator.platform,
        "task_model": simulator.task_model,
        "startup_model": simulator.startup_model,
        "redistribution_model": simulator.redistribution_model,
        "contention": simulator.contention,
    }


def emulator_fingerprint(emulator) -> dict:
    """Semantic content of the testbed emulator.

    The declared dataclass fields (platform, seed, noise configuration,
    scaling knobs) fully determine every execution — the ground-truth
    generators are themselves derived from the seed — so the fields are
    the fingerprint; the derived generator objects never enter the key.
    """
    return {
        "fields": {
            f.name: getattr(emulator, f.name)
            for f in dataclasses.fields(emulator)
        },
    }


# ----------------------------------------------------------------------
# the cell key
# ----------------------------------------------------------------------
# The on-disk key layout.  Every part may be a plain fingerprint or its
# Fragment: both encode to the same bytes.
def cell_key(algorithm: str, dag: Any, simulator: Any, emulator: Any) -> dict:
    """``"cell"`` layer key: one study cell, scheduled, simulated and
    emulated.

    The simulator fingerprint holds the platform and the three models
    the scheduling costs use, so the key needs no costs part.  The study
    executes each schedule once, under the emulator's default run
    label 0.
    """
    return {
        "algorithm": algorithm,
        "dag": dag,
        "simulator": simulator,
        "emulator": emulator,
        "run_label": 0,
    }


def _suite_executor(platform, suite) -> SimpleNamespace:
    """What a suite's ``SchedulingCosts`` and ``ApplicationSimulator`` hold.

    Both default a missing overhead model to its zero model, and the
    study's simulators keep contention on.
    """
    from repro.models.overheads import (
        ZeroRedistributionOverheadModel,
        ZeroStartupModel,
    )

    return SimpleNamespace(
        platform=platform,
        task_model=suite.task_model,
        startup_model=suite.startup_model or ZeroStartupModel(),
        redistribution_model=(
            suite.redistribution_model or ZeroRedistributionOverheadModel()
        ),
        contention=True,
    )


@dataclasses.dataclass(frozen=True)
class CellKeys:
    """The fragments shared by the cells of one (suite, DAG) pair."""

    emulator: Fragment
    simulator: Fragment
    dag: Fragment

    def cell(self, algorithm: str) -> dict:
        return cell_key(algorithm, self.dag, self.simulator, self.emulator)


class StudyKeys:
    """Every cache key of one study, built from fragments encoded once.

    The emulator, each suite's simulator models and each DAG are
    encoded when the study starts.  The fragments are snapshots of
    those inputs: make a new object per study and drop it when the
    study returns, so an input changed between two studies is encoded
    afresh.
    """

    def __init__(self, emulator, suites: Sequence, graphs: Sequence) -> None:
        self.emulator = encoded_fingerprint(emulator_fingerprint(emulator))
        self.dags = [encoded_fingerprint(dag_fingerprint(g)) for g in graphs]
        self.simulators = [
            encoded_fingerprint(
                simulator_fingerprint(_suite_executor(emulator.platform, s))
            )
            for s in suites
        ]

    def cell(self, suite: int, dag: int) -> CellKeys:
        """The keys of the cells of suite ``suite`` on DAG ``dag``."""
        return CellKeys(self.emulator, self.simulators[suite], self.dags[dag])
