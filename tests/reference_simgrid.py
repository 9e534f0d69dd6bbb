"""Reference implementations of the simgrid layer's solver and builder.

These are the test oracles the production code of :mod:`repro.simgrid`
is compared against, bit for bit:

* the flow-list ptask path — :class:`ParallelTaskSpec`,
  :func:`comm_matrix_to_flows`, :func:`redistribution_flows` and
  :func:`build_ptask_action` — spells a parallel task out as one
  ``(src_host, dst_host, bytes)`` flow per matrix entry and adds each
  flow's bytes to every link of its route.  The simulator builds its
  actions with :func:`~repro.simgrid.ptask.build_totals_ptask` over
  :func:`~repro.simgrid.ptask.sparse_network_totals` instead
  (``tests/simgrid/test_ptask.py``);
* :func:`matrix_network_totals` computes the same per-link totals from
  the dense byte matrix, visiting every cell, against which
  :func:`~repro.simgrid.ptask.sparse_network_totals` is checked;
* :func:`solve_rates_reference` is the textbook bottleneck max-min loop
  that re-sums every resource's load in every round, against which
  :func:`~repro.simgrid.sharing.solve_rates` is property-tested
  (``tests/simgrid/test_sharing_equivalence.py``,
  ``tests/simgrid/test_engine_fastpaths.py``).

Every float sum here is an explicit left fold, as in production: from
Python 3.12 ``sum()`` over floats compensates its rounding, so it is not
one.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np

from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import NetworkTopology, Resource
from repro.simgrid.sharing import _EPS
from repro.util.errors import SimulationError

__all__ = [
    "ParallelTaskSpec",
    "build_ptask_action",
    "comm_matrix_to_flows",
    "matrix_network_totals",
    "redistribution_flows",
    "solve_rates_reference",
]

Flow = tuple[int, int, float]  # (src_host, dst_host, bytes)


@dataclass
class ParallelTaskSpec:
    """A parallel task in the L07 style.

    Attributes
    ----------
    name:
        Debug label.
    comp:
        ``{host: flops}`` — computation executed on each physical host.
    flows:
        ``(src_host, dst_host, bytes)`` triples; intra-host flows are
        allowed and cost nothing.
    extra_latency:
        Additional fixed delay folded into the action's latency phase
        (used for measured startup / redistribution overheads).
    """

    name: str
    comp: dict[int, float] = field(default_factory=dict)
    flows: list[Flow] = field(default_factory=list)
    extra_latency: float = 0.0

    def validate(self) -> None:
        for host, flops in self.comp.items():
            if flops < 0:
                raise SimulationError(
                    f"ptask {self.name!r}: negative computation on host {host}"
                )
        for src, dst, nbytes in self.flows:
            if nbytes < 0:
                raise SimulationError(
                    f"ptask {self.name!r}: negative flow {src}->{dst}"
                )
        if self.extra_latency < 0:
            raise SimulationError(f"ptask {self.name!r}: negative latency")

    @property
    def is_empty(self) -> bool:
        """True when the task has no computation and no inter-host data."""
        return (
            all(f <= 0 for f in self.comp.values())
            and all(b <= 0 or s == d for s, d, b in self.flows)
        )


def comm_matrix_to_flows(B: np.ndarray, hosts: Sequence[int]) -> list[Flow]:
    """Map a local-rank byte matrix onto physical hosts.

    ``B[i, j]`` bytes between local ranks become a flow between
    ``hosts[i]`` and ``hosts[j]``.  Zero entries and intra-host pairs are
    skipped (intra-host copies are free at this modelling level).
    """
    B = np.asarray(B, dtype=float)
    p = len(hosts)
    if B.shape != (p, p):
        raise ValueError(f"comm matrix shape {B.shape} != ({p}, {p})")
    flows: list[Flow] = []
    # ``tolist`` converts to plain floats once; per-element ndarray
    # indexing costs a boxed scalar per read and dominates this loop.
    rows = B.tolist()
    for i in range(p):
        src = hosts[i]
        row = rows[i]
        for j in range(p):
            b = row[j]
            if b > 0 and src != hosts[j]:
                flows.append((src, hosts[j], b))
    return flows


def redistribution_flows(
    M: np.ndarray, src_hosts: Sequence[int], dst_hosts: Sequence[int]
) -> list[Flow]:
    """Map a redistribution byte matrix (src rank x dst rank) onto hosts."""
    M = np.asarray(M, dtype=float)
    if M.shape != (len(src_hosts), len(dst_hosts)):
        raise ValueError(
            f"redistribution matrix shape {M.shape} != "
            f"({len(src_hosts)}, {len(dst_hosts)})"
        )
    flows: list[Flow] = []
    rows = M.tolist()
    for i, src in enumerate(src_hosts):
        row = rows[i]
        for j, dst in enumerate(dst_hosts):
            b = row[j]
            if b > 0 and src != dst:
                flows.append((src, dst, b))
    return flows


def matrix_network_totals(
    matrix_rows: Sequence[Sequence[float]],
    src_hosts: Sequence[int],
    dst_hosts: Sequence[int],
) -> tuple[list[tuple[int, float]], list[tuple[int, float]], float]:
    """Per-link byte totals of a dense byte matrix on a star topology.

    Returns ``(up_items, down_items, backbone_total)`` as
    :func:`~repro.simgrid.ptask.sparse_network_totals` does, from every
    cell of the ``(len(src_hosts), len(dst_hosts))`` matrix: an uplink
    total adds its row left-to-right, a downlink total adds its column
    top-to-bottom, and the backbone total adds row-major, skipping
    non-positive entries and intra-host pairs.
    """
    backbone_total = 0.0
    n_dst = len(dst_hosts)
    down_totals = [0.0] * n_dst
    up_items: list[tuple[int, float]] = []
    for i, src in enumerate(src_hosts):
        row = matrix_rows[i]
        up_total = 0.0
        for j in range(n_dst):
            b = row[j]
            if b > 0 and src != dst_hosts[j]:
                up_total = up_total + b
                backbone_total = backbone_total + b
                down_totals[j] = down_totals[j] + b
        if up_total > 0.0:
            up_items.append((src, up_total))
    down_items: list[tuple[int, float]] = []
    if backbone_total > 0.0:
        for j in range(n_dst):
            total = down_totals[j]
            if total > 0.0:
                down_items.append((dst_hosts[j], total))
    return up_items, down_items, backbone_total


def build_ptask_action(
    topology: NetworkTopology,
    spec: ParallelTaskSpec,
    on_complete: Optional[Callable[[SimulationEngine, Action], None]] = None,
    payload: object = None,
) -> Action:
    """Build the engine action realising a parallel-task specification.

    The action's work is normalised to 1.0; consumption weights are the
    total flops per CPU and total bytes per link, so the action's
    standalone duration is ``max(max_i a_i / power, max_l bytes_l / bw_l)
    + latency`` and contention arises naturally from the shared solver.
    """
    spec.validate()
    consumption: dict[Resource, float] = {}
    get = consumption.get
    for host, flops in spec.comp.items():
        if flops > 0:
            cpu = topology.cpu(host)
            consumption[cpu] = get(cpu, 0.0) + flops
    max_route_latency = 0.0
    for src, dst, nbytes in spec.flows:
        if nbytes <= 0 or src == dst:
            continue
        for link in topology.route(src, dst):
            consumption[link] = get(link, 0.0) + nbytes
        lat = topology.route_latency(src, dst)
        if lat > max_route_latency:
            max_route_latency = lat
    work = 0.0 if not consumption else 1.0
    return Action(
        name=spec.name,
        work=work,
        consumption=consumption,
        latency=spec.extra_latency + max_route_latency,
        on_complete=on_complete,
        payload=payload,
    )


def solve_rates_reference(
    consumption: Mapping[Hashable, Mapping[object, float]],
    capacity: Mapping[object, float],
) -> dict[Hashable, float]:
    """The original bottleneck loop, kept as the equivalence oracle.

    Functionally and floating-point identical to
    :func:`~repro.simgrid.sharing.solve_rates`,
    but re-sums every active resource's load over all actions in every
    round (``O(rounds * R * A)``).  Used by the property-based
    equivalence tests; not called from production code.
    """
    rates: dict[Hashable, float] = {}
    usage: dict[object, dict[Hashable, float]] = {}
    unfixed: set[Hashable] = set()
    for action, weights in consumption.items():
        if not weights:
            rates[action] = float("inf")
            continue
        unfixed.add(action)
        for res, w in weights.items():
            if w <= 0:
                raise ValueError(
                    f"consumption weight of {action!r} on {res!r} must be positive"
                )
            if res not in capacity:
                raise ValueError(f"resource {res!r} has no declared capacity")
            usage.setdefault(res, {})[action] = w
    remaining_cap = {}
    for res in usage:
        cap = capacity[res]
        if cap <= 0:
            raise ValueError(f"capacity of {res!r} must be positive")
        remaining_cap[res] = float(cap)

    # First-touch order, matching :func:`solve_rates` (tie-breaks).
    active_res = dict.fromkeys(usage)
    while unfixed:
        best_share = None
        best_res = None
        for res in active_res:
            load = 0.0
            for a, w in usage[res].items():
                if a in unfixed:
                    load = load + w
            if load <= _EPS:
                continue
            share = remaining_cap[res] / load
            if best_share is None or share < best_share:
                best_share = share
                best_res = res
        if best_res is None:
            raise AssertionError("max-min solver lost its remaining actions")
        frozen = [a for a in usage[best_res] if a in unfixed]
        for action in frozen:
            rates[action] = best_share
            unfixed.discard(action)
            for res, w in consumption[action].items():
                remaining_cap[res] = max(0.0, remaining_cap[res] - w * best_share)
        del active_res[best_res]
    return rates
