"""The ``ptask_L07`` parallel-task action model.

SimGrid's L07 model describes a parallel task by a computation vector
``a`` (flops each processor executes) and a communication matrix ``B``
(bytes exchanged between processor pairs).  The task has a single
progress variable; when it advances by a fraction ``d``, processor ``i``
has executed ``d * a[i]`` flops and ``d * B[i][j]`` bytes have crossed
the ``i -> j`` route.  Under max-min sharing this makes the task's rate
the minimum over its resources of the fair share it obtains there — the
slowest processor or the most contended link bounds the whole task,
exactly like a tightly-coupled data-parallel kernel.

This module converts task specifications (computation per host + a list
of flows) into engine :class:`~repro.simgrid.engine.Action` objects whose
*work* is normalised to 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import NetworkTopology, Resource
from repro.util.errors import SimulationError

__all__ = [
    "ParallelTaskSpec",
    "build_ptask_action",
    "build_matrix_ptask",
    "build_totals_ptask",
    "comm_matrix_to_flows",
    "matrix_network_totals",
    "redistribution_flows",
]

Flow = tuple[int, int, float]  # (src_host, dst_host, bytes)
#: ``(up_items, down_items, backbone_total)`` of :func:`matrix_network_totals`.
NetworkTotals = tuple[list[tuple[int, float]], list[tuple[int, float]], float]


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
) -> NetworkTotals:
    """Per-link byte totals of a byte matrix on a star topology.

    Returns ``(up_items, down_items, backbone_total)``: uplink
    ``(src_host, bytes)`` totals in row order, downlink
    ``(dst_host, bytes)`` totals in column order, and the total bytes
    crossing the backbone.  Accumulation order is load-bearing: an
    uplink total adds its row left-to-right, a downlink total adds its
    column top-to-bottom, and the backbone total adds row-major —
    exactly the order the per-flow path visits them, so the sums are
    floating-point identical to it.

    ``down_items`` is empty whenever ``backbone_total`` is zero (no
    off-node traffic means no downlink entries either).
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


def build_matrix_ptask(
    topology: NetworkTopology,
    name: str,
    comp: dict[int, float],
    matrix_rows: Sequence[Sequence[float]],
    src_hosts: Sequence[int],
    dst_hosts: Sequence[int],
    extra_latency: float = 0.0,
    on_complete: Optional[Callable[[SimulationEngine, Action], None]] = None,
    payload: object = None,
) -> Action:
    """Fused byte-matrix-to-action builder for trusted callers.

    Semantically ``build_ptask_action`` applied to the flows of
    ``matrix_rows`` (``matrix_rows[i][j]`` bytes from ``src_hosts[i]``
    to ``dst_hosts[j]``), but in a single row-major pass that
    accumulates per-link totals directly instead of materialising a
    flow list and hammering the consumption dict per flow.  The sums
    are floating-point identical to the flow-list path: an uplink total
    adds its row left-to-right, a downlink total adds its column
    top-to-bottom, and the backbone total adds row-major — exactly the
    order the per-flow accumulation visits them in a star topology.

    Inputs are trusted (no spec validation): the byte matrix must be
    non-negative and shaped ``(len(src_hosts), len(dst_hosts))``, as
    the distribution/model helpers guarantee by construction.
    """
    totals = (
        matrix_network_totals(matrix_rows, src_hosts, dst_hosts)
        if matrix_rows
        else None
    )
    return build_totals_ptask(
        topology, name, comp, totals, extra_latency, on_complete, payload
    )


def build_totals_ptask(
    topology: NetworkTopology,
    name: str,
    comp: dict[int, float],
    totals: NetworkTotals | None,
    extra_latency: float = 0.0,
    on_complete: Optional[Callable[[SimulationEngine, Action], None]] = None,
    payload: object = None,
) -> Action:
    """The action of :func:`build_matrix_ptask` from precomputed totals.

    ``totals`` is :func:`matrix_network_totals` of the byte matrix, or
    None for a task without one, so a caller that runs the same
    matrix on the same hosts more than once computes its totals once.
    The totals are only read.
    """
    consumption: dict[Resource, float] = {}
    get = consumption.get
    for host, flops in comp.items():
        if flops > 0:
            cpu = topology.cpu(host)
            consumption[cpu] = get(cpu, 0.0) + flops
    max_route_latency = 0.0
    if totals is not None:
        up_items, down_items, backbone_total = totals
        uplinks = topology.uplinks
        for src, total in up_items:
            consumption[uplinks[src]] = total
        if backbone_total > 0.0:
            consumption[topology.backbone] = backbone_total
            # Every off-node route shares one latency in the star
            # topology, so the max over flows is that constant.
            max_route_latency = topology.offnode_latency
            downlinks = topology.downlinks
            for dst, total in down_items:
                consumption[downlinks[dst]] = total
    work = 0.0 if not consumption else 1.0
    return Action(
        name=name,
        work=work,
        consumption=consumption,
        latency=extra_latency + max_route_latency,
        on_complete=on_complete,
        payload=payload,
    )


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
