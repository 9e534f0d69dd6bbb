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

This module builds those actions on the star topology in two steps:
:func:`sparse_network_totals` reduces a byte matrix, given by its
non-zero entries row by row, to per-link totals, and
:func:`build_totals_ptask` turns the totals plus the per-host
computation into an engine :class:`~repro.simgrid.engine.Action` whose
*work* is normalised to 1.0.  The dense-matrix and flow-list paths both
are checked against, bit for bit, live in ``tests/reference_simgrid.py``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import NetworkTopology, Resource

__all__ = ["build_totals_ptask", "sparse_network_totals"]

#: ``(up_items, down_items, backbone_total)`` of :func:`sparse_network_totals`.
NetworkTotals = tuple[list[tuple[int, float]], list[tuple[int, float]], float]


def sparse_network_totals(
    rows: Sequence[Sequence[tuple[int, float]]],
    src_hosts: Sequence[int],
    dst_hosts: Sequence[int],
) -> NetworkTotals:
    """Per-link byte totals of a byte matrix on a star topology.

    ``rows`` holds the matrix's positive entries, row by row, each row
    in column order; row ``i`` and column ``j`` run from
    ``src_hosts[i]`` to ``dst_hosts[j]``.  Returns ``(up_items,
    down_items, backbone_total)``: uplink ``(src_host, bytes)`` totals
    in row order, downlink ``(dst_host, bytes)`` totals in column
    order, and the total bytes crossing the backbone.  Accumulation
    order is load-bearing: an uplink total adds its row left-to-right,
    a downlink total adds its column top-to-bottom, and the backbone
    total adds row-major — exactly the order a per-flow accumulation
    visits them, so the sums are floating-point identical to adding the
    matrix's flows one by one.  Inputs are trusted: entries must be
    positive and in range, as the distribution helpers guarantee.

    ``down_items`` is empty whenever ``backbone_total`` is zero (no
    off-node traffic means no downlink entries either).
    """
    backbone_total = 0.0
    down_totals = [0.0] * len(dst_hosts)
    up_items: list[tuple[int, float]] = []
    for src, row in zip(src_hosts, rows):
        up_total = 0.0
        for j, b in row:
            if src != dst_hosts[j]:
                up_total = up_total + b
                backbone_total = backbone_total + b
                down_totals[j] = down_totals[j] + b
        if up_total > 0.0:
            up_items.append((src, up_total))
    down_items: list[tuple[int, float]] = []
    if backbone_total > 0.0:
        for dst, total in zip(dst_hosts, down_totals):
            if total > 0.0:
                down_items.append((dst, total))
    return up_items, down_items, backbone_total


def build_totals_ptask(
    topology: NetworkTopology,
    name: str,
    comp: dict[int, float],
    totals: NetworkTotals | None,
    extra_latency: float = 0.0,
    on_complete: Optional[Callable[[SimulationEngine, Action], None]] = None,
    payload: object = None,
) -> Action:
    """The engine action of a parallel task.

    ``comp`` is ``{host: flops}``; ``totals`` is
    :func:`sparse_network_totals` of the task's byte matrix, or None
    for a task without one, so a caller that runs the same matrix on
    the same hosts more than once computes its totals once.  The totals
    are only read.  The action's work is normalised to 1.0 and its
    consumption weights are the total flops per CPU and total bytes per
    link, so its standalone duration is ``max(max_i a_i / power,
    max_l bytes_l / bw_l) + latency`` and contention arises from the
    shared solver.
    """
    consumption: dict[Resource, float] = {}
    get = consumption.get
    for host, flops in comp.items():
        if flops > 0:
            cpu = topology.cpus[host]
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
    action = Action(
        name=name,
        work=0.0 if not consumption else 1.0,
        latency=extra_latency + max_route_latency,
        on_complete=on_complete,
        payload=payload,
    )
    # Every weight is positive (flops > 0, totals > 0) and the dict is
    # this action's alone: the action takes it as it is, uncopied.
    action.consumption = consumption
    return action

