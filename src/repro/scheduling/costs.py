"""Cost estimates consumed by the scheduling algorithms.

The allocation and mapping phases reason about task times ``T(t, p)``
and redistribution times.  These estimates come from the same model the
simulator will use — in the paper, the scheduling algorithm runs *inside*
the simulator, so the analytical simulator schedules with analytical
estimates, the profile-based simulator with profiled estimates, etc.
That coupling is essential to the study: different simulators produce
different schedules for the same DAG, which are then all executed on the
real cluster.
"""

from __future__ import annotations


from repro.dag.graph import TaskGraph
from repro.dag.kernels import matrix_bytes
from repro.models.base import TaskTimeModel
from repro.models.overheads import (
    RedistributionOverheadModel,
    StartupOverheadModel,
    ZeroRedistributionOverheadModel,
    ZeroStartupModel,
)
from repro.platform.cluster import ClusterPlatform

__all__ = ["SchedulingCosts"]


class SchedulingCosts:
    """Bundles a task-time model and overhead models into the estimate
    functions the CPA family needs.

    ``task_time(t, p)`` includes the startup overhead — the scheduler
    should account for every second a task will occupy its processors.

    ``task_time`` is memoised: the CPA-family gain probes evaluate
    ``T(t, p)`` and ``T(t, p+1)`` for every critical-path candidate on
    every grow step, hitting the same (task, processors) pairs thousands
    of times per allocation.  The memo is *bounded* (``memo_limit``
    entries, default far above the ``tasks x processors`` worst case of
    the study's graphs) so a long-lived costs object over a huge
    platform cannot grow without limit; on overflow it is simply
    cleared — correctness never depends on a hit.
    """

    #: Default bound on the ``task_time`` memo.
    MEMO_LIMIT = 65536

    def __init__(
        self,
        graph: TaskGraph,
        platform: ClusterPlatform,
        task_model: TaskTimeModel,
        startup_model: StartupOverheadModel | None = None,
        redistribution_model: RedistributionOverheadModel | None = None,
        *,
        memo_limit: int = MEMO_LIMIT,
    ) -> None:
        if memo_limit < 1:
            raise ValueError(f"memo_limit must be positive, got {memo_limit}")
        self.graph = graph
        self.platform = platform
        self.task_model = task_model
        self.startup_model = startup_model or ZeroStartupModel()
        self.redistribution_model = (
            redistribution_model or ZeroRedistributionOverheadModel()
        )
        self._memo_limit = memo_limit
        self._task_time_cache: dict[tuple[int, int], float] = {}
        self._gain_cache: dict[tuple[int, int], float] = {}

    @property
    def num_procs(self) -> int:
        return self.platform.num_nodes

    def task_time(self, task_id: int, p: int) -> float:
        """Estimated seconds task ``task_id`` occupies ``p`` processors."""
        key = (task_id, p)
        cached = self._task_time_cache.get(key)
        if cached is not None:
            return cached
        task = self.graph.task(task_id)
        value = self.task_model.duration(task, p) + self.startup_model.startup(p)
        if len(self._task_time_cache) >= self._memo_limit:
            self._task_time_cache.clear()
        self._task_time_cache[key] = value
        return value

    def marginal_gain(self, task_id: int, p: int) -> float:
        """CPA's benefit of one extra processor for a task.

        ``T(t,p)/p - T(t,p+1)/(p+1)``, clamped to 0 when the extra
        processor does not strictly reduce the task's execution time: a
        processor that buys no speedup only inflates the average area
        (``T(t,p)/p`` can keep "improving" for a task whose time is
        flat, which would let the allocation loop hand out useless
        processors under measured models past their scaling knee).

        Memoised like :meth:`task_time` (and bounded the same way): the
        CPA-family select hooks re-probe the same ``(task, p)`` pairs on
        every grow step while only one task's allocation changed.
        """
        key = (task_id, p)
        cached = self._gain_cache.get(key)
        if cached is not None:
            return cached
        t_now = self.task_time(task_id, p)
        t_next = self.task_time(task_id, p + 1)
        value = 0.0 if t_next >= t_now else t_now / p - t_next / (p + 1)
        if len(self._gain_cache) >= self._memo_limit:
            self._gain_cache.clear()
        self._gain_cache[key] = value
        return value

    def startup_time(self, p: int) -> float:
        """Estimated startup overhead of a ``p``-processor task."""
        return self.startup_model.startup(p)

    def compute_time(self, task_id: int, p: int) -> float:
        """Task time *excluding* startup (scales with node speed)."""
        return self.task_time(task_id, p) - self.startup_time(p)

    def work(self, task_id: int, p: int) -> float:
        """Processor-area of the task: ``p * T(t, p)``."""
        return p * self.task_time(task_id, p)

    def redistribution_time(
        self,
        src_id: int,
        p_src: int,
        p_dst: int,
        *,
        same_hosts: bool = False,
    ) -> float:
        """Estimated redistribution time for edge ``src -> dst``.

        The producer's whole output matrix moves once; with 1D block
        distributions on both sides the transfer parallelises over
        ``min(p_src, p_dst)`` concurrent port pairs.  When producer and
        consumer share the same host set no bytes cross the network, but
        the subnet-manager overhead still applies (processes must
        register regardless — Section V-C).
        """
        task = self.graph.task(src_id)
        overhead = self.redistribution_model.overhead(p_src, p_dst)
        if same_hosts or self.platform.num_nodes == 1:
            # No bytes cross the network (single node: everything is
            # local by construction), but the protocol overhead remains.
            return overhead
        total_bytes = matrix_bytes(task.n)
        ports = max(1, min(p_src, p_dst))
        bandwidth = self.platform.effective_bandwidth(0, 1)
        transfer = total_bytes / (ports * bandwidth)
        return overhead + transfer + self.platform.route_latency(0, 1)
