"""Discrete-event core: actions with rates over shared resources.

The engine follows SimGrid's "surf" design.  The simulation state is a
set of :class:`Action` objects, each with

* a remaining amount of *work* (flops for a compute action, a normalised
  progress unit for a parallel task, bytes for a flow),
* a *consumption* mapping (how much of each resource one work-unit/s of
  progress consumes),
* an optional initial *latency* during which the action holds no
  resources (SimGrid models route latency the same way).

On every step the engine refreshes the max-min sharing rates, advances
time to the earliest completion (of a latency phase or of the work),
updates remaining amounts, and fires completion callbacks — which
typically enqueue follow-up actions.  The loop is exact for
piecewise-constant rates, which is what max-min sharing yields between
discrete events.

Fast-path invariants (cf. SimGrid's lazy action management):

* **Dirty-flag re-solve.**  Max-min rates only change when the *working*
  set (actions past their latency phase) or the resource pool changes:
  an action starts working (added with zero latency, or its latency
  elapses) or a resource-consuming action completes.  The engine tracks
  this with ``_rates_dirty`` and skips the sharing solve entirely on
  steps where only resource-free actions (timers, pure latencies)
  completed — the surviving actions' rates are provably unchanged.
* **Sole users rated directly.**  A re-solve gives every working action
  whose resources no other pending action references its standalone
  fair share, and hands only the rest to the sharing solver: none at
  all when nothing is shared, and none when one action is left, whose
  co-users are all still in their latency phase (it gets its fair
  share too).  The max-min problem is separable, so the rates are
  bit-identical to one solve over the whole working set.
* **O(1) completion handling.**  Pending actions live in an
  insertion-ordered dict used as a set, so removing the completed
  actions of a step costs O(completed) instead of the O(completed * n)
  of ``list.remove``.
* **Capacity pruning.**  ``_capacity`` is reference-counted per
  resource and entries are dropped when their last pending action
  completes, so long-lived engines do not accumulate stale resources.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Optional

from repro.obs.recorder import get_recorder
from repro.simgrid.resources import Resource
from repro.simgrid.sharing import _EPS as _LOAD_EPS
from repro.simgrid.sharing import solve_rates
from repro.util.errors import SimulationError

__all__ = ["Action", "SimulationEngine"]

_EPS = 1e-9
_REL_EPS = 1e-12

_action_counter = itertools.count()


class Action:
    """A unit of simulated activity.

    Parameters
    ----------
    name:
        Debug label.
    work:
        Amount of work in abstract units; progresses at the solver-given
        rate.  Zero-work actions complete as soon as their latency
        elapses (pure timers).
    consumption:
        ``{Resource: weight}`` — resource consumed per work-unit per
        second of progress.  Zero weights are dropped.
    latency:
        Initial delay before the work phase starts; consumes no
        resources (route latency, or a fixed measured overhead).
    on_complete:
        Callback ``f(engine, action)`` fired when the action finishes.
    payload:
        Arbitrary user data travelling with the action.
    """

    __slots__ = (
        "name",
        "remaining",
        "consumption",
        "latency_left",
        "on_complete",
        "payload",
        "rate",
        "start_time",
        "finish_time",
        "_seq",
    )

    def __init__(
        self,
        name: str,
        work: float,
        consumption: Optional[dict[Resource, float]] = None,
        latency: float = 0.0,
        on_complete: Optional[Callable[["SimulationEngine", "Action"], None]] = None,
        payload: object = None,
    ) -> None:
        if work < 0:
            raise SimulationError(f"action {name!r} has negative work {work}")
        if latency < 0:
            raise SimulationError(f"action {name!r} has negative latency {latency}")
        self.name = name
        self.remaining = float(work)
        self.consumption = {
            r: w for r, w in (consumption or {}).items() if w > 0.0
        }
        self.latency_left = float(latency)
        self.on_complete = on_complete
        self.payload = payload
        self.rate = 0.0
        self.start_time = math.nan
        self.finish_time = math.nan
        self._seq = next(_action_counter)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Action({self.name!r}, remaining={self.remaining:g}, "
            f"latency_left={self.latency_left:g})"
        )


class SimulationEngine:
    """Advances a set of actions over shared resources until quiescence."""

    def __init__(self) -> None:
        self.now = 0.0
        # Insertion-ordered action store (dict-as-set): O(1) removal,
        # iteration in creation order — the order every scan relies on.
        self._actions: dict[Action, None] = {}
        self._capacity: dict[Resource, float] = {}
        # How many pending actions reference each capacity entry; the
        # entry is pruned when the count returns to zero.
        self._cap_refs: dict[Resource, int] = {}
        # Rates must be recomputed before the next scan (working set or
        # resource pool changed since the last solve).
        self._rates_dirty = False
        # Observability: the recorder is sampled once per engine (cheap)
        # and every emission below is guarded by ``_obs.enabled`` so the
        # hot loop pays one attribute load + branch when tracing is off —
        # no event dicts are ever built on the disabled path.
        self._obs = get_recorder()
        # Simulated-time timeline (None unless the recorder carries
        # one); share emissions below guard with ``is not None`` — the
        # same one-load-one-branch cost as the ``enabled`` checks.
        self._tl = self._obs.timeline
        # Wall-clock profiler (None unless the recorder carries one);
        # the solve probe guards with ``is not None`` likewise.
        self._prof = self._obs.profiler
        self.steps_taken = 0
        self.solver_calls = 0

    # ------------------------------------------------------------------
    def add_action(self, action: Action) -> Action:
        """Register an action; it starts progressing at the current time."""
        action.start_time = self.now
        cap_refs = self._cap_refs
        for res in action.consumption:
            refs = cap_refs.get(res, 0)
            if refs == 0:
                self._capacity[res] = res.capacity
            cap_refs[res] = refs + 1
        self._actions[action] = None
        if action.latency_left <= 0.0 and not (
            self._rates_dirty or self._set_standalone_rate(action)
        ):
            # Immediately part of the working set and sharing resources
            # with other pending actions: rates must be re-solved.  A
            # latency-phase action holds no resources yet, so adding it
            # leaves the current rates valid until the latency ends.
            self._rates_dirty = True
        if self._obs.enabled:
            self._obs.count("engine.actions_started")
        return action

    def add_timer(
        self,
        delay: float,
        on_complete: Callable[["SimulationEngine", Action], None],
        name: str = "timer",
        payload: object = None,
    ) -> Action:
        """Convenience: a resource-free action firing after ``delay``."""
        return self.add_action(
            Action(name, work=0.0, latency=delay, on_complete=on_complete,
                   payload=payload)
        )

    # ------------------------------------------------------------------
    def _release_resources(self, action: Action) -> bool:
        """Drop the completed action's capacity references.

        Returns True when any of its resources is still referenced by
        another pending action.  Only then can the completion change the
        survivors' max-min rates: the sharing problem is separable, so
        removing an action whose resources nobody else touches leaves
        every other action's rate bit-identical — the caller may skip
        the re-solve entirely.
        """
        cap_refs = self._cap_refs
        shared = False
        for res in action.consumption:
            refs = cap_refs[res] - 1
            if refs:
                cap_refs[res] = refs
                shared = True
            else:
                del cap_refs[res]
                del self._capacity[res]
        return shared

    def _standalone_rate(self, action: Action) -> float | None:
        """The max-min rate of an action that shares nothing, else None.

        When every resource the action consumes is referenced by no
        other pending action (capacity refcount 1), the sharing problem
        is separable: no other action ever deducts from the action's
        resources, so its max-min rate is its standalone fair share
        ``min(capacity / weight)`` over its resources, computed with
        the exact expressions the full solver would use and therefore
        bit-identical, and every other action's rate is what a solve
        without it gives.  Returns None (the action needs the joint
        solve) when any resource is shared, or when every weight falls
        under the solver's load epsilon (the solver would reject that
        instance; let it).
        """
        cap_refs = self._cap_refs
        consumption = action.consumption
        for res in consumption:
            if cap_refs[res] != 1:
                return None
        if not consumption:
            # Resource-free work progresses at infinite rate, exactly as
            # the solver rates it.
            return math.inf
        return self._fair_share(consumption)

    def _fair_share(self, consumption: dict[Resource, float]) -> float | None:
        """``min(capacity / weight)`` over an action's resources: its
        max-min rate when no other working action uses them.

        Computed with the exact expressions the solver uses, so the
        rate is bit-identical.  None when every weight falls under the
        solver's load epsilon (the solver would reject that instance;
        let it).
        """
        best = math.inf
        capacity = self._capacity
        for res, w in consumption.items():
            if w <= _LOAD_EPS:
                continue
            share = capacity[res] / w
            if share < best:
                best = share
        if math.isinf(best):
            return None
        return best

    def _set_standalone_rate(self, action: Action) -> bool:
        """Rate a working-set entrant directly when it shares nothing.

        The survivors' rates are unchanged (see
        :meth:`_standalone_rate`).  Returns False when the caller must
        schedule a full re-solve instead.
        """
        rate = self._standalone_rate(action)
        if rate is None:
            return False
        action.rate = rate
        if rate != math.inf and self._tl is not None:
            self._tl.share(self.now, action.name, rate)
        return True

    def _rate_working_set(self, working: list[Action]) -> None:
        """Rate sole users directly and solve the rest jointly.

        An action whose every resource has capacity refcount 1 gets its
        standalone rate (:meth:`_standalone_rate`); the others go to the
        sharing solver, with ``validate=False``: the Action constructor
        already drops non-positive weights, ``Resource`` rejects
        non-positive capacities, and the refcounted ``_capacity``
        covers every pending action's resources by construction.  The
        problem is separable, so both parts are bit-identical to one
        solve over the whole working set, and the solver is not called
        when no action shares a resource.  Nor is it called for a lone
        action left over: its co-users are all still in their latency
        phase, so its rate is its :meth:`_fair_share`, exactly the
        solver's one-action result.
        """
        standalone_rate = self._standalone_rate
        shared: dict[Action, dict[Resource, float]] = {}
        for action in working:
            rate = standalone_rate(action)
            if rate is None:
                shared[action] = action.consumption
            else:
                action.rate = rate
        if len(shared) == 1:
            ((action, consumption),) = shared.items()
            rate = self._fair_share(consumption)
            if rate is not None:
                action.rate = rate
                return
        if shared:
            rates = solve_rates(shared, self._capacity, validate=False)
            for action, rate in rates.items():
                action.rate = rate

    def _solve(self) -> None:
        """Refresh every working action's rate.

        Every call with a non-empty working set counts as one re-solve
        (``solver_calls``, the ``engine.solve`` timing and the
        ``solve_rates`` profile probe, sized by the whole working set),
        however many of its actions the sharing solver itself sees.
        """
        working = [a for a in self._actions if a.latency_left <= 0.0]
        if not working:
            return
        self.solver_calls += 1
        obs = self._obs
        if obs.enabled:
            # Aggregate-only timing: a full span record per solve would
            # write to the sink more often than any other event in the
            # system and distort the timings it reports.
            t0 = time.perf_counter()
            self._rate_working_set(working)
            seconds = time.perf_counter() - t0
            obs.timing("engine.solve", seconds)
            prof = self._prof
            if prof is not None:
                # Sized by total consumption entries, the solver's
                # working-set size.
                prof.probe(
                    "solve_rates",
                    sum(len(a.consumption) for a in working),
                    seconds,
                )
        else:
            self._rate_working_set(working)
        tl = self._tl
        if tl is not None:
            # Share records iterate the working set in creation order,
            # not the solver's freeze order; non-finite rates
            # (resource-free actions) are skipped — they are not
            # JSON-serialisable and carry no sharing information.
            now = self.now
            inf = math.inf
            for action in working:
                rate = action.rate
                if rate != inf:
                    tl.share(now, action.name, rate)

    def step(self) -> bool:
        """Advance to the next event; return False when nothing is left."""
        actions = self._actions
        if not actions:
            return False
        if self._rates_dirty:
            self._solve()
            self._rates_dirty = False
        inf = math.inf
        times: list[float] = []
        dt = inf
        for action in actions:
            if action.latency_left > 0.0:
                t = action.latency_left
            elif action.remaining <= 0.0:
                t = 0.0
            else:
                rate = action.rate
                if rate <= 0.0:
                    t = inf
                elif rate == inf:
                    t = 0.0
                else:
                    t = action.remaining / rate
            times.append(t)
            if t < dt:
                dt = t
        if math.isinf(dt):
            names = [a.name for a in actions]
            raise SimulationError(
                f"simulation stalled at t={self.now}: actions {names} can "
                "make no progress (zero rate)"
            )
        if dt < 0:
            raise SimulationError(f"negative time step {dt}")
        self.now += dt
        # An action "fires" this step if its time-to-event equals the
        # minimum (within a relative tolerance, to absorb FP residue).
        threshold = dt * (1.0 + _REL_EPS) + _EPS * 1e-6
        completed: list[Action] = []
        for i, action in enumerate(actions):
            fires = times[i] <= threshold
            if action.latency_left > 0.0:
                if fires:
                    action.latency_left = 0.0
                    if action.remaining <= 0.0:
                        completed.append(action)
                    elif not (
                        self._rates_dirty or self._set_standalone_rate(action)
                    ):
                        # Entered the working set sharing resources with
                        # other pending actions: it needs a joint solve.
                        self._rates_dirty = True
                else:
                    action.latency_left -= dt
            else:
                if fires:
                    action.remaining = 0.0
                    completed.append(action)
                elif action.rate != inf:
                    action.remaining = max(0.0, action.remaining - action.rate * dt)
        # Deterministic completion order: creation order.
        completed.sort(key=lambda a: a._seq)
        for action in completed:
            del actions[action]
            if action.consumption:
                # Freed capacity changes the survivors' fair shares —
                # but only where it is actually shared: a resource-free
                # completion, or one whose resources no other pending
                # action touches, leaves every survivor's rate intact.
                if self._release_resources(action):
                    self._rates_dirty = True
        self.steps_taken += 1
        if self._obs.enabled:
            # Queue depth here is post-removal, pre-callback: the still
            # running actions, before completions enqueue follow-ups.
            self._obs.count("engine.completions", len(completed))
            self._obs.event(
                "engine.step",
                t=self.now,
                dt=dt,
                queue=len(actions),
                completed=len(completed),
            )
        for action in completed:
            action.finish_time = self.now
            if action.on_complete is not None:
                action.on_complete(self, action)
        return True

    def run(self, *, max_steps: int = 10_000_000) -> float:
        """Run to quiescence; returns the final simulated time."""
        steps = 0
        while self.step():
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"exceeded {max_steps} steps; livelock suspected"
                )
        if self._obs.enabled:
            self._obs.count("engine.steps", steps)
            self._obs.count("engine.solver_calls", self.solver_calls)
        return self.now
