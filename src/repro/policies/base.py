"""Policy interface and shared machinery.

A :class:`RegisterFilePolicy` is instantiated per SM and owns that SM's
register-capacity bookkeeping.  The SM calls into it at well-defined points:

* ``fill(now)``       -- launch CTAs while resources allow (start / after retire)
* ``on_cta_stalled``  -- an active CTA's warps are all blocked long-term
* ``on_cta_finished`` -- a CTA retired; its registers are free
* ``on_tick``         -- top of an SM step (the dense oracle calls it at
  every executed cycle; the event engines skip it until ``wake_time``)
* ``on_idle``         -- the SM issued nothing (the dense oracle calls it at
  every idle cycle; the event engines skip the calls that cannot act,
  ``idle_wake``)
* ``on_issue``        -- optional per-instruction hook (only RegMutex uses it)

``PendingTracker`` implements the cheap-readiness machinery every switching
policy needs: a pending CTA's warps do not execute, so the cycle at which its
stall clears is known exactly at switch-out time and can sit in a heap.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, TYPE_CHECKING

from repro.sim.cta import CTASim, CTAState
from repro.sim.tracing import EventKind
from repro.sim.warp import FOREVER, WarpState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sm import StreamingMultiprocessor

#: Cycles ``on_idle`` waits after an idle check that moved nothing.  The
#: event engines and the C core read it from here when a run starts, so
#: one assignment moves every engine.
IDLE_COOLDOWN = 16


class PendingTracker:
    """Readiness heap over pending CTAs."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._ready: List[CTASim] = []

    def add(self, cta: CTASim, ready_time: int) -> None:
        heapq.heappush(self._heap, (ready_time, cta.cta_id, cta))

    def drain_ready(self, now: int) -> None:
        """Move CTAs whose stall has cleared into the ready list."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            __, __, cta = heapq.heappop(heap)
            if cta.state is CTAState.PENDING:
                self._ready.append(cta)
            elif (cta.state is CTAState.TRANSIT
                  and cta.transit_target is CTAState.PENDING):
                # Still on its way out; revisit once the switch settles.
                heapq.heappush(heap, (cta.transit_until + 1, cta.cta_id, cta))
            # CTAs that left PENDING by other means are simply dropped.

    def ready_ctas(self, now: int) -> List[CTASim]:
        self.drain_ready(now)
        self._ready = [c for c in self._ready if c.state is CTAState.PENDING]
        return self._ready

    def pop_ready(self, now: int, cta: Optional[CTASim] = None
                  ) -> Optional[CTASim]:
        """Take one ready CTA (oldest first, or a specific one)."""
        ready = self.ready_ctas(now)
        if not ready:
            return None
        if cta is None:
            cta = min(ready, key=lambda c: c.cta_id)
        ready.remove(cta)
        return cta

    def has_ready(self, now: int, launches=None) -> bool:
        """``bool(ready_ctas(now))`` without rebuilding the ready list;
        with ``launches``, whether a ready CTA of one of them exists.

        Every reader of ``_ready`` filters it first, so leaving entries
        that left PENDING for the next ``ready_ctas`` to drop changes no
        result; with ``_ready`` empty and the heap top later than ``now``
        the answer is False without touching anything.
        """
        heap = self._heap
        if heap and heap[0][0] <= now:
            self.drain_ready(now)
        for cta in self._ready:
            if cta.state is CTAState.PENDING and (
                    launches is None or cta.launch in launches):
                return True
        return False

    def next_ready_time(self) -> int:
        return self._heap[0][0] if self._heap else FOREVER

    def __len__(self) -> int:
        return len(self._heap) + len(self._ready)


class RegisterFilePolicy:
    """Base policy = shared launch loop + no-op switching (subclasses extend).

    ``rf_capacity_entries``/``rf_used_entries`` are in warp-registers.
    """

    name = "abstract"
    needs_issue_hook = False

    def __init__(self, sm: "StreamingMultiprocessor") -> None:
        self.sm = sm
        self.config = sm.config
        self.rf_capacity_entries = sm.config.rf_warp_registers
        self.rf_used_entries = 0
        # Set when the policy wanted to switch but storage was depleted;
        # consumed by classify_idle for Fig 14 attribution.
        self._blocked_on_rf = False
        self._next_idle_check = 0

    # ------------------------------------------------------------------
    # Launching.  Every check takes the launch whose CTA it is about: the
    # SM's Table-I limits and register file are budgets shared by every
    # resident grid, and a one-launch run is the one-element case.
    # ------------------------------------------------------------------
    def can_launch(self, launch) -> bool:
        """May one more CTA of ``launch`` start right now?"""
        return (self.sm.scheduler_slots_free(launch)
                and self.sm.shmem_free(launch.shmem_per_cta)
                and self.register_space_for(self._launch_regs(launch)))

    def _launch_regs(self, launch) -> int:
        """Register footprint of one CTA of ``launch`` under this policy."""
        return launch.cta_regs

    def register_space_for(self, regs: int) -> bool:
        return self.rf_used_entries + regs <= self.rf_capacity_entries

    def _pop_lowest_ready(self, tracker: PendingTracker, now: int,
                          fitting) -> Optional[CTASim]:
        """Take the lowest-id ready CTA of ``tracker`` whose launch is in
        ``fitting``, the launches whose next CTA fits (each asked once).

        Callers skip the call when ``fitting`` is empty: a blocked check
        then touches no tracker and costs one fit per launch.
        """
        ready = [cta for cta in tracker.ready_ctas(now)
                 if cta.launch in fitting]
        if not ready:
            return None
        return tracker.pop_ready(now, min(ready, key=lambda c: c.cta_id))

    def _pop_ready_swap(self, tracker: PendingTracker, outgoing: CTASim,
                        now: int) -> Optional[CTASim]:
        """A ready pending CTA that may legally replace ``outgoing``."""
        sm = self.sm
        fitting = [launch for launch in sm.gpu.launches
                   if sm.swap_slots_free(outgoing, launch)]
        return self._pop_lowest_ready(tracker, now, fitting) \
            if fitting else None

    def _slot_launches(self) -> list:
        """The launches one more active CTA of which the scheduler slots
        admit."""
        sm = self.sm
        return [launch for launch in sm.gpu.launches
                if sm.scheduler_slots_free(launch)]

    def _pop_ready_fitting(self, tracker: PendingTracker, now: int
                           ) -> Optional[CTASim]:
        """A ready pending CTA whose footprint fits free scheduler slots."""
        fitting = self._slot_launches()
        return self._pop_lowest_ready(tracker, now, fitting) \
            if fitting else None

    def _new_cta_feasible(self) -> bool:
        """Could a brand-new CTA of *some* launch start (given registers
        and shared memory; scheduler slots are the caller's concern)?"""
        return self.sm.gpu.arbiter.next_fitting(
            lambda l: (self.register_space_for(self._launch_regs(l))
                       and self.sm.shmem_free(l.shmem_per_cta))) is not None

    def fill(self, now: int) -> int:
        """Launch CTAs until a limit binds; returns how many started."""
        launched = 0
        arbiter = self.sm.gpu.arbiter
        while True:
            launch = arbiter.next_fitting(self.can_launch)
            if launch is None:
                break
            cta = self.sm.launch_new_cta(now, launch)
            self.rf_used_entries += self._launch_regs(launch)
            self.note_launched(cta, now)
            arbiter.note_dispatched(launch)
            launched += 1
        return launched

    def note_launched(self, cta: CTASim, now: int) -> None:
        """Subclass hook (status monitors etc.)."""

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_cta_stalled(self, cta: CTASim, now: int) -> None:
        """Baseline: stalls are simply waited out."""

    def on_cta_finished(self, cta: CTASim, now: int) -> None:
        self.rf_used_entries -= self._launch_regs(cta.launch)
        self.fill(now)

    def on_tick(self, now: int) -> None:
        """Called at the top of an SM step; default does nothing."""

    def on_idle(self, now: int) -> None:
        """Called when this SM issued nothing this cycle.

        This is where switching policies act: every CTA that could issue has
        already done so, so any fully stalled CTA can be parked with zero
        opportunity cost.  A short cooldown (``IDLE_COOLDOWN``) bounds the
        rescan cost while one SM idles and another keeps the global clock
        ticking cycle by cycle.

        The stalled set is computed once here: with none to park, the
        cooldown is armed without calling the subclass (which could only
        have found nothing to do), so the compiled core can make the same
        decision from its own warp state and skip the call.  The event
        engines skip the call as well while :meth:`idle_wake` is later
        than ``now`` (when :func:`idle_wake_trusted`): the subclass would
        move nothing, so they arm the cooldown themselves.  The dense
        oracle calls this on every idle cycle of a busy SM.
        """
        if now < self._next_idle_check:
            return
        stalled = self.stalled_active_ctas(now)
        if not stalled or not self._act_on_idle(now, stalled):
            self._next_idle_check = now + IDLE_COOLDOWN

    def _act_on_idle(self, now: int, stalled) -> bool:
        """Subclass hook: try to switch out the ``stalled`` CTAs (a
        non-empty list from :meth:`stalled_active_ctas`); return True if
        anything moved."""
        return False

    def idle_wake(self, now: int) -> int:
        """Event engines: the earliest executed cycle at which
        ``_act_on_idle`` can change policy or SM state, given the SM's
        frozen state.

        Before it ``_act_on_idle`` must return False and change nothing,
        so the engines arm the idle cooldown in place of ``on_idle``.  A
        switching policy parks a stalled CTA only so that something else
        can use its space: it returns ``now`` while a ready pending CTA
        exists or a new CTA could start, and otherwise its earliest
        readiness-heap top, where a parked CTA comes due.  The base
        returns ``now``, which keeps the gate open.

        The same two rules as :meth:`wake_time` hold: the value changes
        only inside a hook (the engines re-ask after every one), and
        computing it never mutates state.  So a policy looks at a heap top
        before it calls :meth:`PendingTracker.has_ready`, and asks only
        side-effect-free predicates, never ``can_launch``
        (finereg_adaptive counts ACRF refusals there).  Across SMs the
        grid only drains, which can only close the gate; a stale open gate
        costs one call that moves nothing, since the real hook decides.

        A subclass that widens ``_act_on_idle`` or ``_try_switch_out``
        must restate ``idle_wake``: the engines trust it only next to the
        ``_act_on_idle`` it bounds (:func:`idle_wake_trusted`).
        """
        return now

    def idle_backlog_limit(self) -> float:
        """A DRAM backlog, in cycles, under which ``_act_on_idle`` can act
        even before :meth:`idle_wake`.

        For a test that also reads ``DRAM.backlog`` (FineReg's new-CTA
        launch): the policy returns the test's threshold when the rest of
        it holds, and the engines compare the backlog live, since it moves
        inside the C core between hooks.  The base returns 0.0, which no
        backlog is under.
        """
        return 0.0

    def stalled_active_ctas(self, now: int):
        """Active CTAs that are completely stalled and worth parking.

        One pass per CTA computes ``cta.fully_stalled(now,
        min_remaining=1) and cta.earliest_resume(now) - now >=
        min_park_cycles``: every unfinished warp blocked past ``now``, and
        the earliest ``blocked_until`` (finished warps read FOREVER) far
        enough away.
        """
        threshold = self.config.min_park_cycles
        out = []
        for cta in self.sm.active_ctas:
            earliest = FOREVER
            unfinished = False
            for warp in cta.warps:
                b = warp.blocked_until
                if b < earliest:
                    earliest = b
                if warp.state is WarpState.FINISHED:
                    continue
                unfinished = True
                if b <= now:
                    break
            else:
                if unfinished and earliest - now >= threshold:
                    out.append(cta)
        return out

    def on_issue(self, warp, static_index: int, now: int) -> bool:
        """Per-instruction hook (RegMutex); True = may issue."""
        return True

    # ------------------------------------------------------------------
    # Idle attribution & wake-up support
    # ------------------------------------------------------------------
    def classify_idle(self, dt: int) -> str:
        """Attribute an idle period: 'rf', 'srp', or 'other' (Fig 14)."""
        if self._blocked_on_rf:
            return "rf"
        return "other"

    def _set_rf_blocked(self, blocked: bool, now: int, cta_id: int) -> None:
        """Flip the RF-depletion flag, emitting stall begin/end events on
        transitions when a warp-level tracer is attached."""
        if blocked == self._blocked_on_rf:
            return
        self._blocked_on_rf = blocked
        tracer = self.sm.gpu.warp_tracer
        if tracer is not None:
            kind = (EventKind.RF_STALL_BEGIN if blocked
                    else EventKind.RF_STALL_END)
            tracer.record(now, self.sm.sm_id, kind, cta_id)

    def telemetry_levels(self) -> dict:
        """Register-file occupancy levels for per-cycle timeline sampling.

        Baseline policies expose the unified RF; split-RF policies override
        with ACRF/PCRF series.
        """
        return {
            "rf_free": self.rf_capacity_entries - self.rf_used_entries,
            "rf_used": self.rf_used_entries,
        }

    def next_event(self, now: int) -> int:
        """Earliest cycle a policy-driven event (pending ready) can fire.

        Two rules let the engines cache the value: it changes only inside
        a hook (``fill`` / ``on_cta_*`` / ``on_tick`` / ``on_idle``), and
        calling it after a hook never mutates state.
        """
        return FOREVER

    def wake_time(self, now: int) -> int:
        """Event engines: the earliest executed cycle at which ``on_tick``
        can change policy or SM state, given the SM's frozen state.

        Consulted only for policies that override ``on_tick``, after any
        hook at ``now``: a transit settle, which comes before the cycle's
        tick slot, or ``on_tick`` and the hooks after it.  Returning
        ``now`` asks for the next tick slot (this cycle's after a settle,
        the next executed cycle's otherwise); a policy returns it only
        while its tick would act.  Until the returned cycle ``on_tick``
        must be an observable no-op, since every hook that can make it act
        re-asks.  The value is never later than a readiness heap's top:
        the tick there drains the heap whose top :meth:`next_event` hands
        to the idle jump.

        The same two rules as :meth:`next_event` hold: the value changes
        only inside a hook, and calling it never mutates state (a
        :class:`PendingTracker` read while its heap top is later than
        ``now`` drains nothing).
        """
        return FOREVER

    # ------------------------------------------------------------------
    # Result extras
    # ------------------------------------------------------------------
    def extras(self) -> dict:
        """Policy-specific numbers merged into the SimResult assembly."""
        return {}


def idle_wake_trusted(policy) -> bool:
    """Whether the event engines may skip ``policy.on_idle`` before
    ``policy.idle_wake``.

    Only when ``on_idle`` is the base body, whose cooldown the engines arm
    in its place, and the class that defines ``idle_wake`` is the class
    that defines ``_act_on_idle`` or a subclass of it: a subclass that
    widens ``_act_on_idle`` and inherits ``idle_wake`` would be gated by a
    bound written for another body.  None of the three may be shadowed in
    the instance dict.  Keyed off the class objects, never the policy's
    name.  Otherwise the engines call ``on_idle`` as the dense oracle
    does.
    """
    names = ("on_idle", "idle_wake", "_act_on_idle")
    instance_dict = getattr(policy, "__dict__", {})
    if any(name in instance_dict for name in names):
        return False
    cls = type(policy)
    if cls.on_idle is not RegisterFilePolicy.on_idle:
        return False
    mro = cls.__mro__

    def owner(name):
        return next(klass for klass in mro if name in vars(klass))
    return issubclass(owner("idle_wake"), owner("_act_on_idle"))
