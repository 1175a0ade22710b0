"""Compiled backend: per-SM issue loops in C, merged at shared operations.

The event engine (``GPU._run_event``) orchestrates every SM from one
global cycle loop: per executed cycle it dispatches steps, maintains wake
caches, folds idle/level accounting, and recomputes the next event.  For a
*decoupled* run none of that global work is needed: each SM's issue timing
is a function of its own warps plus a small set of shared interactions.
This backend runs each SM's issue loop -- a C transcription of
``StreamingMultiprocessor._step_fast`` in the ``repro.sim._ckernel``
extension -- privately, and synchronizes only where the simulation is
genuinely coupled:

* **Shared memory hierarchy** -- L2/DRAM state (and the write-through L1
  path) is mutated by every access, so accesses must happen in the dense
  engine's global order: by (cycle, sm_id, program order).
* **Grid pulls** -- ``GPU.next_cta`` pops a shared deque; launches must
  observe the same global order.
* **Run end** -- final cycle count, timeout flag and deadlock detection
  are global reductions over the per-SM summaries.

The driver works in four parts:

* **Lowering** -- once per run, after the dense prologue fill: the static
  ``_meta`` table becomes a flat C array (srcs / dest / pattern /
  fused-kind / fixed latency), each unique dynamic trace is interned once
  (memoized by identity), and every warp / CTA / scheduler becomes a flat
  C record (scoreboard, ``blocked_until``, barrier counts, member lists in
  ``sched_seq`` order).
* **Merge points** -- ``Core.resume(sm_id)`` runs one SM privately and
  returns immediately before every hierarchy access and every
  ``_finish_warp``, with the SM's current cycle.  The held operation is
  then performed *in Python* through the real objects
  (``hierarchy._access``, ``sm._finish_warp``, the policy fill chain).  A
  k-way merge always serves the minimum ``(cycle, sm_id)``; resume cycles
  are nondecreasing and each SM holds one outstanding operation, so the
  merge reproduces the exact dense interleaving (all of SM *i*'s cycle-*c*
  operations before SM *j*'s for ``i < j``) -- and therefore every L2/DRAM
  state transition and grid race.  One merge point before
  ``_finish_warp`` covers the whole EXIT -> retire -> ``on_cta_finished``
  -> ``fill`` chain, because one SM's same-cycle shared operations are
  consecutive in dense order anyway; the chain runs through the real
  SM/policy methods, so instance-level wrappers stay honored and grid
  races revalidate naturally (``launch_new_cta`` returns None when another
  SM drained the deque).
* **Write-back** -- around each EXIT the mutated state is exchanged both
  ways: C's view of the SM (scheduler sleep/current, warp positions and
  block states, CTA barrier/stall fields) is written to the Python
  objects *before* the retire chain runs, and the chain's effects (freed
  warps, released barriers, freshly launched CTAs) are re-lowered after.
* **Reconciliation** -- closed-form, from each SM's summary ``(busy,
  wake, last_issue, n_issue, seg_start, seg_active, seg_warps)``:

  - *Executed-cycle set*: an SM visits exactly the cycles the dense
    engine would step it with a chance to act; the global clock rule (+1
    on any issue, else jump to the min next event) never skips a cycle in
    which any SM can act, so per-SM issue cycles are independent of the
    global visit set.
  - *Cycles/timeout*: with ``L`` the global last issue and no SM
    executing a cycle ``>= max_cycles``: all drained -> ``L + 1``, no
    timeout; ``L + 1 >= max_cycles`` -> ``L + 1``, timeout; otherwise the
    min busy-SM wake ``W`` (each ``>= max_cycles`` by construction, with
    SMs that stopped on a ``wake <= now`` cycle contributing
    ``max_cycles`` -- the dense clamp marches the clock there one cycle at
    a time), or a deadlock at ``L + 1`` when ``W`` is FOREVER.
  - *Idle cycles*: busy spans minus issue cycles -- ``now_final -
    n_issue`` for a busy-at-end SM, ``last_issue - (n_issue - 1)`` for a
    drained one (its busy span is ``[0, last_issue)`` plus the drain cycle
    itself, which the dense engine sees already-retired).
  - *Level integrals*: piecewise-constant; the C loop closes the open
    segment at the end of every visited cycle whose mutations set the
    level-dirty flag (the dense buffered-flush boundaries) and sums the
    closed segments as exact int64 products, merged into the float
    counters once; the final segment is closed here.

Eligibility is conservative and run-level (``compiled_run_eligible``): no
tracer/sanitizer/telemetry surface anywhere, a single launch, every SM
passes ``fast_step_eligible``, every policy is *inert* -- byte-for-byte
the base :class:`RegisterFilePolicy` behaviour (``policy_inert``) -- and
no instance-level override on the SM or stats surface the C core inlines.
Inert policies never create pending/transit CTAs, never act on idle/tick,
and classify every idle span as "other", which is what makes the per-SM
accounting closed-form.  Ineligible runs take the fused event engine.  The
gate tuples below are machine-checked by the effects auditor
(``repro.analyze.effects``, ``make analyze-effects``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.policies.base import RegisterFilePolicy
from repro.sim.warp import FOREVER, WarpState

#: Policy surface that must be byte-for-byte the base implementation for a
#: run to decouple.  State-changing hooks (fill / on_cta_*) because a real
#: implementation could park or activate CTAs (transit machinery the C
#: core does not model); bookkeeping hooks (classify_idle / next_event /
#: wake_time / on_tick / on_idle) because the closed-form accounting
#: replaces their call sites outright.  The effects auditor derives the
#: engine-reachable base-policy surface from the source and fails CI if a
#: reachable hook is missing here or an entry goes stale.
_INERT_POLICY_ATTRS = (
    "fill", "can_launch", "register_space_for_launch", "note_launched",
    "on_cta_stalled", "on_cta_finished", "on_tick", "on_idle",
    "_act_on_idle", "classify_idle", "next_event", "wake_time",
    "on_issue", "extras",
    "can_launch_for", "_launch_regs", "register_space_for",
    "_pop_ready_swap", "_pop_ready_fitting", "_new_cta_feasible",
    "stalled_active_ctas",
)

#: SM methods the Python engines dispatch dynamically but the C core
#: inlines or replaces: the event loop's step / next-event / accumulate
#: calls, and the transit settle, long-block check and barrier scheduler
#: wake inside ``_step_fast``.  An instance-level wrapper on any of these
#: would be silently skipped, so its presence routes the run to the fused
#: engine, which honors it.
_BYPASSED_SM_ATTRS = ("accumulate", "next_event", "next_event_fast",
                      "_step_fast", "_settle_transits", "_on_long_block",
                      "_wake_schedulers")

#: Stats surface inlined: the per-segment level flush runs in C as int64
#: sums (merged once at reconciliation).
_BYPASSED_STATS_ATTRS = ("accumulate",)

#: C warp-state ids <-> the Python enum (order is part of the C ABI).
_STATES = (WarpState.RUNNABLE, WarpState.AT_BARRIER, WarpState.FINISHED)
_STATE_IDS = {state: index for index, state in enumerate(_STATES)}


def instance_overrides(obj, names):
    """Names from ``names`` shadowed in ``obj``'s instance dict.

    An instance-level attribute shadows the class-level method the engine
    would otherwise resolve, so any hit disqualifies the C core.  Shared
    by ``policy_inert`` / ``compiled_run_eligible`` and imported by the
    effect auditor (``repro.analyze.effects``) so the bypass scan has one
    implementation.
    """
    instance_dict = getattr(obj, "__dict__", None)
    if not instance_dict:
        return ()
    return tuple(name for name in names if name in instance_dict)


def policy_inert(policy) -> bool:
    """True when ``policy`` is observably the base no-op policy."""
    cls = type(policy)
    for name in _INERT_POLICY_ATTRS:
        if getattr(cls, name) is not getattr(RegisterFilePolicy, name):
            return False
    if instance_overrides(policy, _INERT_POLICY_ATTRS):
        return False
    return not policy.needs_issue_hook and not policy._blocked_on_rf


def compiled_run_eligible(gpu) -> bool:
    """True when the whole run can execute on the C core.

    Stricter than per-SM ``fast_step_eligible``: the CTA-level tracer
    records launch/retire events in global order (which per-SM loops would
    scramble), and any non-inert policy could create pending/transit CTAs
    or observable idle/tick behaviour the closed-form accounting omits.
    Ineligible runs take the fused event engine -- never an error.
    """
    if (gpu.sanitizer is not None or gpu.telemetry is not None
            or gpu.tracer is not None or gpu.warp_tracer is not None):
        return False
    if len(gpu.launches) > 1:
        # Concurrent kernels: the C core assumes one grid with uniform CTA
        # footprints; route to the (arbiter-aware) event engine, which
        # keeps engine_used == "fused".
        return False
    for sm in gpu.sms:
        if not sm.fast_step_eligible():
            return False
        if instance_overrides(sm, _BYPASSED_SM_ATTRS):
            return False
        if instance_overrides(sm.stats, _BYPASSED_STATS_ATTRS):
            return False
        if not policy_inert(sm._policy):
            return False
        # The scheduler surface the C core inlines (the bucket scan, the
        # barrier wake, the sleep fold) needs no instance gate:
        # GTOScheduler declares __slots__, so instance-level overrides are
        # impossible, and fast_step_eligible already pins the exact type.
    return True


def run_compiled(gpu, max_cycles):
    """Drive one run on the C core (fused event engine if not eligible);
    bit-identical to the dense oracle by construction."""
    if not compiled_run_eligible(gpu):
        return gpu._run_event(max_cycles)
    gpu.engine_used = "compiled"
    sms = gpu.sms
    for sm in sms:
        sm._bind_fast_path()
    # Initial fill in SM order (exactly the dense prologue), then lower.
    for sm in sms:
        sm.policy.fill(0)
    return _Run(gpu, max_cycles).run()


class _Run:
    """One lowered run: the Core object plus the Python<->C slot maps."""

    def __init__(self, gpu, max_cycles) -> None:
        from repro.sim import _ckernel

        sms = gpu.sms
        sm0 = sms[0]
        model = gpu.address_model
        # _meta is identical across SMs for a single-launch run (the only
        # kind that is eligible): lower SM 0's table once.
        meta = [(m[6], -1 if m[1] is None else m[1], m[7], m[8], m[9],
                 tuple(m[0])) for m in sm0._meta]
        self.gpu = gpu
        self.max_cycles = max_cycles
        self.core = _ckernel.Core(
            len(sms), len(sm0.schedulers), sm0._nregs,
            sm0._stall_threshold, model.reuse_spatial, model.reuse_lines,
            model.shared_lines, model.SHARED_BASE, max_cycles, meta)
        # Identity maps.  Strong references pin the ids: traces are shared
        # and immutable, warps/CTAs live until the Core does.
        self.wslots = {}        # id(warp) -> warp slot
        self.slot_warps = []    # warp slot -> warp
        self.cslots = {}        # id(cta) -> CTA slot
        self._trace_slots = {}  # id(trace) -> trace slot
        self._refs = []
        for sm in sms:
            for cta in sm.active_ctas:
                self._lower_cta(sm, cta)
        for sm in sms:
            self._sync_sm(sm)

    # ------------------------------------------------------------------
    # Python -> C
    # ------------------------------------------------------------------
    def _lower_cta(self, sm, cta) -> None:
        """Lower one freshly launched CTA (all warps in pristine state)."""
        core = self.core
        cslot = core.new_cta(sm.sm_id, cta.cta_id)
        self.cslots[id(cta)] = cslot
        self._refs.append(cta)
        trace_slots = self._trace_slots
        for warp in cta.warps:
            trace = warp.trace
            tslot = trace_slots.get(id(trace))
            if tslot is None:
                tslot = core.add_trace(trace)
                trace_slots[id(trace)] = tslot
                self._refs.append(trace)
            wslot = core.new_warp(sm.sm_id, cslot, tslot,
                                  warp.global_warp_id)
            self.wslots[id(warp)] = wslot
            self.slot_warps.append(warp)

    def _sync_sm(self, sm) -> None:
        """Import the SM's scheduler membership and resource levels."""
        core = self.core
        wslots = self.wslots
        for k, sched in enumerate(sm.schedulers):
            current = sched._current
            core.set_sched(
                sm.sm_id, k, [wslots[id(w)] for w in sched.warps],
                sched._sleep_until,
                -1 if current is None else wslots[id(current)])
        core.set_levels(sm.sm_id, 1 if sm._lvl_dirty else 0,
                        len(sm.active_ctas), sm._active_warps)
        # The C core owns the level-flush boundary from here on (it clears
        # its dirty bit at its own end-of-cycle flush, the boundary at
        # which the dense engine's accumulate flushes the level segment).
        sm._lvl_dirty = False

    # ------------------------------------------------------------------
    # C -> Python
    # ------------------------------------------------------------------
    def _writeback_sm(self, sm) -> None:
        """Export C's view of one SM onto the real Python objects.

        Required before the EXIT retire chain runs: ``remove_warp`` /
        ``_resleep`` reads every sibling's ``blocked_until``,
        ``maybe_release_barrier`` reads warp states, and the scheduler
        sleep caches must round-trip exactly (a blanket wake here would
        corrupt the wake summary near ``max_cycles``).
        """
        core = self.core
        sm_id = sm.sm_id
        slot_warps = self.slot_warps
        wslots = self.wslots
        cslots = self.cslots
        for k, sched in enumerate(sm.schedulers):
            sleep, cur = core.sched_state(sm_id, k)
            sched._sleep_until = sleep
            sched._current = None if cur < 0 else slot_warps[cur]
            sched._dirty = True
        for cta in sm.active_ctas:
            arrived, first, recorded = core.get_cta(cslots[id(cta)])
            cta.barrier_arrived = arrived
            cta.first_issue_cycle = None if first < 0 else first
            cta.stall_recorded = bool(recorded)
            for warp in cta.warps:
                pos, state, blocked = core.get_warp(wslots[id(warp)])
                warp.pos = pos
                warp.state = _STATES[state]
                warp.blocked_until = blocked

    def _serve_exit(self, sm, now, wslot) -> None:
        """One EXIT merge point: run the real retire chain in Python.

        C already advanced the warp past its EXIT; the finish itself
        (packed stat credit, scheduler removal, barrier release, CTA
        retire -> policy fill -> grid pull) runs through the real SM and
        policy methods so instance-level wrappers stay honored and grid
        races revalidate naturally.
        """
        warp = self.slot_warps[wslot]
        self._writeback_sm(sm)
        sm._finish_warp(warp, now)
        exit_cta = warp.cta
        cslots = self.cslots
        for cta in sm.active_ctas:
            if id(cta) not in cslots:
                self._lower_cta(sm, cta)
        # The chain may have released the exiting CTA's barrier: re-import
        # its warps' states (the finished warp included) before the
        # scheduler/level sync.
        core = self.core
        wslots = self.wslots
        for w in exit_cta.warps:
            core.set_warp(wslots[id(w)], _STATE_IDS[w.state],
                          w.blocked_until)
        self._sync_sm(sm)

    # ------------------------------------------------------------------
    def run(self):
        gpu = self.gpu
        core = self.core
        sms = gpu.sms
        hier = gpu.hierarchy
        hier_stats = hier.stats
        access = hier._access
        resume = core.resume
        max_cycles = self.max_cycles

        results = [None] * len(sms)
        held = [None] * len(sms)
        heap = []
        for sm in sms:
            desc = resume(sm.sm_id, 0)
            if desc[0] == 0:
                results[sm.sm_id] = core.summary(sm.sm_id)
            else:
                held[sm.sm_id] = desc
                heap.append((desc[1], sm.sm_id))
        heapify(heap)

        # K-way merge on (cycle, sm_id): resume cycles are nondecreasing
        # and each SM holds one outstanding op, so serving the heap minimum
        # reproduces the dense global order; the inner loop keeps serving
        # the same SM while it remains the minimum (bursts of same-cycle
        # accesses skip the heap round trip).
        while heap:
            cycle, sm_id = heappop(heap)
            sm = sms[sm_id]
            while True:
                desc = held[sm_id]
                kind = desc[0]
                if kind == 1:       # LDG
                    hier_stats.loads += 1
                    done = access(sm_id, desc[3], desc[1], False)
                    desc = resume(sm_id, done)
                elif kind == 2:     # STG
                    hier_stats.stores += 1
                    access(sm_id, desc[3], desc[1], True)
                    desc = resume(sm_id, 0)
                else:               # EXIT
                    self._serve_exit(sm, desc[1], desc[2])
                    desc = resume(sm_id, 0)
                if desc[0] == 0:
                    results[sm_id] = core.summary(sm_id)
                    break
                cycle = desc[1]
                held[sm_id] = desc
                if heap:
                    head = heap[0]
                    if head[0] < cycle or (head[0] == cycle
                                           and head[1] < sm_id):
                        heappush(heap, (cycle, sm_id))
                        break

        # ---- reconciliation: clock, timeout, deadlock, idle/levels ----
        last = -1
        for summary in results:
            if summary[2] > last:
                last = summary[2]
        busy = [summary for summary in results if summary[0]]
        if not busy:
            now_final = last + 1
            timed_out = False
        elif last + 1 >= max_cycles:
            now_final = last + 1
            timed_out = True
        else:
            wake = min(summary[1] for summary in busy)
            if wake >= FOREVER:
                gpu._raise_deadlock(last + 1)
            now_final = wake
            timed_out = True

        for sm, summary in zip(sms, results):
            (was_busy, __, last_i, n_issue,
             seg_start, seg_active, seg_warps) = summary
            # Final state export: _flush_deferred_stats reads warp.pos of
            # unfinished warps on a timeout, and post-run introspection
            # (tests, debug_accounting) sees live state on every backend.
            self._writeback_sm(sm)
            stats = sm.stats
            cta_sum, warp_sum, max_res = core.levels(sm.sm_id)
            # The closed segments were accumulated in C as exact integer
            # sums; one float add of each total is bit-identical to the
            # dense per-segment float adds (every partial sum < 2**53).
            if cta_sum:
                stats.active_cta_cycles += cta_sum
            if warp_sum:
                stats.active_warp_cycles += warp_sum
            if max_res > stats.max_resident_ctas:
                stats.max_resident_ctas = max_res
            stalls = core.take_stalls(sm.sm_id)
            if stalls:
                stats.stall_latencies.extend(stalls)
            dt = now_final - seg_start
            if dt and (seg_active or seg_warps):
                stats.accumulate(dt, seg_active, 0, seg_warps)
            if was_busy:
                stats.idle_cycles += now_final - n_issue
            elif last_i >= 0:
                stats.idle_cycles += last_i - (n_issue - 1)
        return gpu._finish_run(now_final, timed_out)
