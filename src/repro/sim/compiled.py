"""Compiled backend: the event engine's cycle loop in C, policy hooks as ops.

``Core.resume`` in the ``repro.sim._ckernel`` extension is a C
transcription of the uninstrumented loop of ``GPU._run_event``: one global
clock, every SM stepped in ``sm_id`` order per executed cycle (each step a
transcription of ``StreamingMultiprocessor._step_fast``), the per-cycle
idle and level accounting, the idle jump to the minimum next event with
its ``max(1, .)`` clamp, timeout and deadlock.  Which cycles are executed
is a global fact -- cycle *c* is executed iff some SM issued at *c - 1* --
so a policy hook that must fire "at the first executed cycle at or after
X" is placed correctly by construction.

The core returns to Python only at **ops**, in the dense engine's global
order ``(cycle, sm_id, program order)``:

* ``LOAD`` / ``STORE`` -- a shared memory-hierarchy access, performed
  through ``hierarchy._access`` (L2/DRAM state is mutated by every SM).
* ``EXIT`` -- a warp EXIT: the real ``sm._finish_warp`` -> retire ->
  ``on_cta_finished`` -> ``fill`` chain (grid pulls included).
* ``SETTLE`` -- ``now`` reached the SM's earliest ``transit_until``
  (``sm._transit_min``): the real ``sm._settle_transits``.
* ``TICK`` -- ``now`` reached the cached ``policy.wake_time``: the real
  ``policy.on_tick``.
* ``IDLE`` -- a busy SM issued nothing, is past its idle cooldown and has
  at least one park candidate: the real ``policy.on_idle``.

Every served hook runs through the real objects, so the ACRF/PCRF/RMU
models, pending trackers, fills and bulk transfers stay Python.  The
skipped calls are provably exact:

* ``on_tick`` before ``wake_time`` and the settle scan before the earliest
  transit are no-ops (the event engine skips them on the same contract;
  ``wake_time`` and ``next_event`` change only inside a hook, and calling
  them after an op never mutates state).
* The base ``on_idle`` computes ``stalled_active_ctas`` once and, with
  none, only arms its 16-cycle cooldown; the core evaluates that
  predicate on its own warp state and arms the cooldown itself.
* ``classify_idle`` is the base body, so the core attributes RF-depletion
  cycles from the mirrored ``_blocked_on_rf`` flag; ``on_cta_stalled`` is
  the base no-op; there is no issue hook.

The surfaces of the last two points are what ``policy_inert`` checks
(``_INERT_POLICY_ATTRS``): the policy surface the core runs itself.

After each policy op the driver pushes the SM's mirrors in one call
(levels and dirty flag, earliest transit, ``wake_time``, ``next_event``,
``_next_idle_check``, ``_blocked_on_rf``, grid remaining) and re-imports
what the op can have changed; before it, C's view is written onto the
Python objects only where the op reads it (IDLE and EXIT: schedulers and
active CTAs' warps; SETTLE: schedulers; TICK: nothing).  The level, idle
and RF-depletion sums are int64 in C and merged into the float counters
once at run end.

Eligibility is run-level (``compiled_refusal``): no tracer, sanitizer or
telemetry surface, a single launch, every SM passes
``fast_step_eligible``, every policy passes ``policy_inert``, and no
instance-level override on the SM or stats surface the core inlines.  A
refused run takes the fused event engine, and ``gpu.engine_refusal``
names the first check that refused it.  The gate tuples below are
machine-checked by the effects auditor (``repro.analyze.effects``,
``make analyze-effects``).
"""

from __future__ import annotations

from typing import Optional

from repro.policies.base import RegisterFilePolicy
from repro.sim.warp import FOREVER, WarpState

#: Policy surface the C core runs itself, so it must be byte-for-byte the
#: base implementation: the issue hook (never called), the idle
#: attribution (``classify_idle``, from the mirrored flag), the
#: stalled-CTA hook (``_on_long_block`` is inlined), and ``on_idle`` /
#: ``stalled_active_ctas``, whose base bodies decide when an IDLE op is
#: due.  Every other hook is served as an op through the real policy.  The
#: effects auditor derives this surface from the source and fails CI if a
#: derived name is missing here or an entry goes stale.
_INERT_POLICY_ATTRS = ("on_issue", "classify_idle", "on_cta_stalled",
                       "on_idle", "stalled_active_ctas")

#: SM methods the Python engines dispatch dynamically but the C core
#: inlines or replaces: the event loop's step / next-event / accumulate
#: calls, and the long-block check and barrier scheduler wake inside
#: ``_step_fast``.  An instance-level wrapper on any of these would be
#: silently skipped, so its presence routes the run to the fused engine,
#: which honors it.
_BYPASSED_SM_ATTRS = ("accumulate", "next_event", "next_event_fast",
                      "_step_fast", "_on_long_block", "_wake_schedulers")

#: Stats surface inlined: the per-segment level flush runs in C as int64
#: sums (merged once at run end).
_BYPASSED_STATS_ATTRS = ("accumulate",)

#: C warp-state ids -> the Python enum (order is part of the C ABI).
_STATES = (WarpState.RUNNABLE, WarpState.AT_BARRIER, WarpState.FINISHED)

#: ``Core.resume`` op kinds (part of the C ABI).
(_OP_DONE, _OP_LOAD, _OP_STORE, _OP_EXIT, _OP_SETTLE, _OP_TICK, _OP_IDLE,
 _OP_DEADLOCK) = range(8)


def instance_overrides(obj, names):
    """Names from ``names`` shadowed in ``obj``'s instance dict.

    An instance-level attribute shadows the class-level method the engine
    would otherwise resolve, so any hit disqualifies the C core.  Shared
    by ``policy_refusal`` / ``compiled_refusal`` and imported by the
    effect auditor (``repro.analyze.effects``) so the bypass scan has one
    implementation.
    """
    instance_dict = getattr(obj, "__dict__", None)
    if not instance_dict:
        return ()
    return tuple(name for name in names if name in instance_dict)


def policy_refusal(policy) -> Optional[str]:
    """Why the C core cannot run ``policy`` (None when it can)."""
    if policy.needs_issue_hook:
        return "policy-hook:on_issue"
    cls = type(policy)
    for name in _INERT_POLICY_ATTRS:
        if getattr(cls, name) is not getattr(RegisterFilePolicy, name):
            return f"policy-hook:{name}"
    hits = instance_overrides(policy, _INERT_POLICY_ATTRS)
    if hits:
        return f"policy-hook:{hits[0]}"
    return None


def policy_inert(policy) -> bool:
    """True when the surface the C core runs itself is the base policy's."""
    return policy_refusal(policy) is None


def compiled_refusal(gpu) -> Optional[str]:
    """The first check that refuses the whole run on the C core, or None.

    The sanitizer, telemetry and the tracers observe per-cycle, per-warp
    or per-step events the core does not emit, and concurrent kernels
    need the dispatch arbiter; each routes the run to the fused event
    engine -- never an error.
    """
    if gpu.sanitizer is not None:
        return "sanitizer"
    if gpu.telemetry is not None:
        return "telemetry"
    if gpu.tracer is not None or gpu.warp_tracer is not None:
        return "tracer"
    if len(gpu.launches) > 1:
        return "concurrent-launches"
    for sm in gpu.sms:
        reason = policy_refusal(sm._policy)
        if reason is not None:
            return reason
        if not sm.fast_step_eligible():
            return "fast-step"
        hits = instance_overrides(sm, _BYPASSED_SM_ATTRS)
        if hits:
            return f"sm-override:{hits[0]}"
        if instance_overrides(sm.stats, _BYPASSED_STATS_ATTRS):
            return "stats-override:accumulate"
        # The scheduler surface the C core inlines (the bucket scan, the
        # barrier wake, the sleep fold) needs no instance gate:
        # GTOScheduler declares __slots__, so instance-level overrides are
        # impossible, and fast_step_eligible already pins the exact type.
    return None


def compiled_run_eligible(gpu) -> bool:
    """True when the whole run can execute on the C core."""
    return compiled_refusal(gpu) is None


def run_compiled(gpu, max_cycles):
    """Drive one run on the C core (fused event engine if refused);
    bit-identical to the dense oracle by construction."""
    reason = compiled_refusal(gpu)
    gpu.engine_refusal = reason
    if reason is not None:
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
    """One lowered run: the Core object plus the trace interning map."""

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
        self.core = _ckernel.Core(
            len(sms), len(sm0.schedulers), sm0._nregs,
            sm0._stall_threshold, model.reuse_spatial, model.reuse_lines,
            model.shared_lines, model.SHARED_BASE, max_cycles,
            gpu.config.min_park_cycles, meta, _STATES)
        # The core holds references to the lowered warps and CTAs (which
        # pins these ids: a warp references its trace), and maps them back
        # to their records; traces are interned once, by identity.
        self._lowered = set()   # id(cta) of every lowered CTA
        self._trace_slots = {}  # id(trace) -> trace slot
        for sm in sms:
            self.core.set_policy(sm.sm_id, sm, sm.schedulers, sm._needs_tick,
                                 sm._needs_idle)
            self._lower_new(sm)
            self.core.sync(sm.sm_id)
            # Every SM is stepped at cycle 0, so on_tick is due at once.
            self._push(sm, 0, 0, sm._policy._next_idle_check)

    # ------------------------------------------------------------------
    # Python -> C
    # ------------------------------------------------------------------
    def _lower_new(self, sm) -> None:
        """Lower every freshly launched CTA (all warps in pristine state)."""
        core = self.core
        lowered = self._lowered
        trace_slots = self._trace_slots
        for cta in sm.active_ctas:
            if id(cta) in lowered:
                continue
            lowered.add(id(cta))
            cslot = core.new_cta(cta, cta.cta_id)
            for warp in cta.warps:
                trace = warp.trace
                tslot = trace_slots.get(id(trace))
                if tslot is None:
                    tslot = core.add_trace(trace)
                    trace_slots[id(trace)] = tslot
                core.new_warp(warp, cslot, tslot, warp.global_warp_id)

    def _push(self, sm, now, wake, idle=-1) -> None:
        """Push the SM's mirrors after an op.

        ``wake`` is the cached ``wake_time``; None re-asks the policy, -1
        keeps the cached value (a settle precedes the cycle's tick slot,
        where the cache still holds).  ``idle`` is the idle cooldown, which
        only ``on_idle`` changes on the Python side (-1 keeps the core's,
        which it re-arms itself).  The C core owns the level-flush
        boundary from here on: it clears its dirty bit at its own
        end-of-cycle flush, where the dense engine's accumulate would.
        """
        policy = sm._policy
        if wake is None:
            wake = policy.wake_time(now) if sm._needs_tick else FOREVER
        self.core.mirror(
            sm.sm_id, len(sm.active_ctas),
            len(sm.pending_ctas) + len(sm.transit_ctas), sm._active_warps,
            sm._lvl_dirty, sm._transit_min, wake, policy.next_event(now),
            idle, policy._blocked_on_rf, self.gpu.ctas_remaining)
        sm._lvl_dirty = False

    # ------------------------------------------------------------------
    # Served ops.  Before each, ``core.export`` writes C's view onto the
    # Python objects only where the op reads it: ``remove_warp`` /
    # ``_resleep`` read every sibling's ``blocked_until``,
    # ``maybe_release_barrier`` and the idle hooks read warp states and
    # positions, and the scheduler sleep caches must round-trip exactly
    # (a blanket wake would corrupt the wake computation near
    # ``max_cycles``).  After each, ``core.sync`` re-imports the
    # schedulers and the active-CTA list where the op can change them.
    # ------------------------------------------------------------------
    def _serve_exit(self, sm, now, warp) -> None:
        """C already advanced the warp past its EXIT; the finish itself
        (packed stat credit, scheduler removal, barrier release, CTA
        retire -> policy fill -> grid pull) runs through the real SM and
        policy methods, so instance-level wrappers stay honored and grid
        races revalidate naturally."""
        core = self.core
        core.export(sm.sm_id, True)
        sm._finish_warp(warp, now)
        self._lower_new(sm)
        # The chain may have released the exiting CTA's barrier: re-import
        # its count and its warps' states (the finished warp included).
        core.reimport_cta(warp.cta)
        core.sync(sm.sm_id)
        self._push(sm, now, None)

    def _serve_settle(self, sm, now) -> None:
        self.core.export(sm.sm_id, False)
        sm._settle_transits(now)
        self.core.sync(sm.sm_id)
        self._push(sm, now, -1)

    def _serve_tick(self, sm, now) -> None:
        # on_tick only activates parked CTAs (pending -> transit): no
        # scheduler or active-list change, nothing to exchange but mirrors.
        sm._policy.on_tick(now)
        self._push(sm, now, None)

    def _serve_idle(self, sm, now, next_idle) -> None:
        policy = sm._policy
        policy._next_idle_check = next_idle
        self.core.export(sm.sm_id, True)
        # Schedulers and the active list change only through a park
        # (deactivate_cta), an activation or a launch, each of which bumps
        # one of these counters; an idle scan that moved nothing needs no
        # re-import.
        stats = sm.stats
        moves = stats.cta_switch_events + stats.cta_launches
        policy.on_idle(now)
        if stats.cta_switch_events + stats.cta_launches != moves:
            self._lower_new(sm)
            self.core.sync(sm.sm_id)
        self._push(sm, now, None, policy._next_idle_check)

    # ------------------------------------------------------------------
    def run(self):
        gpu = self.gpu
        core = self.core
        sms = gpu.sms
        hier = gpu.hierarchy
        hier_stats = hier.stats
        access = hier._access
        resume = core.resume
        value = 0
        while True:
            kind, now, sm_id, arg, address = resume(value)
            if kind == _OP_LOAD:
                hier_stats.loads += 1
                value = access(sm_id, address, now, False)
                continue
            value = 0
            if kind == _OP_STORE:
                hier_stats.stores += 1
                access(sm_id, address, now, True)
            elif kind == _OP_EXIT:
                self._serve_exit(sms[sm_id], now, arg)
            elif kind == _OP_TICK:
                self._serve_tick(sms[sm_id], now)
            elif kind == _OP_IDLE:
                self._serve_idle(sms[sm_id], now, arg)
            elif kind == _OP_SETTLE:
                self._serve_settle(sms[sm_id], now)
            elif kind == _OP_DONE:
                timed_out = arg
                break
            else:
                gpu._raise_deadlock(now)

        for sm in sms:
            # Final state export: _flush_deferred_stats reads warp.pos of
            # unfinished warps on a timeout, and post-run introspection
            # (tests, debug_accounting) sees live state on every backend.
            core.export(sm.sm_id, True)
            stats = sm.stats
            (cta_sum, pend_sum, warp_sum, max_res, idle, rf, next_idle,
             stalls) = core.finish(sm.sm_id)
            # The closed segments were accumulated in C as exact integer
            # sums; one float add of each total is bit-identical to the
            # dense per-segment float adds (every partial sum < 2**53).
            if cta_sum:
                stats.active_cta_cycles += cta_sum
            if pend_sum:
                stats.pending_cta_cycles += pend_sum
            if warp_sum:
                stats.active_warp_cycles += warp_sum
            if max_res > stats.max_resident_ctas:
                stats.max_resident_ctas = max_res
            stats.idle_cycles += idle
            stats.rf_depletion_cycles += rf
            if stalls:
                stats.stall_latencies.extend(stalls)
            sm._policy._next_idle_check = next_idle
        return gpu._finish_run(now, timed_out)
