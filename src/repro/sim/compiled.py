"""Compiled backend: the event engine's cycle loop and the memory hierarchy
in C, policy hooks as ops.

``Core.resume`` in the ``repro.sim._ckernel`` extension is a C
transcription of ``GPU._run_event``: one global clock, every SM stepped in
``sm_id`` order per executed cycle (each step a transcription of
``StreamingMultiprocessor.step`` with ``GTOScheduler.issue`` and
``StreamingMultiprocessor._try_issue`` inlined), the per-cycle idle and
level accounting, the idle jump to the minimum ``SM.next_event`` with its
``max(1, .)`` clamp, timeout and deadlock.  Which cycles are executed
is a global fact -- cycle *c* is executed iff some SM issued at *c - 1* --
so a policy hook that must fire "at the first executed cycle at or after
X" is placed correctly by construction.

The core also owns the memory hierarchy for the run: every L1's and the
L2's tag arrays (MRU order, a dirty bit per way), the per-SM merge tables
and the DRAM channel, lowered from ``gpu.hierarchy`` (so a warmed L2 or a
unified-memory L1 resize carries over) and written back at run end.  An
LDG/STG completes inside the issue loop through a C transcription of
``MemoryHierarchy._access``.

The core returns to Python only at **ops**, in the dense engine's global
order ``(cycle, sm_id, program order)``:

* ``EXIT`` -- a warp EXIT: the real ``sm._finish_warp`` -> retire ->
  ``on_cta_finished`` -> ``fill`` chain (grid pulls included).
* ``SETTLE`` -- ``now`` reached the SM's earliest ``transit_until``
  (``sm._transit_min``): the real ``sm._settle_transits``.
* ``TICK`` -- ``now`` reached the cached ``policy.wake_time``, the
  earliest executed cycle at which the tick can change anything: the
  real ``policy.on_tick``.
* ``IDLE`` -- a busy SM issued nothing, is past its idle cooldown, has
  at least one park candidate, and its policy can act: ``now`` reached the
  cached ``policy.idle_wake``, or the DRAM backlog is under the cached
  ``policy.idle_backlog_limit``.  The real ``policy.on_idle``.

Every served hook runs through the real objects, so the ACRF/PCRF/RMU
models, pending trackers, fills and bulk transfers stay Python.  The
skipped calls are provably exact:

* ``on_tick`` before ``wake_time`` and the settle scan before the earliest
  transit are no-ops (the event engine skips them on the same contract;
  ``wake_time`` and ``next_event`` change only inside a hook, and calling
  them after an op never mutates state).  ``wake_time`` is re-asked after
  every op, a SETTLE included: a settle comes before its cycle's tick
  slot and can free warp slots.  What a skipped tick would have counted
  once per executed cycle (FineReg's blocked restores), the policy counts
  in closed form over ``gpu.executed_cycles``, which the driver sets from
  the core's count before serving each op.
* The base ``on_idle`` computes ``stalled_active_ctas`` once and, with
  none, only arms its cooldown (``IDLE_COOLDOWN``, which the core takes
  from ``policies.base`` at lowering); the core evaluates that predicate
  on its own warp state and arms the cooldown itself.  It does the same
  while ``_act_on_idle`` cannot act, before ``idle_wake`` (the reference
  engine applies the same gate): the value changes only inside a hook,
  computing it never mutates state, and it is re-asked after every op.
  Across SMs the grid only drains, which can only close a gate, and a
  stale open gate costs one op that moves nothing.  FineReg's new-CTA
  test also reads the DRAM backlog, which moves inside the core between
  ops, so the policy hands over the rest of that test as
  ``idle_backlog_limit`` and the core compares the backlog live.  The
  gate is trusted only next to the ``_act_on_idle`` it bounds
  (``idle_wake_trusted``); otherwise the driver pushes ``now``, an open
  gate.
* ``classify_idle`` is the base body, which the core runs from the
  mirrored ``_blocked_on_rf`` flag, or ``RegMutexPolicy``'s, which the
  core runs on its own copy of the shared register pool (SRP);
  ``on_cta_stalled`` is the base no-op; the issue hook is none or
  ``RegMutexPolicy.on_issue``, the per-instruction SRP lease, which the
  core runs where ``_try_issue`` calls it.

The surfaces of the last two points are what ``policy_refusal`` checks
(``_INERT_POLICY_ATTRS``): the policy surface the core runs itself, each
attribute pinned to the base body or to a body in ``_CORE_POLICY_BODIES``.

RegMutex's pool is lowered once per run, before any warp holds a lease
(the counters and the demand table), and written back with the lease
table at run end.  Mid-run only
``RegMutexPolicy.on_cta_finished`` touches it from Python, inside the EXIT
op chain, so the core hands ``srp_free`` and the exiting CTA's leases to
the policy before an EXIT op and reads them back on ``resume()``; between
ops the policy's ``_leases`` holds nothing the core owns.

Served ops reach the DRAM channel too: reg_dram's context spills and
restores and finereg's bit-vector fetches go through
``hierarchy.bulk_transfer``, and finereg reads ``dram.backlog``.  So the
core hands its ``_channel_free`` to the Python ``DRAM`` before returning
any op and reads it back on ``resume()``.  Its demand-traffic counters are
merged into ``DRAMStats`` at run end, but the first demand charge of each
class inserts the class key into ``bytes_by_class``, so the dict's key
order is the Python engines'.

After each policy op the driver pushes the SM's mirrors in one call
(levels and dirty flag, earliest transit, ``wake_time``, ``next_event``,
``idle_wake`` and ``idle_backlog_limit``, ``_next_idle_check``,
``_blocked_on_rf``, grid remaining) and re-imports what the op can have
changed; before it, C's view is written onto the Python objects only
where the op reads it (IDLE and EXIT: schedulers and active CTAs' warps;
SETTLE: schedulers; TICK: nothing).  The level, idle and RF-depletion
sums are int64 in C and merged into the float counters once at run end.  ``gpu.engine_ops`` records how many ops of each kind
the driver served, and ``gpu.engine_op_s`` the host seconds spent inside
``Core.resume`` (the C loop and the memory hierarchy) and serving each op
kind, read from ``repro.obs.clock`` twice per op (observation only, like
``engine_refusal``; never part of ``SimResult``).

Eligibility is run-level (``compiled_refusal``): no tracer, sanitizer or
telemetry surface, a single launch, the stock memory hierarchy with no
instance-level override (``hierarchy_refusal``), the stock address model,
and on every SM no Fig 5 usage sampling, GTO schedulers, an issue hook
only where the core runs it, a policy ``policy_refusal`` admits, and
no instance-level override on the SM or stats surface the core inlines.
Each check names its own refusal reason.  A refused run takes the
reference event engine, and ``gpu.engine_refusal`` names the first check
that refused it.  The gate tuples below are machine-checked by the
effects auditor (``repro.analyze.effects``, ``make analyze-effects``).
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instructions import AccessPattern
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import clock
from repro.policies import base as policy_base
from repro.policies.base import RegisterFilePolicy, idle_wake_trusted
from repro.policies.regmutex import (SRP_BLOCK, SRP_RETRY_INTERVAL,
                                     RegMutexPolicy)
from repro.sim.scheduler import GTOScheduler
from repro.sim.sm import (_K_ALU, _K_BAR, _K_BRA, _K_EXIT, _K_LDG, _K_LDS,
                          _K_SFU, _K_STG, _K_STS)
from repro.sim.warp import FOREVER, WarpState

#: Policy surface the C core runs itself, so each attribute must be
#: byte-for-byte the base body or a body of ``_CORE_POLICY_BODIES``: the
#: issue hook (the base one is never called), the idle attribution
#: (``classify_idle``), the stalled-CTA hook (``_on_long_block`` is
#: inlined), and ``on_idle`` / ``stalled_active_ctas``, whose base bodies
#: decide when an IDLE op is due.  Every other hook is served as an op
#: through the real policy.  The effects auditor derives this surface from
#: the source and fails CI if a derived name is missing here or an entry
#: goes stale.
_INERT_POLICY_ATTRS = ("on_issue", "classify_idle", "on_cta_stalled",
                       "on_idle", "stalled_active_ctas")

#: Bodies beyond the base policy's that the C core runs itself, as
#: (class, attribute): RegMutex's SRP lease and its SRP idle attribution.
#: Each is marked ``transcribes <class>.<attribute>`` in ``_ckernel.c``,
#: and the effects auditor checks both directions.
_CORE_POLICY_BODIES = ((RegMutexPolicy, "on_issue"),
                       (RegMutexPolicy, "classify_idle"))

#: SM methods the event engine dispatches dynamically but the C core
#: inlines or replaces: the event loop's step / next-event / accumulate
#: calls, the issue attempt ``step`` hands to the schedulers, and the
#: long-block check and barrier scheduler wake inside ``_try_issue``.  An
#: instance-level wrapper on any of these would be silently skipped, so
#: its presence routes the run to the reference engine, which honors it.
_BYPASSED_SM_ATTRS = ("accumulate", "next_event", "step", "_try_issue",
                      "_on_long_block", "_wake_schedulers")

#: Stats surface inlined: the per-segment level flush runs in C as int64
#: sums (merged once at run end).
_BYPASSED_STATS_ATTRS = ("accumulate",)

#: C warp-state ids -> the Python enum (order is part of the C ABI).
_STATES = (WarpState.RUNNABLE, WarpState.AT_BARRIER, WarpState.FINISHED)

#: ``Core.resume`` op kinds (part of the C ABI).
_OP_DONE, _OP_EXIT, _OP_SETTLE, _OP_TICK, _OP_IDLE, _OP_DEADLOCK = range(6)

#: The served op kinds, as ``gpu.engine_ops`` names them.
_OP_NAMES = ((_OP_EXIT, "exit"), (_OP_SETTLE, "settle"), (_OP_TICK, "tick"),
             (_OP_IDLE, "idle"))

#: ``_meta`` dispatch kinds -> the core's collapsed kind (part of the C
#: ABI): 0 writes the destination at ``now`` plus a fixed latency (ALU,
#: SFU, LDS), 1 LDG, 2 STG, 3 BAR, 4 EXIT, 5 no timing effect (BRA, STS).
_CORE_KINDS = {_K_ALU: 0, _K_SFU: 0, _K_LDS: 0, _K_LDG: 1, _K_STG: 2,
               _K_BAR: 3, _K_EXIT: 4, _K_BRA: 5, _K_STS: 5}

#: Address patterns -> the core's generator ids (part of the C ABI);
#: every other pattern is SHARED_WS (2).
_CORE_PATTERNS = {AccessPattern.STREAM: 0, AccessPattern.REUSE: 1}

#: ``CacheStats`` counters, in ``Core.write_back_cache`` order.
_CACHE_COUNTERS = ("read_hits", "read_misses", "write_hits", "write_misses",
                   "dirty_evictions")


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


def runs_core_body(policy, owner, name) -> bool:
    """True when ``policy`` runs ``owner``'s own body for ``name`` and any
    ``super()`` call in it reaches the base body: the body ``_ckernel``
    transcribes.  Keyed off the class objects, never the policy's name."""
    cls = type(policy)
    if (not issubclass(cls, owner)
            or getattr(cls, name) is not getattr(owner, name)):
        return False
    mro = cls.__mro__
    return not any(name in vars(later)
                   for later in mro[mro.index(owner) + 1:]
                   if later is not RegisterFilePolicy)


def core_bodies(policy):
    """Which RegMutex bodies the C core runs for an admitted ``policy``:
    ``(lease, idle)``, the per-issue ``on_issue`` (only when the Python
    engines call the hook) and the per-advance ``classify_idle``."""
    return (bool(policy.needs_issue_hook)
            and runs_core_body(policy, RegMutexPolicy, "on_issue"),
            runs_core_body(policy, RegMutexPolicy, "classify_idle"))


def policy_refusal(policy) -> Optional[str]:
    """Why the C core cannot run ``policy`` (None when it can)."""
    cls = type(policy)
    for name in _INERT_POLICY_ATTRS:
        if getattr(cls, name) is getattr(RegisterFilePolicy, name):
            continue
        if not any(attr == name and runs_core_body(policy, owner, name)
                   for owner, attr in _CORE_POLICY_BODIES):
            return f"policy-hook:{name}"
    if policy.needs_issue_hook and not core_bodies(policy)[0]:
        return "policy-hook:on_issue"
    hits = instance_overrides(policy, _INERT_POLICY_ATTRS)
    if hits:
        return f"policy-hook:{hits[0]}"
    return None


def _methods(cls):
    """The methods ``cls`` defines itself (the callables in its dict)."""
    return tuple(name for name, value in vars(cls).items()
                 if callable(value))


def hierarchy_refusal(hierarchy) -> Optional[str]:
    """Why the C core cannot own ``hierarchy`` (None when it can).

    The core transcribes the whole hierarchy, ``load``/``store`` down to
    ``_access`` and the caches and DRAM below it, so it needs the stock
    classes with no instance dict shadowing one of their methods.
    """
    if type(hierarchy) is not MemoryHierarchy:
        return f"hierarchy-override:{type(hierarchy).__name__}"
    parts = [(hierarchy, MemoryHierarchy), (hierarchy.dram, DRAM)]
    parts += [(cache, Cache) for cache in hierarchy.l1s + [hierarchy.l2]]
    for obj, cls in parts:
        if type(obj) is not cls:
            return f"hierarchy-override:{type(obj).__name__}"
        hits = instance_overrides(obj, _methods(cls))
        if hits:
            return f"hierarchy-override:{hits[0]}"
    return None


def compiled_refusal(gpu) -> Optional[str]:
    """The first check that refuses the whole run on the C core, or None.

    The sanitizer, telemetry and the tracers observe per-cycle, per-warp
    or per-step events the core does not emit, the core lowers one
    launch's metadata, and it transcribes only the stock address model,
    GTO's scan and the issue hooks it runs itself; each routes the run
    to the reference event engine -- never an error.
    """
    # Imported here: repro.workloads imports repro.analyze, whose effects
    # auditor imports this module's gate tuples.
    from repro.workloads.traces import AddressModel
    if gpu.sanitizer is not None:
        return "sanitizer"
    if gpu.telemetry is not None or gpu.hierarchy.telemetry is not None:
        return "telemetry"
    if gpu.tracer is not None or gpu.warp_tracer is not None:
        return "tracer"
    if len(gpu.launches) > 1:
        return "concurrent-launches"
    reason = hierarchy_refusal(gpu.hierarchy)
    if reason is not None:
        return reason
    if type(gpu.address_model) is not AddressModel:
        return f"address-model:{type(gpu.address_model).__name__}"
    for sm in gpu.sms:
        policy = sm._policy
        reason = policy_refusal(policy)
        if reason is not None:
            return reason
        if sm._sample_usage:
            return "usage-sampling"
        # GTOScheduler declares __slots__, so pinning the exact type also
        # rules out instance-level overrides of the scheduler surface the
        # core inlines (the scan, the barrier wake, the sleep fold).
        for sched in sm.schedulers:
            if type(sched) is not GTOScheduler:
                return f"scheduler:{type(sched).__name__}"
        if sm.telemetry is not None or any(
                sched.telemetry is not None for sched in sm.schedulers):
            return "telemetry"
        if sm._wt is not None:
            return "tracer"
        # The hook the SM cached when the policy was assigned must be the
        # one the core runs (RegMutex's lease) or none.
        if (sm._issue_hook is not None) != core_bodies(policy)[0]:
            return "policy-hook:on_issue"
        hits = instance_overrides(sm, _BYPASSED_SM_ATTRS)
        if hits:
            return f"sm-override:{hits[0]}"
        if instance_overrides(sm.stats, _BYPASSED_STATS_ATTRS):
            return "stats-override:accumulate"
    return None


def run_compiled(gpu, max_cycles):
    """Drive one run on the C core (the reference event engine if
    refused); bit-identical to the dense oracle by construction."""
    reason = compiled_refusal(gpu)
    gpu.engine_refusal = reason
    if reason is not None:
        return gpu._run_event(max_cycles)
    gpu.engine_used = "compiled"
    sms = gpu.sms
    for sm in sms:
        # The core does not count issues: _finish_warp credits each
        # warp's whole trace at its EXIT, and _finish_run the issued
        # prefix of any warp a timeout leaves unfinished.
        sm._defer_stats = True
    # Initial fill in SM order (exactly the dense prologue), then lower.
    for sm in sms:
        sm.policy.fill(0)
    return _Run(gpu, max_cycles).run()


def lower_memory(core, hier) -> None:
    """Lower ``hier``'s state into ``core``, read from the objects (which a
    warmed L2 or a unified-memory L1 resize has already shaped)."""
    dram = hier.dram
    core.set_memory(hier._line_bytes, hier._l1_hit_lat, hier._l2_hit_lat,
                    dram, dram.bytes_per_cycle, dram.access_latency,
                    dram.stats.bytes_by_class)
    for index, cache in enumerate(hier.l1s + [hier.l2]):
        core.lower_cache(index, cache.num_sets, cache.assoc,
                         cache.allocate_on_write, cache.last_evicted_dirty,
                         cache._sets, cache._dirty)
    for sm_id, table in enumerate(hier._outstanding):
        core.lower_merges(sm_id, table)


def write_back_memory(core, hier) -> None:
    """Write ``core``'s hierarchy state back onto ``hier``: the touched
    cache sets and dirty keys, the merge tables and every counter (the
    core hands ``_channel_free`` over itself whenever it returns)."""
    for index, cache in enumerate(hier.l1s + [hier.l2]):
        counts = core.write_back_cache(index, cache._sets, cache._dirty)
        stats = cache.stats
        for name, count in zip(_CACHE_COUNTERS, counts):
            setattr(stats, name, getattr(stats, name) + count)
        cache.last_evicted_dirty = counts[-1]
    for sm_id, table in enumerate(hier._outstanding):
        core.write_back_merges(sm_id, table)
    (loads, stores, merged, requests, nbytes, queue, read_bytes,
     write_bytes) = core.memory_counts()
    stats = hier.stats
    stats.loads += loads
    stats.stores += stores
    stats.merged_misses += merged
    stats = hier.dram.stats
    stats.requests += requests
    stats.total_bytes += nbytes
    stats.total_queue_cycles += queue
    # The core inserted each demand class's key at its first charge.
    by_class = stats.bytes_by_class
    if read_bytes:
        by_class["demand_read"] += read_bytes
    if write_bytes:
        by_class["demand_write"] += write_bytes


class _Run:
    """One lowered run: the Core object plus the trace interning map."""

    def __init__(self, gpu, max_cycles) -> None:
        from repro.sim import _ckernel

        sms = gpu.sms
        sm = sms[0]
        model = gpu.address_model
        self.gpu = gpu
        self.core = _ckernel.Core(
            len(sms), len(sm.schedulers), sm._nregs, sm._stall_threshold,
            model.reuse_spatial, model.reuse_lines, model.shared_lines,
            model.SHARED_BASE, max_cycles, gpu.config.min_park_cycles,
            policy_base.IDLE_COOLDOWN, self._core_meta(sm), _STATES)
        lower_memory(self.core, gpu.hierarchy)
        # The core holds references to the lowered warps and CTAs (which
        # pins these ids: a warp references its trace), and maps them back
        # to their records; traces are interned once, by identity.
        self._lowered = set()   # id(cta) of every lowered CTA
        self._trace_slots = {}  # id(trace) -> trace slot
        # SMs whose IDLE ops the core gates on the policy's idle_wake.
        self._idle_gated = [sm._needs_idle and idle_wake_trusted(sm._policy)
                            for sm in sms]
        for sm in sms:
            policy = sm._policy
            lease, idle = core_bodies(policy)
            self.core.set_policy(sm.sm_id, sm, sm.schedulers, sm._needs_tick,
                                 sm._needs_idle, lease, idle)
            self._lower_new(sm)
            if lease or idle:
                self.core.lower_srp(
                    sm.sm_id, policy, policy._extra_demand if lease else None,
                    SRP_BLOCK, SRP_RETRY_INTERVAL)
            self.core.sync(sm.sm_id)
            self._push(sm, 0, sm._policy._next_idle_check)

    # ------------------------------------------------------------------
    # Python -> C
    # ------------------------------------------------------------------
    def _core_meta(self, sm):
        """``sm._meta`` in the core's encoding, one ``(nsrc, dest or -1,
        address pattern id or -1, collapsed kind, fixed latency, srcs)``
        per static instruction.  The fixed latency is the one
        ``_try_issue`` charges: the ALU, SFU or shared-memory latency.
        ``_meta`` is identical
        across SMs for a single-launch run (the only kind admitted), so
        SM 0's table is lowered once."""
        latency = {_K_ALU: sm._alu_lat, _K_SFU: sm._sfu_lat,
                   _K_LDS: sm._shmem_lat}
        table = []
        for srcs, dest, kind, __, instr, nsrc in sm._meta:
            pattern = -1
            if kind == _K_LDG or kind == _K_STG:
                pattern = _CORE_PATTERNS.get(instr.pattern, 2)
            table.append((nsrc, -1 if dest is None else dest, pattern,
                          _CORE_KINDS[kind], latency.get(kind, 0),
                          tuple(srcs)))
        return table

    def _lower_new(self, sm) -> None:
        """Lower every freshly launched CTA (all warps in pristine state)."""
        core = self.core
        lowered = self._lowered
        trace_slots = self._trace_slots
        for cta in sm.active_ctas:
            if id(cta) in lowered:
                continue
            lowered.add(id(cta))
            cslot = core.new_cta(cta, cta.cta_id, sm.sm_id)
            for warp in cta.warps:
                trace = warp.trace
                tslot = trace_slots.get(id(trace))
                if tslot is None:
                    tslot = core.add_trace(trace)
                    trace_slots[id(trace)] = tslot
                core.new_warp(warp, cslot, tslot, warp.global_warp_id)

    def _push(self, sm, now, idle=-1) -> None:
        """Push the SM's mirrors after an op (or the initial fill).

        ``wake_time`` is re-asked every time: every op can change what a
        tick would do, a settle included (it precedes its cycle's tick
        slot and can free warp slots).  So are ``idle_wake`` and
        ``idle_backlog_limit``, for a gated SM only (``now`` keeps an
        ungated SM's gate open, and baseline has no idle hook to ask).
        ``idle`` is the idle cooldown, which only ``on_idle`` changes on
        the Python side (-1 keeps the core's, which it re-arms itself).
        The C core owns the level-flush boundary from here on: it clears
        its dirty bit at its own end-of-cycle flush, where the dense
        engine's accumulate would.
        """
        policy = sm._policy
        if self._idle_gated[sm.sm_id]:
            idle_wake = policy.idle_wake(now)
            backlog = policy.idle_backlog_limit()
        else:
            idle_wake, backlog = now, 0.0
        self.core.mirror(
            sm.sm_id, len(sm.active_ctas),
            len(sm.pending_ctas) + len(sm.transit_ctas), sm._active_warps,
            sm._lvl_dirty, sm._transit_min,
            policy.wake_time(now) if sm._needs_tick else FOREVER,
            policy.next_event(now), idle_wake, backlog, idle,
            policy._blocked_on_rf, self.gpu.ctas_remaining)
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
        self._push(sm, now)

    def _serve_settle(self, sm, now) -> None:
        self.core.export(sm.sm_id, False)
        sm._settle_transits(now)
        self.core.sync(sm.sm_id)
        self._push(sm, now)

    def _serve_tick(self, sm, now) -> None:
        # on_tick only activates parked CTAs (pending -> transit): no
        # scheduler or active-list change, nothing to exchange but mirrors.
        sm._policy.on_tick(now)
        self._push(sm, now)

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
        self._push(sm, now, policy._next_idle_check)

    # ------------------------------------------------------------------
    def run(self):
        gpu = self.gpu
        core = self.core
        sms = gpu.sms
        resume = core.resume
        executed = core.executed_cycles
        monotonic = clock.monotonic
        served = [0] * (_OP_DEADLOCK + 1)
        # Host seconds inside resume() and serving each op kind: two
        # clock reads per op, observation only.
        spent = [0.0] * (_OP_DEADLOCK + 1)
        resumed = 0.0
        mark = monotonic()
        while True:
            kind, now, sm_id, arg = resume()
            start = monotonic()
            resumed += start - mark
            # The op runs in the core's last executed cycle, which a
            # policy's closed forms count (FineReg's blocked restores).
            gpu.executed_cycles = executed()
            served[kind] += 1
            if kind == _OP_EXIT:
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
            mark = monotonic()
            spent[kind] += mark - start

        gpu.engine_ops = {name: served[kind] for kind, name in _OP_NAMES}
        gpu.engine_op_s = {"resume": resumed}
        gpu.engine_op_s.update((name, spent[kind])
                               for kind, name in _OP_NAMES)
        write_back_memory(core, gpu.hierarchy)
        for sm in sms:
            # Final state export: _flush_deferred_stats reads warp.pos of
            # unfinished warps on a timeout, and post-run introspection
            # (tests, debug_accounting, extras()) sees live state on every
            # backend.
            core.export(sm.sm_id, True)
            core.write_back_srp(sm.sm_id)
            stats = sm.stats
            (cta_sum, pend_sum, warp_sum, max_res, idle, rf, srp,
             next_idle, stalls) = core.finish(sm.sm_id)
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
            stats.srp_stall_cycles += srp
            if stalls:
                stats.stall_latencies.extend(stalls)
            sm._policy._next_idle_check = next_idle
        return gpu._finish_run(now, timed_out)
