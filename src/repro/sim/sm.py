"""Streaming multiprocessor: issue loop, resource tracking, policy hooks.

The SM owns four GTO warp schedulers, the lists of active/pending/in-transit
CTAs, and the per-SM L1 (via the shared :class:`MemoryHierarchy`).  All
register-file management decisions are delegated to the attached
:class:`~repro.policies.base.RegisterFilePolicy`; the SM provides the
mechanics (launching CTAs, moving warps in and out of schedulers, timing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.config import GPUConfig
from repro.isa.cfg import EdgeKind
from repro.isa.instructions import Opcode
from repro.isa.kernel import Kernel
from repro.policies.base import RegisterFilePolicy
from repro.sim.cta import CTASim, CTAState
from repro.sim.scheduler import SCHEDULER_KINDS
from repro.sim.stats import KernelStats, SMStats
from repro.sim.tracing import EventKind
from repro.sim.warp import FOREVER, WarpSim, WarpState

_FINISHED = WarpState.FINISHED

#: Issued-instruction window length for Fig-5 register-usage sampling.
USAGE_WINDOW = 1000

#: Dense integer dispatch kinds for the issue hot path (see ``_meta``).
(_K_ALU, _K_LDG, _K_STG, _K_LDS, _K_STS, _K_SFU,
 _K_BAR, _K_BRA, _K_EXIT) = range(9)

_OPCODE_KIND = {
    Opcode.IALU: _K_ALU, Opcode.FALU: _K_ALU,
    Opcode.LDG: _K_LDG, Opcode.STG: _K_STG,
    Opcode.LDS: _K_LDS, Opcode.STS: _K_STS,
    Opcode.SFU: _K_SFU, Opcode.BAR: _K_BAR,
    Opcode.BRA: _K_BRA, Opcode.EXIT: _K_EXIT,
}


class StreamingMultiprocessor:
    """One SM of the simulated GPU."""

    def __init__(self, sm_id: int, config: GPUConfig, kernel: Kernel,
                 gpu, sample_usage: bool = False) -> None:
        self.sm_id = sm_id
        self.config = config
        self.kernel = kernel
        self.gpu = gpu
        self._policy = None  # attached by the GPU after construction
        self._issue_hook = None
        self._needs_tick = False
        self._needs_idle = False
        scheduler_cls = SCHEDULER_KINDS[config.warp_scheduling]
        self.schedulers = [scheduler_cls(i)
                           for i in range(config.num_warp_schedulers)]
        self.active_ctas: List[CTASim] = []
        self.pending_ctas: List[CTASim] = []
        self.transit_ctas: List[CTASim] = []
        # Earliest ``transit_until`` over ``transit_ctas`` (FOREVER when
        # none): the cycle the next switch settles.  Kept by the only
        # ``begin_transit`` callers (deactivate_cta / activate_cta) and by
        # ``_settle_transits``, so the step skips the settle scan until it
        # is due.
        self._transit_min = FOREVER
        self.stats = SMStats()
        self.shmem_used = 0
        self._active_warps = 0
        self._active_threads = 0
        self._incoming_ctas = 0
        # Declared Table-I footprint of CTAs in transit toward ACTIVE.
        # With one resident kernel these are always ``_incoming_ctas``
        # times its per-CTA warp/thread counts; concurrent kernels make
        # the per-launch footprints differ, so they are tracked directly.
        self._incoming_warps = 0
        self._incoming_threads = 0
        self._last_step_issued = 0
        self._next_sched = 0
        # SM-level sleep: min of the schedulers' sleep caches, valid while
        # nothing wakes them.  Skips the whole issue stage in one test.
        self._sched_sleep = 0
        launches = gpu.launches
        if len(launches) == 1:
            self._instrs = kernel.cfg.instructions
            self._kstats = None
        else:
            # Concatenated static-index space: launch i's instructions
            # live at [index_base, index_base + num_instructions); traces
            # are rebased by KernelLaunch.trace_for.
            instrs = []
            for launch in launches:
                instrs.extend(launch.kernel.cfg.instructions)
            self._instrs = tuple(instrs)
            # Per-launch attribution (concurrent runs only, so the
            # single-kernel hot path never touches these).
            self._kstats = [KernelStats() for _ in launches]
            self._k_active = [0] * len(launches)
            self._k_warps = [0] * len(launches)
            self._klvl_active = [0] * len(launches)
            self._klvl_warps = [0] * len(launches)
        # Telemetry surfaces.  ``telemetry`` is a MetricsRegistry installed
        # by repro.obs.telemetry; ``_wt`` caches the warp-level tracer so the
        # warp-event emission sites pay one attribute test when disabled.
        self.telemetry = None
        self._wt = None
        self._div_forks: Optional[Set[int]] = None
        self._div_joins: Optional[Set[int]] = None
        self._sample_usage = sample_usage
        self._window_regs: Set[Tuple[int, int]] = set()
        self._window_count = 0
        # Latencies pulled out of config for the hot loop.
        self._alu_lat = config.alu_latency
        self._sfu_lat = config.sfu_latency
        self._shmem_lat = config.shared_mem_latency
        self._stall_threshold = config.cta_switch_threshold
        self._rf_banks = config.rf_banks if config.model_rf_banks else 0
        # Per-static-instruction issue metadata, precomputed once:
        # (srcs, dest, kind, bank_penalty, opcode_value, instr, nsrc).  The
        # bank penalty depends only on the static source registers, so the
        # per-issue set construction of the original hot path is static too.
        banks = self._rf_banks
        self._meta = []
        for instr in self._instrs:
            srcs = instr.srcs
            penalty = 0
            if banks and len(srcs) > 1:
                penalty = len(srcs) - len({reg % banks for reg in srcs})
            self._meta.append((srcs, instr.dest, _OPCODE_KIND[instr.opcode],
                               penalty, instr.opcode.value, instr, len(srcs)))
        # Per-static issue-counter increments packed into one integer
        # (20 bits per field), so a whole warp's contribution to the issue
        # counters is one C-level sum over its trace.  Compiled runs defer
        # the per-issue counting to warp finish via these (``_defer_stats``,
        # set by ``run_compiled``); the totals are exact because every trace
        # entry issues exactly once.
        self._packed_vec = [
            m[6] + ((0 if m[1] is None else 1) << 20) + (m[3] << 40)
            + ((1 if m[2] == _K_LDS or m[2] == _K_STS else 0) << 60)
            for m in self._meta
        ]
        self._defer_stats = False
        # Scoreboard width for this kernel's warps (flat ready-at lists).
        nregs = 1
        for m in self._meta:
            for reg in m[0]:
                if reg >= nregs:
                    nregs = reg + 1
            if m[1] is not None and m[1] >= nregs:
                nregs = m[1] + 1
        self._nregs = nregs
        # Buffered time-weighted level integrals: while the (CTA, warp)
        # levels are untouched, accumulate() only sums dt; the buffered
        # span is flushed with the cached levels when a mutation site sets
        # ``_lvl_dirty`` (or at run end via flush_levels()).
        self._lvl_dirty = True
        self._lvl_dt = 0
        self._lvl_active = 0
        self._lvl_pending = 0
        self._lvl_warps = 0

    # ------------------------------------------------------------------
    # Policy attachment (hot-path hooks cached at assignment time)
    # ------------------------------------------------------------------
    @property
    def policy(self):
        return self._policy

    @policy.setter
    def policy(self, policy) -> None:
        self._policy = policy
        self._issue_hook = (policy.on_issue
                            if policy is not None and policy.needs_issue_hook
                            else None)
        # Only call on_tick for policies that actually override it.
        self._needs_tick = (
            policy is not None
            and type(policy).on_tick is not RegisterFilePolicy.on_tick)
        # Event engine: only policies overriding _act_on_idle can take an
        # observable action from on_idle (the base cooldown is invisible).
        self._needs_idle = (
            policy is not None
            and type(policy)._act_on_idle
            is not RegisterFilePolicy._act_on_idle)

    # ------------------------------------------------------------------
    # Resource queries (used by policies)
    # ------------------------------------------------------------------
    @property
    def resident_ctas(self) -> int:
        return (len(self.active_ctas) + len(self.pending_ctas)
                + len(self.transit_ctas))

    def scheduler_slots_free(self, launch=None) -> bool:
        """Can one more CTA of ``launch`` become active under the Table-I
        limits?  The limits are *shared* budgets: active and incoming
        footprints are summed across every resident kernel.

        CTAs in transit toward ACTIVE already own their slots.  ``launch``
        defaults to the (single-kernel) primary launch.
        """
        if launch is None:
            launch = self.gpu.launches[0]
        config = self.config
        ctas = len(self.active_ctas) + self._incoming_ctas
        warps = self._active_warps + self._incoming_warps
        threads = self._active_threads + self._incoming_threads
        return (ctas < config.max_ctas_per_sm
                and warps + launch.warps_per_cta <= config.max_warps_per_sm
                and threads + launch.threads_per_cta
                <= config.max_threads_per_sm)

    def swap_slots_free(self, outgoing: CTASim, launch=None) -> bool:
        """Would one full incoming CTA of ``launch`` fit after parking
        ``outgoing``?

        A swap is not automatically slot-neutral: a partially-retired CTA
        frees fewer warp/thread slots than a full incoming CTA needs, so
        swapping it out can overshoot the Table-I limits — and under
        concurrent kernels the two CTAs may belong to different launches
        with different footprints.
        """
        if launch is None:
            launch = self.gpu.launches[0]
        config = self.config
        out_warps = outgoing.unfinished_warps()
        ctas = len(self.active_ctas) - 1 + self._incoming_ctas
        warps = self._active_warps - out_warps + self._incoming_warps
        threads = self._active_threads - 32 * out_warps \
            + self._incoming_threads
        return (ctas < config.max_ctas_per_sm
                and warps + launch.warps_per_cta <= config.max_warps_per_sm
                and threads + launch.threads_per_cta
                <= config.max_threads_per_sm)

    def shmem_free(self, nbytes: int) -> bool:
        return self.shmem_used + nbytes <= self.config.shared_memory_bytes

    # ------------------------------------------------------------------
    # Warp-level tracing
    # ------------------------------------------------------------------
    def enable_warp_events(self, tracer) -> None:
        """Install a warp-level tracer (called by ``attach_tracer``)."""
        self._wt = tracer
        if self._div_forks is None:
            self._build_divergence_index()

    def _build_divergence_index(self) -> None:
        """Static indices where divergence events fire.

        A warp *forks* when it issues the terminating BRA of a two-successor
        block and *joins* when it reaches the first instruction of that
        branch's PDOM reconvergence block -- the same reconvergence model the
        static verifier checks.
        """
        forks: Set[int] = set()
        joins: Set[int] = set()
        for launch in self.gpu.launches:
            cfg = launch.kernel.cfg
            base = launch.index_base
            for block in cfg.blocks:
                if block.edge_kind is not EdgeKind.BRANCH \
                        or not block.instructions:
                    continue
                forks.add(base + cfg.first_index(block.block_id)
                          + len(block.instructions) - 1)
                reconv = cfg.reconvergence_block(block.block_id)
                if reconv is not None:
                    joins.add(base + cfg.first_index(reconv))
        self._div_forks = forks
        self._div_joins = joins

    # ------------------------------------------------------------------
    # CTA lifecycle (mechanics; policies decide when)
    # ------------------------------------------------------------------
    def launch_new_cta(self, now: int, launch=None) -> Optional[CTASim]:
        """Pull the next CTA off a launch's grid and start it as active.

        ``launch`` defaults to the primary launch (single-kernel runs);
        concurrent fills pass the launch the dispatch arbiter picked.
        """
        if launch is None:
            launch = self.gpu.launches[0]
        cta_id = launch.pop_cta()
        if cta_id is None:
            return None
        local = cta_id - launch.cta_base
        wpc = launch.warps_per_cta
        warps = []
        for warp_id in range(wpc):
            trace = launch.trace_for(local, warp_id)
            global_id = launch.warp_base + local * wpc + warp_id
            warps.append(WarpSim(warp_id, global_id, cta_id, trace,
                                 self._nregs))
        cta = CTASim(cta_id, warps, shmem_bytes=launch.shmem_per_cta)
        cta.launch = launch
        for warp in warps:
            warp.cta = cta
        cta.launch_cycle = now
        self.shmem_used += cta.shmem_bytes
        self.active_ctas.append(cta)
        if self._kstats is not None:
            self._kstats[launch.index].cta_launches += 1
            self._k_active[launch.index] += 1
        self._attach_warps(cta)
        self.stats.cta_launches += 1
        if self.gpu.tracer is not None:
            self.gpu.tracer.record(now, self.sm_id, EventKind.LAUNCH, cta_id)
        return cta

    def deactivate_cta(self, cta: CTASim, now: int, latency: int) -> None:
        """Move an active CTA toward PENDING (switch-out in flight)."""
        self.active_ctas.remove(cta)
        self._detach_warps(cta)
        cta.begin_transit(now + latency, CTAState.PENDING)
        self.transit_ctas.append(cta)
        if now + latency < self._transit_min:
            self._transit_min = now + latency
        self.stats.cta_switch_events += 1
        self.stats.switch_out_overhead_cycles += latency
        if self._kstats is not None:
            self._kstats[cta.launch.index].cta_switch_events += 1
            self._k_active[cta.launch.index] -= 1
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.record(now, self.sm_id, EventKind.SWITCH_OUT, cta.cta_id,
                          dur=latency if tracer.warp_level else 0)

    def activate_cta(self, cta: CTASim, now: int, latency: int) -> None:
        """Move a pending CTA toward ACTIVE (switch-in in flight)."""
        self.pending_ctas.remove(cta)
        cta.begin_transit(now + latency, CTAState.ACTIVE)
        self.transit_ctas.append(cta)
        if now + latency < self._transit_min:
            self._transit_min = now + latency
        self._incoming_ctas += 1
        self._incoming_warps += cta.launch.warps_per_cta
        self._incoming_threads += cta.launch.threads_per_cta
        self._lvl_dirty = True
        self.stats.cta_switch_events += 1
        self.stats.switch_in_overhead_cycles += latency
        if self._kstats is not None:
            self._kstats[cta.launch.index].cta_switch_events += 1
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.record(now, self.sm_id, EventKind.SWITCH_IN, cta.cta_id,
                          dur=latency if tracer.warp_level else 0)

    def retire_cta(self, cta: CTASim, now: int) -> None:
        """A finished CTA releases shmem and scheduler slots."""
        cta.state = CTAState.FINISHED
        self.shmem_used -= cta.shmem_bytes
        if self.gpu.tracer is not None:
            self.gpu.tracer.record(now, self.sm_id, EventKind.RETIRE,
                                   cta.cta_id)
        if self.policy is not None:
            self.policy.on_cta_finished(cta, now)

    def _attach_warps(self, cta: CTASim) -> None:
        for warp in cta.warps:
            if warp.finished:
                continue
            self.schedulers[self._next_sched].add_warp(warp)
            self._next_sched = (self._next_sched + 1) % len(self.schedulers)
        self._sched_sleep = 0
        self._active_warps += cta.unfinished_warps()
        self._active_threads += cta.unfinished_warps() * 32
        if self._kstats is not None:
            self._k_warps[cta.launch.index] += cta.unfinished_warps()
        self._lvl_dirty = True

    def _detach_warps(self, cta: CTASim) -> None:
        for scheduler in self.schedulers:
            scheduler.remove_cta(cta.cta_id)
        self._active_warps -= cta.unfinished_warps()
        self._active_threads -= cta.unfinished_warps() * 32
        if self._kstats is not None:
            self._k_warps[cta.launch.index] -= cta.unfinished_warps()
        self._lvl_dirty = True

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def step(self, now: int) -> int:
        """Advance one cycle; returns the number of instructions issued."""
        if now >= self._transit_min:
            self._settle_transits(now)
        if self._needs_tick:
            self._policy.on_tick(now)
        if now < self._sched_sleep:
            # Every scheduler would refuse instantly; skip the calls.
            self._last_step_issued = 0
            return 0
        issued = 0
        try_issue = self._try_issue
        for scheduler in self.schedulers:
            # Inlined scheduler sleep test (saves the call on idle cycles;
            # issue() would refuse identically).
            if now < scheduler._sleep_until:
                continue
            if scheduler.issue(now, try_issue):
                issued += 1
        if not issued:
            # All schedulers just (re)computed their sleep time; cache the
            # min.  A scheduler that refused without sleeping left its own
            # _sleep_until <= now, keeping the SM awake too.
            sleep = FOREVER
            for scheduler in self.schedulers:
                s = scheduler._sleep_until
                if s < sleep:
                    sleep = s
            self._sched_sleep = sleep
        self._last_step_issued = issued
        return issued

    def _flush_deferred_stats(self) -> None:
        """Credit the issued prefix of still-unfinished warps (timeout).

        Finished warps were credited by :meth:`_finish_warp`; on a normal
        run-to-completion exit every warp is finished and this is a no-op.
        """
        packed_vec = self._packed_vec
        stats = self.stats
        for ctas in (self.active_ctas, self.pending_ctas, self.transit_ctas):
            for cta in ctas:
                for warp in cta.warps:
                    if warp.state is _FINISHED or not warp.pos:
                        continue
                    prefix = warp.trace[:warp.pos]
                    packed = sum(map(packed_vec.__getitem__, prefix))
                    stats.instructions += len(prefix)
                    if self._kstats is not None:
                        self._kstats[cta.launch.index].instructions += \
                            len(prefix)
                    stats.rf_reads += packed & 0xFFFFF
                    stats.rf_writes += (packed >> 20) & 0xFFFFF
                    stats.rf_bank_conflicts += (packed >> 40) & 0xFFFFF
                    stats.shmem_accesses += packed >> 60

    def _settle_transits(self, now: int) -> None:
        remaining = []
        earliest = FOREVER
        for cta in self.transit_ctas:
            if cta.settle_transit(now):
                self._lvl_dirty = True
                if cta.state is CTAState.ACTIVE:
                    self._incoming_ctas -= 1
                    self._incoming_warps -= cta.launch.warps_per_cta
                    self._incoming_threads -= cta.launch.threads_per_cta
                    if self._kstats is not None:
                        self._k_active[cta.launch.index] += 1
                    self.active_ctas.append(cta)
                    self._attach_warps(cta)
                else:
                    self.pending_ctas.append(cta)
            else:
                remaining.append(cta)
                if cta.transit_until < earliest:
                    earliest = cta.transit_until
        self.transit_ctas = remaining
        self._transit_min = earliest

    # ------------------------------------------------------------------
    # Instruction issue (the hot path)
    # ------------------------------------------------------------------
    def _try_issue(self, warp: WarpSim, now: int) -> bool:
        static_index = warp.trace[warp.pos]
        meta = self._meta[static_index]
        srcs = meta[0]
        # peak_ready bounds max(ready_at.values()): when it has passed, no
        # source can still be pending and the operand scan is skipped.
        if srcs and warp.peak_ready > now:
            ready = 0
            ready_at = warp.ready_at
            for reg in srcs:
                t = ready_at[reg]
                if t > ready:
                    ready = t
            if ready > now:
                warp.blocked_until = ready
                if ready - now >= self._stall_threshold:
                    self._on_long_block(warp, now)
                return False
        if self._issue_hook is not None:
            if not self._issue_hook(warp, static_index, now):
                return False

        cta = warp.cta
        if cta.first_issue_cycle is None:
            cta.first_issue_cycle = now
        warp.pos += 1
        stats = self.stats
        stats.instructions += 1
        if self._kstats is not None:
            self._kstats[cta.launch.index].instructions += 1
        stats.rf_reads += meta[6]
        dest = meta[1]
        if dest is not None:
            stats.rf_writes += 1
        if self.telemetry is not None:
            self.telemetry.issue_counts[meta[4]] += 1
        wt = self._wt
        if wt is not None:
            if static_index in self._div_forks:
                wt.record(now, self.sm_id, EventKind.DIVERGE_FORK,
                          cta.cta_id, warp=warp.warp_id)
            elif static_index in self._div_joins:
                wt.record(now, self.sm_id, EventKind.DIVERGE_JOIN,
                          cta.cta_id, warp=warp.warp_id)

        # Operand-collector serialization: sources mapping to the same bank
        # are read over extra cycles (penalty precomputed per instruction).
        bank_penalty = meta[3]
        if bank_penalty:
            stats.rf_bank_conflicts += bank_penalty
        if self._sample_usage:
            self._sample_window(warp, meta[5])

        kind = meta[2]
        if kind == _K_ALU:
            t = now + self._alu_lat + bank_penalty
            warp.ready_at[dest] = t
            if t > warp.peak_ready:
                warp.peak_ready = t
        elif kind == _K_LDG:
            address = self.gpu.address_model.address_for(warp, meta[5])
            done = self.gpu.hierarchy.load(self.sm_id, address, now)
            warp.ready_at[dest] = done
            if done > warp.peak_ready:
                warp.peak_ready = done
        elif kind == _K_STG:
            address = self.gpu.address_model.address_for(warp, meta[5])
            self.gpu.hierarchy.store(self.sm_id, address, now)
        elif kind == _K_LDS:
            t = now + self._shmem_lat
            warp.ready_at[dest] = t
            if t > warp.peak_ready:
                warp.peak_ready = t
            stats.shmem_accesses += 1
        elif kind == _K_STS:
            stats.shmem_accesses += 1
        elif kind == _K_SFU:
            t = now + self._sfu_lat
            warp.ready_at[dest] = t
            if t > warp.peak_ready:
                warp.peak_ready = t
        elif kind == _K_BAR:
            released = cta.arrive_at_barrier(warp, now)
            if wt is not None:
                wt.record(now, self.sm_id, EventKind.BARRIER_ARRIVE,
                          cta.cta_id, warp=warp.warp_id)
                if released:
                    wt.record(now, self.sm_id, EventKind.BARRIER_RELEASE,
                              cta.cta_id)
            if released:
                # Barrier released: warps (possibly on sleeping sibling
                # schedulers) just became runnable.
                self._wake_schedulers()
            elif warp.blocked_until == FOREVER:
                self._on_long_block(warp, now)
        elif kind == _K_BRA:
            pass  # path already resolved in the trace
        elif kind == _K_EXIT:
            self._finish_warp(warp, now)
            return True
        # Proactive short-stall block: the warp stays current after issuing,
        # so the dense engine's next step would retry it first and discover
        # the dependency stall.  Peeking the next instruction's operands now
        # writes the identical blocked_until one attempt earlier, skipping
        # that guaranteed-failing call.  Long stalls (>= the CTA-switch
        # threshold) are left to the real attempt: its _on_long_block side
        # effects must keep their exact per-cycle timing, and an early
        # blocked_until would otherwise flip fully_stalled() checks made by
        # sibling warps later this same cycle.
        if kind != _K_BAR:
            nmeta = self._meta[warp.trace[warp.pos]]
            nsrcs = nmeta[0]
            if nsrcs and warp.peak_ready > now:
                nready = 0
                ready_at = warp.ready_at
                for reg in nsrcs:
                    t = ready_at[reg]
                    if t > nready:
                        nready = t
                if now < nready and nready - now < self._stall_threshold:
                    warp.blocked_until = nready
        return True

    def _finish_warp(self, warp: WarpSim, now: int) -> None:
        if self._defer_stats:
            # Deferred issue counters: one packed C-level sum credits the
            # warp's whole (fully issued) trace.
            tr = warp.trace
            packed = sum(map(self._packed_vec.__getitem__, tr))
            stats = self.stats
            stats.instructions += len(tr)
            stats.rf_reads += packed & 0xFFFFF
            stats.rf_writes += (packed >> 20) & 0xFFFFF
            stats.rf_bank_conflicts += (packed >> 40) & 0xFFFFF
            stats.shmem_accesses += packed >> 60
            if self._kstats is not None:
                self._kstats[warp.cta.launch.index].instructions += len(tr)
        warp.finish()
        self._active_warps -= 1
        self._active_threads -= 32
        if self._kstats is not None:
            self._k_warps[warp.cta.launch.index] -= 1
        self._lvl_dirty = True
        for scheduler in self.schedulers:
            if warp in scheduler.warps:
                scheduler.remove_warp(warp)
                break
        cta = warp.cta
        if cta.maybe_release_barrier(now):
            if self._wt is not None:
                self._wt.record(now, self.sm_id, EventKind.BARRIER_RELEASE,
                                cta.cta_id)
            self._wake_schedulers()
        if cta.finished:
            self.active_ctas.remove(cta)
            if self._kstats is not None:
                self._k_active[cta.launch.index] -= 1
            self.retire_cta(cta, now)

    def _wake_schedulers(self) -> None:
        self._sched_sleep = 0
        for scheduler in self.schedulers:
            scheduler.wake()

    def _on_long_block(self, warp: WarpSim, now: int) -> None:
        """A warp just blocked for a while; check for a complete CTA stall."""
        cta = warp.cta
        if cta.state is not CTAState.ACTIVE:
            return
        if not cta.fully_stalled(now, min_remaining=self._stall_threshold):
            return
        if not cta.stall_recorded and cta.first_issue_cycle is not None:
            cta.stall_recorded = True
            self.stats.stall_latencies.append(now - cta.first_issue_cycle)
            if self._kstats is not None:
                ks = self._kstats[cta.launch.index]
                ks.stall_events += 1
                ks.stall_cycles += now - cta.first_issue_cycle
        if self._policy is not None:
            self._policy.on_cta_stalled(cta, now)

    # ------------------------------------------------------------------
    # Fig-5 sampling
    # ------------------------------------------------------------------
    def _sample_window(self, warp: WarpSim, instr) -> None:
        gid = warp.global_warp_id
        for reg in instr.registers:
            self._window_regs.add((gid, reg))
        self._window_count += 1
        if self._window_count >= USAGE_WINDOW:
            allocated = sum(
                cta.unfinished_warps() * cta.launch.regs_per_thread
                for cta in self.active_ctas
            )
            if allocated:
                usage = len(self._window_regs) / allocated
                self.stats.window_usage.append(min(1.0, usage))
            self._window_regs.clear()
            self._window_count = 0

    def debug_accounting(self) -> Dict[str, object]:
        """Snapshot of the SM's resource bookkeeping (sanitizer, tests)."""
        return {
            "active": sorted(c.cta_id for c in self.active_ctas),
            "pending": sorted(c.cta_id for c in self.pending_ctas),
            "transit": sorted(c.cta_id for c in self.transit_ctas),
            "active_warps": self._active_warps,
            "active_threads": self._active_threads,
            "incoming_ctas": self._incoming_ctas,
            "incoming_warps": self._incoming_warps,
            "incoming_threads": self._incoming_threads,
            "shmem_used": self.shmem_used,
            "sched_sleep": self._sched_sleep,
            "scheduler_warps": [len(s.warps) for s in self.schedulers],
        }

    # ------------------------------------------------------------------
    # Bookkeeping for the global loop
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return bool(self.active_ctas or self.pending_ctas
                    or self.transit_ctas)

    def next_event(self, now: int) -> int:
        """Earliest future cycle at which this SM's state can change."""
        earliest = FOREVER
        # Inlined min over every active warp's blocked_until.  Equivalent to
        # min(cta.earliest_resume(now)) because max(now, .) distributes over
        # the min: min_c max(now, m_c) == max(now, min_c m_c).
        blocked = FOREVER
        for cta in self.active_ctas:
            for warp in cta.warps:
                b = warp.blocked_until
                if b < blocked:
                    blocked = b
        if blocked < FOREVER:
            earliest = blocked if blocked > now else now
        if self._transit_min < earliest:
            earliest = self._transit_min
        if self._policy is not None:
            t = self._policy.next_event(now)
            if t < earliest:
                earliest = t
        return earliest

    def accumulate(self, dt: int, idle: bool) -> None:
        """Advance the time-weighted stats by ``dt`` cycles.

        The level integrals are buffered: while the CTA/warp levels are
        unchanged (``_lvl_dirty`` unset), only the span length is summed and
        the product is materialized lazily.  Sums of exact integer products
        stay exact in float, so the buffered integral is bit-identical to
        the per-cycle one.  ``flush_levels`` must run before the integrals
        are read (the GPU loop flushes at run end).  The per-cycle idle
        taxonomy is NOT buffered: ``classify_idle`` may be stateful
        (RegMutex consumes its SRP flag on the first call), so it keeps its
        exact per-advance cadence.
        """
        stats = self.stats
        if self._lvl_dirty:
            buffered = self._lvl_dt
            if buffered:
                stats.accumulate(buffered, self._lvl_active,
                                 self._lvl_pending, self._lvl_warps)
            active = len(self.active_ctas)
            pending = len(self.pending_ctas) + len(self.transit_ctas)
            self._lvl_active = active
            self._lvl_pending = pending
            self._lvl_warps = self._active_warps
            if self._kstats is not None:
                # Per-kernel level integrals flush on the same spans with
                # the same buffered snapshots, so they sum exactly to the
                # whole-SM integrals.
                if buffered:
                    for i, ks in enumerate(self._kstats):
                        ks.active_cta_cycles += \
                            buffered * self._klvl_active[i]
                        ks.active_warp_cycles += \
                            buffered * self._klvl_warps[i]
                self._klvl_active = self._k_active[:]
                self._klvl_warps = self._k_warps[:]
            self._lvl_dt = dt
            self._lvl_dirty = False
            resident = active + pending
            if resident > stats.max_resident_ctas:
                stats.max_resident_ctas = resident
        else:
            self._lvl_dt += dt
        if not (idle or not self._last_step_issued):
            return
        if self.active_ctas or self.pending_ctas or self.transit_ctas:
            stats.idle_cycles += dt
            policy = self._policy
            if policy is not None:
                reason = policy.classify_idle(dt)
                if reason == "rf":
                    stats.rf_depletion_cycles += dt
                elif reason == "srp":
                    stats.srp_stall_cycles += dt

    def flush_levels(self) -> None:
        """Materialize the buffered level-integral span (run end / reads)."""
        buffered = self._lvl_dt
        if buffered:
            self.stats.accumulate(buffered, self._lvl_active,
                                  self._lvl_pending, self._lvl_warps)
            if self._kstats is not None:
                for i, ks in enumerate(self._kstats):
                    ks.active_cta_cycles += buffered * self._klvl_active[i]
                    ks.active_warp_cycles += buffered * self._klvl_warps[i]
            self._lvl_dt = 0
