"""FineReg: fine-grained register file management (the paper's contribution).

The register file is split into an ACRF (active CTAs, full allocations) and a
PCRF (pending CTAs, live registers only).  When every warp of an active CTA
blocks on long-latency operations, the RMU decodes the live registers at each
warp's stalled PC from the compiler-generated bit vectors and, if they fit,
spills them into the PCRF; the freed ACRF space hosts either a brand-new CTA
or a pending CTA whose stall has cleared.  When the PCRF is full, FineReg
degrades to pure context switching -- allowed whenever the stalled CTA's live
set fits in the PCRF counting the slots the restored CTA vacates (V-E).

Timing: a switch transaction's latency is the RMU's pipelined chain traversal
(4 cycles + one register per cycle) plus any bit-vector-cache miss penalties
(a DRAM round trip each, with 12 bytes of traffic counted against the
off-chip bus).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.acrf import ACRFAllocator
from repro.core.pcrf import PCRF
from repro.core.rmu import RegisterManagementUnit
from repro.core.status_monitor import (
    CTAStatusMonitor,
    ContextLocation,
    RegisterLocation,
)
from repro.policies.base import PendingTracker, RegisterFilePolicy
from repro.sim.cta import CTASim, CTAState
from repro.sim.tracing import EventKind

#: Pipeline-context backup latency (shared-memory side of a switch).
CONTEXT_SWITCH_LATENCY = 36


class FineRegPolicy(RegisterFilePolicy):
    """ACRF/PCRF split with live-register-only pending storage."""

    name = "finereg"

    def __init__(self, sm) -> None:
        super().__init__(sm)
        config = self.config
        self.acrf = ACRFAllocator(config.acrf_entries)
        self.pcrf = PCRF(min(config.pcrf_entries, 1024))
        self.rmu = RegisterManagementUnit(
            self.pcrf,
            sm.gpu.liveness,
            cache_entries=config.bitvector_cache_entries,
            pcrf_access_latency=config.pcrf_access_latency,
            dram_latency=config.dram_latency,
        )
        self.monitor = CTAStatusMonitor(config.max_resident_ctas)
        self.pending = PendingTracker()
        self.rf_capacity_entries = config.acrf_entries
        self.failed_spills = 0
        self.switch_pairs = 0
        # Blocked restores counted so far, and the executed-cycle count at
        # the tick that opened the current blocked span (None: no span).
        self._blocked_restores = 0
        self._blocked_mark: Optional[int] = None
        # Residency throttle: beyond a few stall-periods' worth of pending
        # CTAs there is nothing left to hide, and every extra resident CTA
        # costs cold-start traffic.  The hardware caps at 128 CTAs / 512
        # warps (V-F); the launch heuristic stops well before when the
        # pending pool is already deep relative to the active complement.
        active_cap = max(
            min(
                config.max_ctas_per_sm,
                config.max_warps_per_sm // launch.warps_per_cta,
                config.max_threads_per_sm // launch.threads_per_cta,
                max(1, config.acrf_entries // max(1, launch.cta_regs)),
            )
            for launch in sm.gpu.launches)
        self._resident_cap = min(config.max_resident_ctas, 3 * active_cap)
        # Declared warps of launched-but-unretired CTAs (the launches'
        # per-CTA footprints may differ, so the sum is tracked directly).
        self._decl_warps = 0
        #: New-CTA launches pause while the DRAM backlog exceeds this.
        self.bus_backlog_threshold = config.dram_latency

    # ------------------------------------------------------------------
    # Launching: bounded by ACRF + scheduler slots + residency caps.
    # ------------------------------------------------------------------
    def can_launch(self, launch) -> bool:
        return (self.sm.scheduler_slots_free(launch)
                and self.sm.shmem_free(launch.shmem_per_cta)
                and self.acrf.can_allocate(self._launch_regs(launch))
                and self._residency_headroom(launch))

    def register_space_for(self, regs: int) -> bool:
        return self.acrf.can_allocate(regs)

    def _residency_headroom(self, launch) -> bool:
        resident = self.sm.resident_ctas
        return (resident < self._resident_cap
                and self._decl_warps + launch.warps_per_cta
                <= self.config.max_resident_warps)

    def note_launched(self, cta: CTASim, now: int) -> None:
        self.acrf.allocate(cta.cta_id, self._launch_regs(cta.launch))
        self.rf_used_entries = self.acrf.used
        self._decl_warps += cta.launch.warps_per_cta
        self.monitor.launch(cta.cta_id)

    # ------------------------------------------------------------------
    # Core event: an active CTA completely stalled.
    # ------------------------------------------------------------------
    def _act_on_idle(self, now: int, stalled) -> bool:
        """The SM starves: move stalled live sets to the PCRF and refill."""
        acted = False
        for cta in stalled:
            if not self._try_switch_out(cta, now):
                break
            acted = True
        return acted

    def _try_switch_out(self, cta: CTASim, now: int) -> bool:
        warp_pcs = self._stalled_warp_pcs(cta)
        if not warp_pcs:
            return False
        sm = self.sm
        candidate = self._peek_ready(now, sm.gpu.launches)
        # Launch brand-new CTAs only while the off-chip bus has headroom:
        # on a saturated channel extra residents add compulsory traffic and
        # queueing delay without any latency left to hide.
        can_host_new = (
            sm.gpu.hierarchy.dram.backlog(now) < self.bus_backlog_threshold
            and self._could_host_new())
        if candidate is None and not can_host_new:
            return False  # parking buys nothing; wake up in place

        live_count = max(1, self.rmu.live_count_of(warp_pcs))
        if self.rmu.can_spill(live_count, None):
            self._spill(cta, warp_pcs, now)
            # Resume ready pending CTAs first (oldest work, and its PCRF
            # slots free up); only launch fresh CTAs when nothing is ready.
            self._restore_ready(now)
            if candidate is None:
                self.fill(now)
            self._set_rf_blocked(False, now, cta.cta_id)
            return True

        # The swap must fit: a partially-retired outgoing CTA frees fewer
        # scheduler slots than a full incoming one takes, and a CTA of
        # another launch may need more ACRF than the outgoing one frees.
        fits_swap = (candidate is not None
                     and sm.swap_slots_free(cta, candidate.launch)
                     and self.acrf.free + self._launch_regs(cta.launch)
                     >= self._launch_regs(candidate.launch))
        if fits_swap and self.rmu.can_spill(live_count, candidate.cta_id):
            # PCRF full, but the swap-out credit covers us (paper V-E):
            # restore the candidate's chain out while the stalled CTA's
            # live set streams in through the 128-byte transfer buffer.
            live, fetch_latency, misses = self.rmu.live_set_of(warp_pcs)
            self._release_acrf(cta, now, fetch_latency, misses)
            self._restore(self.pending.pop_ready(now, candidate), now)
            self._finish_spill(cta, live, fetch_latency, now)
            self.switch_pairs += 1
            self._set_rf_blocked(False, now, cta.cta_id)
            return True

        # PCRF depleted: the stalled CTA must remain in the ACRF (V-B).
        self.failed_spills += 1
        self.rmu.stats.rejected_switches += 1
        self._set_rf_blocked(True, now, cta.cta_id)
        return False

    def _could_host_new(self) -> bool:
        """Would a brand-new CTA of some launch pass the residency caps and
        shared memory (the bus backlog aside)?"""
        sm = self.sm
        return sm.gpu.arbiter.next_fitting(
            lambda l: (self._residency_headroom(l)
                       and sm.shmem_free(l.shmem_per_cta))) is not None

    def idle_wake(self, now: int) -> int:
        # _try_switch_out parks only for a ready pending CTA or a new CTA
        # (idle_backlog_limit); with neither, "parking buys nothing".
        wake = self.pending.next_ready_time()
        if wake > now and self.pending.has_ready(now):
            return now
        return wake

    def idle_backlog_limit(self) -> float:
        # The new-CTA path's bus test, compared with the live backlog.
        return self.bus_backlog_threshold if self._could_host_new() else 0.0

    # ------------------------------------------------------------------
    def _spill(self, cta: CTASim, warp_pcs: List[Tuple[int, int]],
               now: int) -> None:
        live, fetch_latency, misses = self.rmu.live_set_of(warp_pcs)
        self._release_acrf(cta, now, fetch_latency, misses)
        self._finish_spill(cta, live, fetch_latency, now)

    def _release_acrf(self, cta: CTASim, now: int, fetch_latency: int,
                      misses: int) -> None:
        """First half of a switch-out: free the ACRF and start the transit."""
        freed = self.acrf.release(cta.cta_id)
        assert freed == self._launch_regs(cta.launch)
        self.rf_used_entries = self.acrf.used
        if misses:
            # Cold bit vectors are fetched from the reserved off-chip area.
            self.sm.gpu.hierarchy.bulk_transfer(now, misses * 12, "bitvector")

    def _finish_spill(self, cta: CTASim, live, fetch_latency: int,
                      now: int) -> None:
        """Second half: chain the live registers into the PCRF."""
        cost = self.rmu.spill(cta.cta_id, live, fetch_latency)
        latency = max(cost.cycles, CONTEXT_SWITCH_LATENCY)
        self.sm.deactivate_cta(cta, now, latency)
        self.pending.add(cta, max(now + latency, cta.earliest_resume(now)))
        self.monitor.set_context(cta.cta_id, ContextLocation.SHARED_MEMORY)
        self.monitor.set_registers(cta.cta_id, RegisterLocation.PCRF)
        spilled = self.pcrf.live_count_of(cta.cta_id)
        self.sm.stats.pcrf_writes += spilled
        tracer = self.sm.gpu.warp_tracer
        if tracer is not None:
            tracer.record(now, self.sm.sm_id, EventKind.PCRF_SPILL,
                          cta.cta_id, dur=latency, value=spilled)

    def _restore(self, cta: CTASim, now: int) -> None:
        restored = self.rmu.pending_live_count(cta.cta_id)
        cost = self.rmu.restore(cta.cta_id)
        self.acrf.allocate(cta.cta_id, self._launch_regs(cta.launch))
        self.rf_used_entries = self.acrf.used
        latency = max(cost.cycles, CONTEXT_SWITCH_LATENCY)
        self.sm.activate_cta(cta, now, latency)
        self.monitor.set_context(cta.cta_id, ContextLocation.PIPELINE)
        self.monitor.set_registers(cta.cta_id, RegisterLocation.ACRF)
        self.sm.stats.pcrf_reads += restored
        tracer = self.sm.gpu.warp_tracer
        if tracer is not None:
            tracer.record(now, self.sm.sm_id, EventKind.PCRF_FILL,
                          cta.cta_id, dur=latency, value=restored)

    def _peek_ready(self, now: int, launches) -> Optional[CTASim]:
        """The pending CTA the status monitor would pick among the ready
        CTAs of ``launches``, without removal."""
        by_id = {cta.cta_id: cta for cta in self.pending.ready_ctas(now)
                 if cta.launch in launches}
        if not by_id:
            return None
        choice = self.monitor.select_switch_candidate(by_id)
        if choice is None:
            choice = min(by_id)
        return by_id[choice]

    def _stalled_warp_pcs(self, cta: CTASim) -> List[Tuple[int, int]]:
        """(warp_id, stalled PC) for each unfinished warp of the CTA."""
        pcs = []
        for warp in cta.warps:
            if warp.finished:
                continue
            static_index = warp.trace[warp.pos] if \
                warp.pos < len(warp.trace) else None
            if static_index is None:
                continue
            pcs.append((warp.warp_id, static_index * 4))
        return pcs

    # ------------------------------------------------------------------
    def on_cta_finished(self, cta: CTASim, now: int) -> None:
        self.acrf.release(cta.cta_id)
        self.rf_used_entries = self.acrf.used
        self._decl_warps -= cta.launch.warps_per_cta
        self.monitor.retire(cta.cta_id)
        self._restore_ready(now)
        self.fill(now)

    @property
    def blocked_restores(self) -> int:
        """Restores refused for ACRF space (the adaptive split's pressure
        signal): one per restore round that leaves a ready CTA of an
        ACRF-blocked launch waiting.

        The dense oracle ticks on every executed cycle, so while that
        state holds it counts one per executed cycle.  The event engines
        skip those ticks: the tick that leaves the state open marks the
        executed-cycle count, and the cycles after it count in closed form
        (the next tick folds them in).
        """
        mark = self._blocked_mark
        if mark is None:
            return self._blocked_restores
        return self._blocked_restores + self.sm.gpu.executed_cycles - mark

    def on_tick(self, now: int) -> None:
        executed = self.sm.gpu.executed_cycles
        if self._blocked_mark is not None:
            # Fold the span: the executed cycles after the opening tick,
            # up to this one, whose own count follows.
            self._blocked_restores += executed - 1 - self._blocked_mark
            self._blocked_mark = None
        if self.pending.has_ready(now) and self._restore_ready(now):
            self._blocked_mark = executed

    def _split_launches(self):
        """Launches with free scheduler slots, split into those whose next
        CTA the ACRF can host (``fitting``) and those it cannot
        (``blocked``)."""
        sm = self.sm
        fitting, blocked = [], []
        for launch in sm.gpu.launches:
            if sm.scheduler_slots_free(launch):
                if self.acrf.can_allocate(self._launch_regs(launch)):
                    fitting.append(launch)
                else:
                    blocked.append(launch)
        return fitting, blocked

    def _restore_ready(self, now: int) -> bool:
        """Restore the status monitor's picks while the ACRF and scheduler
        slots have room for them; True (a blocked restore, counted) when a
        ready CTA of an ACRF-blocked launch is left waiting.

        Whether a launch's CTA fits is asked once per launch and round,
        and only ready CTAs of a fitting launch are candidates.
        """
        while True:
            fitting, blocked = self._split_launches()
            candidate = self._peek_ready(now, fitting) if fitting else None
            if candidate is None:
                break
            self._restore(self.pending.pop_ready(now, candidate), now)
            self._set_rf_blocked(False, now, candidate.cta_id)
        # Asked even when nothing is blocked: has_ready drains the
        # readiness heap, whose top next_event reports to the idle jump.
        if self.pending.has_ready(now, blocked):
            self._blocked_restores += 1
            return True
        return False

    def next_event(self, now: int) -> int:
        return self.pending.next_ready_time()

    def wake_time(self, now: int) -> int:
        # The tick acts when a ready CTA fits the scheduler slots and the
        # ACRF, and it must also run when the blocked span it recorded no
        # longer matches the state (a hook restored, freed or took space),
        # so that it folds the span at the right cycle.
        wake = self.pending.next_ready_time()
        if wake > now:
            fitting, blocked = self._split_launches()
            if fitting and self.pending.has_ready(now, fitting):
                return now
            waiting = bool(blocked) and self.pending.has_ready(now, blocked)
            if waiting != (self._blocked_mark is not None):
                return now
        return wake

    # ------------------------------------------------------------------
    def telemetry_levels(self) -> dict:
        return {
            "acrf_free": self.acrf.free,
            "acrf_used": self.acrf.used,
            "pcrf_free": self.pcrf.free_entries,
            "pcrf_used": self.pcrf.used_entries,
        }

    def extras(self) -> dict:
        cache = self.rmu.bitvector_cache.stats
        return {
            "pcrf_spills": self.rmu.stats.spills,
            "pcrf_restores": self.rmu.stats.restores,
            "failed_spills": self.failed_spills,
            "switch_pairs": self.switch_pairs,
            "bitvector_hits": cache.hits,
            "bitvector_misses": cache.misses,
        }
