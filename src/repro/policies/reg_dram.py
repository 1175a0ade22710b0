"""Reg+DRAM: a Zorua-like configuration (paper VI-A).

Extends Virtual Thread with CTA context switching *through off-chip DRAM*:
when the register file is full and an active CTA stalls, its entire register
allocation is written out to a reserved DRAM region, making room either for a
fresh CTA or for a DRAM-pending CTA that has become ready.  Every such switch
moves the CTA's full static register footprint over the memory bus, which is
exactly the traffic the paper blames for Reg+DRAM's weak returns (Fig 15).

The number of DRAM-pending CTAs is capped (``dram_pending_limit``); the
experiment harness sweeps this cap per application, mirroring the paper's
"best-performance setup for every application".
"""

from __future__ import annotations

from typing import Optional

from repro.policies.base import PendingTracker
from repro.policies.virtual_thread import VirtualThreadPolicy
from repro.sim.cta import CTASim

#: Default cap on CTAs parked in DRAM (per SM).
DEFAULT_DRAM_PENDING_LIMIT = 8


class RegDRAMPolicy(VirtualThreadPolicy):
    """Virtual Thread + full-context CTA parking in off-chip DRAM."""

    name = "reg_dram"

    def __init__(self, sm, dram_pending_limit: int = DEFAULT_DRAM_PENDING_LIMIT
                 ) -> None:
        super().__init__(sm)
        self.dram_pending_limit = dram_pending_limit
        self.dram_pending = PendingTracker()
        self._dram_count = 0
        # Register entries of DRAM-parked CTAs (their launches' footprints
        # may differ, so the sum is tracked directly).
        self._dram_regs = 0
        self.context_spills = 0
        self.context_restores = 0

    # ------------------------------------------------------------------
    def _act_on_idle(self, now: int, stalled) -> bool:
        acted = False
        for cta in stalled:
            # On-chip options first (plain Virtual Thread behaviour).  Any
            # swap must keep the active region within the Table-I limits:
            # a partially-retired CTA frees fewer slots than a full
            # incoming one needs.
            candidate = self._pop_ready_swap(self.pending, cta, now)
            if candidate is not None:
                self._park(cta, now)
                self.sm.activate_cta(candidate, now, self.switch_latency)
                acted = True
                continue
            if self._new_cta_feasible():
                self._park(cta, now)
                self.fill(now)
                acted = True
                continue
            # RF is full: consider the DRAM path.
            dram_candidate = self._pop_dram_swap(cta, now)
            if dram_candidate is not None:
                self._swap_via_dram(cta, dram_candidate, now)
                acted = True
                continue
            if self._dram_count < self.dram_pending_limit and \
                    self._grid_remaining():
                self._spill_to_dram(cta, now)
                self.fill(now)
                acted = True
                continue
            break
        return acted

    # ------------------------------------------------------------------
    def _spill_to_dram(self, cta: CTASim, now: int) -> None:
        """Write the CTA's full register context out to DRAM."""
        nbytes = cta.launch.kernel.register_bytes_per_cta
        done = self.sm.gpu.hierarchy.bulk_transfer(now, nbytes,
                                                   "context_spill")
        self.sm.deactivate_cta(cta, now, done - now)
        self.dram_pending.add(cta, max(done, cta.earliest_resume(now)))
        self._dram_count += 1
        regs = self._launch_regs(cta.launch)
        self._dram_regs += regs
        self.rf_used_entries -= regs
        self.context_spills += 1

    def _restore_from_dram(self, cta: CTASim, now: int) -> int:
        """Read a parked CTA's register context back; returns ready cycle."""
        nbytes = cta.launch.kernel.register_bytes_per_cta
        done = self.sm.gpu.hierarchy.bulk_transfer(now, nbytes,
                                                   "context_restore")
        self._dram_count -= 1
        regs = self._launch_regs(cta.launch)
        self._dram_regs -= regs
        self.rf_used_entries += regs
        self.context_restores += 1
        return done

    def _swap_via_dram(self, stalled: CTASim, incoming: CTASim,
                       now: int) -> None:
        spill_bytes = stalled.launch.kernel.register_bytes_per_cta
        spill_done = self.sm.gpu.hierarchy.bulk_transfer(
            now, spill_bytes, "context_spill")
        self.sm.deactivate_cta(stalled, now, spill_done - now)
        self.dram_pending.add(
            stalled, max(spill_done, stalled.earliest_resume(now)))
        self.context_spills += 1
        restore_done = self._restore_from_dram(incoming, now)
        self._dram_count += 1  # net zero with the spill above
        regs = self._launch_regs(stalled.launch)
        self._dram_regs += regs
        self.rf_used_entries -= regs
        self.sm.activate_cta(incoming, now, restore_done - now)

    def _pop_dram_swap(self, outgoing: CTASim, now: int) -> Optional[CTASim]:
        """A ready DRAM-parked CTA that may replace ``outgoing``.

        Unlike an on-chip swap (register delta zero by construction), a
        DRAM swap exchanges the two footprints in the RF, so the incoming
        allocation must fit what the outgoing one frees plus the current
        headroom (always true when both CTAs belong to one launch).
        """
        sm = self.sm
        headroom = self.rf_capacity_entries - self.rf_used_entries \
            + self._launch_regs(outgoing.launch)
        fitting = [launch for launch in sm.gpu.launches
                   if sm.swap_slots_free(outgoing, launch)
                   and self._launch_regs(launch) <= headroom]
        return self._pop_lowest_ready(self.dram_pending, now, fitting) \
            if fitting else None

    def _pop_dram_fitting(self, now: int) -> Optional[CTASim]:
        """A ready DRAM-parked CTA whose registers AND slots both fit.

        Registers are asked first: a parked CTA waiting here is almost
        always waiting for register space.
        """
        sm = self.sm
        fitting = [launch for launch in sm.gpu.launches
                   if self.register_space_for(self._launch_regs(launch))
                   and sm.scheduler_slots_free(launch)]
        return self._pop_lowest_ready(self.dram_pending, now, fitting) \
            if fitting else None

    # ------------------------------------------------------------------
    def on_cta_finished(self, cta: CTASim, now: int) -> None:
        self.rf_used_entries -= self._launch_regs(cta.launch)
        candidate = self._pop_ready_fitting(self.pending, now)
        if candidate is not None:
            self.sm.activate_cta(candidate, now, self.switch_latency)
        else:
            dram_candidate = self._pop_dram_fitting(now)
            if dram_candidate is not None:
                done = self._restore_from_dram(dram_candidate, now)
                self.sm.activate_cta(dram_candidate, now, done - now)
        self.fill(now)

    def on_tick(self, now: int) -> None:
        super().on_tick(now)
        if not self.dram_pending.has_ready(now):
            return
        while True:
            candidate = self._pop_dram_fitting(now)
            if candidate is None:
                break
            done = self._restore_from_dram(candidate, now)
            self.sm.activate_cta(candidate, now, done - now)

    def next_event(self, now: int) -> int:
        return min(self.pending.next_ready_time(),
                   self.dram_pending.next_ready_time())

    def wake_time(self, now: int) -> int:
        # Virtual Thread's rule, plus a ready DRAM-parked CTA whose launch
        # has registers as well as scheduler slots free.
        wake = min(self.pending.next_ready_time(),
                   self.dram_pending.next_ready_time())
        if wake > now:
            slots = self._slot_launches()
            if slots and (self.pending.has_ready(now, slots)
                          or self.dram_pending.has_ready(now, [
                              launch for launch in slots
                              if self.register_space_for(
                                  self._launch_regs(launch))])):
                return now
        return wake

    def idle_wake(self, now: int) -> int:
        # Virtual Thread's rule, plus the DRAM path: a ready DRAM-parked
        # CTA, or room to park one more in DRAM while the grid has CTAs.
        wake = min(self.pending.next_ready_time(),
                   self.dram_pending.next_ready_time())
        if wake > now and (
                self.pending.has_ready(now)
                or self.dram_pending.has_ready(now)
                or self._new_cta_feasible()
                or (self._dram_count < self.dram_pending_limit
                    and self._grid_remaining())):
            return now
        return wake

    def extras(self) -> dict:
        return {
            "context_spills": self.context_spills,
            "context_restores": self.context_restores,
        }
