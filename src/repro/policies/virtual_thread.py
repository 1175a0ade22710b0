"""Virtual Thread [45]: resident CTAs beyond the scheduling limit.

CTAs launch until the *register file or shared memory* is full, even past the
CTA/warp/thread scheduling limits; CTAs beyond the active limit wait in
pending mode with their full register allocation kept in the RF and their
pipeline context backed up in shared memory.  When an active CTA fully
stalls, a ready pending CTA is switched in — a fast on-chip operation, since
no register data moves.
"""

from __future__ import annotations

from repro.policies.base import PendingTracker, RegisterFilePolicy
from repro.sim.cta import CTASim

#: Pipeline-context save/restore latency via shared memory (cycles).
VT_SWITCH_LATENCY = 36


class VirtualThreadPolicy(RegisterFilePolicy):
    """Active set bounded by scheduler limits; residency bounded by RF/shmem."""

    name = "virtual_thread"

    def __init__(self, sm) -> None:
        super().__init__(sm)
        self.pending = PendingTracker()
        self.switch_latency = VT_SWITCH_LATENCY

    # ------------------------------------------------------------------
    def _act_on_idle(self, now: int, stalled) -> bool:
        """The SM starves: swap out stalled CTAs for runnable work."""
        acted = False
        for cta in stalled:
            # A partially-retired CTA frees fewer warp slots than a full
            # incoming one needs; only swap when the result stays legal.
            candidate = self._pop_ready_swap(self.pending, cta, now)
            if candidate is not None:
                # Swap: stalled goes pending, ready pending becomes active.
                self._park(cta, now)
                self.sm.activate_cta(candidate, now, self.switch_latency)
                acted = True
                continue
            if self._new_cta_feasible():
                # Park the stalled CTA and bring a brand-new one in.
                self._park(cta, now)
                self.fill(now)
                acted = True
                continue
            break  # no residency headroom; stalled CTAs wait in place
        return acted

    def on_cta_finished(self, cta: CTASim, now: int) -> None:
        self.rf_used_entries -= self._launch_regs(cta.launch)
        candidate = self._pop_ready_fitting(self.pending, now)
        if candidate is not None:
            self.sm.activate_cta(candidate, now, self.switch_latency)
        self.fill(now)

    def on_tick(self, now: int) -> None:
        if not self.pending.has_ready(now):
            return
        while True:
            candidate = self._pop_ready_fitting(self.pending, now)
            if candidate is None:
                break
            self.sm.activate_cta(candidate, now, self.switch_latency)

    def next_event(self, now: int) -> int:
        return self.pending.next_ready_time()

    def wake_time(self, now: int) -> int:
        # on_tick acts only on a ready CTA whose launch has free scheduler
        # slots.  A ready CTA that does not fit waits for the hook that
        # frees them (a park, a finish, a settle), which re-asks.
        wake = self.pending.next_ready_time()
        if wake > now:
            slots = self._slot_launches()
            if slots and self.pending.has_ready(now, slots):
                return now
        return wake

    def idle_wake(self, now: int) -> int:
        # _act_on_idle parks a stalled CTA only for a ready pending CTA or
        # a new CTA that fits; with neither it breaks at the first one.
        wake = self.pending.next_ready_time()
        if wake > now and (self.pending.has_ready(now)
                           or self._new_cta_feasible()):
            return now
        return wake

    # ------------------------------------------------------------------
    def _park(self, cta: CTASim, now: int) -> None:
        """Deactivate a stalled CTA and track its exact wake-up time."""
        self.sm.deactivate_cta(cta, now, self.switch_latency)
        self.pending.add(
            cta, max(now + self.switch_latency, cta.earliest_resume(now)))

    def _grid_remaining(self) -> bool:
        return self.sm.gpu.ctas_remaining > 0
