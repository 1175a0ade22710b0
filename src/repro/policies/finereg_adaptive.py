"""Adaptive ACRF/PCRF repartitioning (an extension beyond the paper).

Fig 17 shows the best static split is workload-dependent: register-hungry
kernels want a bigger ACRF (more active CTAs), low-live kernels want a
bigger PCRF (deeper pending pool).  This extension starts at the paper's
128/128 split and moves the boundary at runtime:

* toward the ACRF when launches/restores are being refused for ACRF space
  while the PCRF sits underused, and
* toward the PCRF when spills are rejected for PCRF space while the ACRF
  has idle capacity.

The boundary moves in 8 KB (64 warp-register) steps, at most once per
epoch, and only when the surrendered region is free -- the PCRF gives up
its top slots, which drain naturally because spills claim the lowest free
slots first.
"""

from __future__ import annotations

from repro.policies.finereg import FineRegPolicy
from repro.sim.cta import CTASim

#: Boundary step in warp-registers (128 entries = 16 KB).
REPARTITION_STEP = 128

#: Minimum region size in warp-registers (64 KB, Fig 17's extreme).
MIN_REGION = 512

#: Cycles between repartition decisions.
EPOCH_CYCLES = 1024


class AdaptiveFineRegPolicy(FineRegPolicy):
    """FineReg with runtime ACRF/PCRF boundary movement."""

    name = "finereg_adaptive"

    def __init__(self, sm) -> None:
        super().__init__(sm)
        self._next_epoch = EPOCH_CYCLES
        self._epoch_failed_spills = 0
        self._epoch_acrf_blocked = 0
        self._seen_blocked_restores = 0
        self.repartitions_to_acrf = 0
        self.repartitions_to_pcrf = 0

    # ------------------------------------------------------------------
    # Pressure signals
    # ------------------------------------------------------------------
    def can_launch(self, launch) -> bool:
        # Counts every ACRF refusal, the grid's state aside: the dispatch
        # arbiter asks before it looks at the grid.
        ok = super().can_launch(launch)
        if not ok and self.sm.scheduler_slots_free(launch) \
                and not self.acrf.can_allocate(self._launch_regs(launch)):
            self._epoch_acrf_blocked += 1
        return ok

    def _try_switch_out(self, cta: CTASim, now: int) -> bool:
        before = self.failed_spills
        acted = super()._try_switch_out(cta, now)
        if self.failed_spills > before:
            self._epoch_failed_spills += 1
        return acted

    # ------------------------------------------------------------------
    def on_tick(self, now: int) -> None:
        super().on_tick(now)
        if now >= self._next_epoch:
            self._maybe_repartition()
            self._next_epoch = now + EPOCH_CYCLES

    def wake_time(self, now: int) -> int:
        # The repartition epoch fires at the first executed cycle past
        # _next_epoch, exactly like the dense per-cycle check.
        wake = super().wake_time(now)
        if self._next_epoch < wake:
            wake = self._next_epoch
        return wake

    def _maybe_repartition(self) -> None:
        pcrf_pressure = self._epoch_failed_spills
        acrf_pressure = self._epoch_acrf_blocked \
            + (self.blocked_restores - self._seen_blocked_restores)
        self._seen_blocked_restores = self.blocked_restores
        self._epoch_failed_spills = 0
        self._epoch_acrf_blocked = 0
        if pcrf_pressure > acrf_pressure and pcrf_pressure > 0:
            self._grow_pcrf()
        elif acrf_pressure > pcrf_pressure and acrf_pressure > 0:
            self._grow_acrf()

    def _grow_pcrf(self) -> None:
        new_acrf = self.acrf.capacity - REPARTITION_STEP
        if new_acrf < MIN_REGION:
            return
        if self.acrf.capacity - self.acrf.used < REPARTITION_STEP:
            return  # the surrendered ACRF space is still allocated
        if self.pcrf.capacity + REPARTITION_STEP > 1024:
            return  # 10-bit next-pointer addressing limit
        self.acrf.resize(new_acrf)
        self.pcrf.resize(self.pcrf.capacity + REPARTITION_STEP)
        self.rf_capacity_entries = new_acrf
        self.repartitions_to_pcrf += 1

    def _grow_acrf(self) -> None:
        new_pcrf = self.pcrf.capacity - REPARTITION_STEP
        if new_pcrf < MIN_REGION:
            return
        if any(self.pcrf.occupancy_flags()[new_pcrf:]):
            return  # surrendered PCRF slots still hold live registers
        self.pcrf.resize(new_pcrf)
        self.acrf.resize(self.acrf.capacity + REPARTITION_STEP)
        self.rf_capacity_entries = self.acrf.capacity
        self.repartitions_to_acrf += 1

    # ------------------------------------------------------------------
    def extras(self) -> dict:
        extras = super().extras()
        extras["repartitions_to_acrf"] = self.repartitions_to_acrf
        extras["repartitions_to_pcrf"] = self.repartitions_to_pcrf
        return extras
