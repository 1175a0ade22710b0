"""RegMutex [17]: inter-warp register time-sharing (VT+RegMutex variant).

The register file is split into a base-register-set (BRS) region -- each warp
statically owns ``brs`` registers -- and a shared register pool (SRP).  When
a warp executes through a region of the program whose live-register demand
exceeds its BRS, it must hold an SRP lease for the excess.  Leases are NOT
released while the warp is stalled on long-latency memory (the pathology the
paper measures in Fig 14): a stalled warp keeps its lease and can starve
runnable warps out of the SRP.

Following the paper's methodology we merge Virtual Thread into RegMutex
(launch-past-the-limit + CTA switching) and expose the SRP/BRS ratio so the
harness can sweep for each application's best operating point.

CTA switching interacts with leases: a CTA that goes pending keeps its SRP
leases (its registers stay resident), which is precisely why contention
builds up under memory-intensive workloads.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.liveness import LivenessTable
from repro.policies.virtual_thread import VirtualThreadPolicy

#: Cycles a warp waits before re-requesting SRP space.
SRP_RETRY_INTERVAL = 20

#: Default fraction of the register file dedicated to the SRP.
DEFAULT_SRP_RATIO = 0.28

#: SRP allocation granularity in warp-registers.  RegMutex hands out
#: register *blocks*, not individual registers, so a warp needing any
#: register beyond its BRS occupies at least one whole block.
SRP_BLOCK = 8


class RegMutexPolicy(VirtualThreadPolicy):
    """VT+RegMutex: BRS/SRP register split with lease-based overflow."""

    name = "vt_regmutex"
    needs_issue_hook = True

    def __init__(self, sm, srp_ratio: float = DEFAULT_SRP_RATIO,
                 brs_ratio: float = 0.6) -> None:
        super().__init__(sm)
        if not 0.0 < srp_ratio < 1.0:
            raise ValueError("SRP ratio must be in (0, 1)")
        if not 0.0 < brs_ratio <= 1.0:
            raise ValueError("BRS ratio must be in (0, 1]")
        self.srp_ratio = srp_ratio
        self.brs_ratio = brs_ratio
        total = self.config.rf_warp_registers
        self.srp_capacity = int(total * srp_ratio)
        self.brs_capacity = total - self.srp_capacity
        # Each warp statically owns only ``brs_ratio`` of its architectural
        # registers; the rest must be leased from the SRP on demand.  This
        # is RegMutex's capacity gain: CTAs/SM grows by (1-srp)/brs.
        # Per-launch BRS sizes: each resident kernel's warps own a BRS cut
        # from its own architectural register count.
        launches = sm.gpu.launches
        self._brs_by_index = tuple(
            max(1, math.ceil(l.regs_per_thread * brs_ratio))
            for l in launches)
        self.rf_capacity_entries = self.brs_capacity
        self.srp_free = self.srp_capacity
        self._leases: Dict[int, int] = {}   # global_warp_id -> held registers
        self._srp_blocked = 0
        self.srp_acquires = 0
        self.srp_denials = 0
        # Per-static-instruction SRP demand: live registers whose index
        # falls above the owning warp's BRS (they physically live in the
        # SRP).  Indexed by the SM's concatenated static-index space.
        liveness: LivenessTable = sm.gpu.liveness
        demand = []
        for launch in launches:
            brs = self._brs_by_index[launch.index]
            base = launch.index_base
            demand.extend(
                bin(liveness.live_at_index(base + i).bits >> brs).count("1")
                for i in range(launch.num_instructions))
        self._extra_demand = tuple(demand)

    def _launch_regs(self, launch) -> int:
        """BRS footprint of one CTA of ``launch`` (the SRP is leased)."""
        return launch.warps_per_cta * self._brs_by_index[launch.index]

    # ------------------------------------------------------------------
    # Per-instruction SRP leasing
    # ------------------------------------------------------------------
    def on_issue(self, warp, static_index: int, now: int) -> bool:
        demand = self._extra_demand[static_index]
        gid = warp.global_warp_id
        held = self._leases.get(gid, 0)
        if demand == 0:
            if held:
                self.srp_free += held
                del self._leases[gid]
            return True
        # Block-granular allocation: round the excess up to whole blocks.
        demand = -(-demand // SRP_BLOCK) * SRP_BLOCK
        if demand <= held:
            return True
        need = demand - held
        if need <= self.srp_free:
            self.srp_free -= need
            self._leases[gid] = demand
            self.srp_acquires += 1
            return True
        # SRP exhausted: the warp must wait and retry.
        warp.blocked_until = now + SRP_RETRY_INTERVAL
        self._srp_blocked += 1
        self.srp_denials += 1
        return False

    # ------------------------------------------------------------------
    def classify_idle(self, dt: int) -> str:
        if self.srp_free == 0 or self._srp_blocked > 0:
            self._srp_blocked = 0
            return "srp"
        return super().classify_idle(dt)

    def on_cta_finished(self, cta, now: int) -> None:
        # Release any leases warps of this CTA still hold.
        for warp in cta.warps:
            held = self._leases.pop(warp.global_warp_id, None)
            if held:
                self.srp_free += held
        super().on_cta_finished(cta, now)

    def extras(self) -> dict:
        return {
            "srp_ratio": self.srp_ratio,
            "srp_acquires": self.srp_acquires,
            "srp_denials": self.srp_denials,
        }
