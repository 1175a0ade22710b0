"""Active-CTA register file (ACRF) allocator.

The ACRF behaves like the baseline register file: each active CTA gets its
full static allocation (``warps x regs_per_thread`` warp-registers) for the
duration of its residence in the active region.  Allocation is tracked at
CTA granularity -- FineReg never subdivides an active CTA's registers, only
the *pending* copy in the PCRF is reduced to live registers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class ACRFAllocator:
    """Capacity-tracking allocator for the active-CTA register region."""

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise ValueError("ACRF capacity must be positive")
        self._capacity = capacity_entries
        self._allocated: Dict[int, int] = {}
        # Sum of ``_allocated``, kept as allocations come and go.
        self._used = 0
        #: MetricsRegistry installed by repro.obs.telemetry (None = off).
        self.telemetry: Optional["MetricsRegistry"] = None
        #: Test-only fault injection (mutation self-test): when non-zero,
        #: every release leaks this many entries into a phantom allocation.
        self.fault_leak_on_release = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self._capacity - self._used

    @property
    def resident_ctas(self) -> int:
        return len(self._allocated)

    def holds(self, cta_id: int) -> bool:
        return cta_id in self._allocated

    def can_allocate(self, entries: int) -> bool:
        return entries <= self.free

    def allocate(self, cta_id: int, entries: int) -> None:
        """Reserve ``entries`` warp-registers for a CTA entering the ACRF."""
        if entries <= 0:
            raise ValueError("allocation must be positive")
        if cta_id in self._allocated:
            raise KeyError(f"CTA {cta_id} already holds ACRF space")
        if entries > self.free:
            raise MemoryError(
                f"ACRF overflow: need {entries}, have {self.free} free"
            )
        self._allocated[cta_id] = entries
        self._used += entries
        if self.telemetry is not None:
            self.telemetry.inc("acrf.allocations")
            self.telemetry.gauge_set("acrf.free_entries", self.free)

    def release(self, cta_id: int) -> int:
        """Free a CTA's registers (it finished or moved to the PCRF)."""
        if cta_id not in self._allocated:
            raise KeyError(f"CTA {cta_id} holds no ACRF space")
        freed = self._allocated.pop(cta_id)
        self._used -= freed
        if self.fault_leak_on_release:
            # Deliberate accounting leak, keyed off the real ID space.
            phantom = -(cta_id + 1)
            self._used += (self.fault_leak_on_release
                           - self._allocated.get(phantom, 0))
            self._allocated[phantom] = self.fault_leak_on_release
        if self.telemetry is not None:
            self.telemetry.inc("acrf.releases")
            self.telemetry.gauge_set("acrf.free_entries", self.free)
        return freed

    def allocation_of(self, cta_id: int) -> int:
        return self._allocated[cta_id]

    def allocations(self) -> Dict[int, int]:
        """Copy of the per-CTA allocation map (sanitizer view)."""
        return dict(self._allocated)

    def utilization(self) -> float:
        return self.used / self._capacity

    def resize(self, new_capacity: int) -> None:
        """Repartition support: grow or shrink the active region.

        Shrinking below the currently allocated amount is refused -- the
        caller must wait for CTAs to drain first.
        """
        if new_capacity <= 0:
            raise ValueError("ACRF capacity must stay positive")
        if new_capacity < self.used:
            raise MemoryError(
                f"cannot shrink ACRF to {new_capacity}: {self.used} in use"
            )
        self._capacity = new_capacity
