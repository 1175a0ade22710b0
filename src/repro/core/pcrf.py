"""Pending-CTA register file (PCRF) with chained tags (paper V-D/V-E).

Each PCRF entry holds one 128-byte warp-register plus a 21-bit tag:

    valid (1) | end (1) | next register pointer (10) | warp ID (5) |
    register index (6)  ... minus one shared bit of encoding slack

The live registers of a pending CTA form a singly linked chain through the
``next`` pointers; the PCRF pointer table in the RMU holds the head index per
CTA.  Restores traverse the chain until the ``end`` bit; spills claim free
slots in ascending index order (what the free-space monitor bitmap yields).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

NEXT_POINTER_BITS = 10
WARP_ID_BITS = 5
REGISTER_INDEX_BITS = 6
TAG_BITS = 1 + 1 + NEXT_POINTER_BITS + WARP_ID_BITS + REGISTER_INDEX_BITS  # 23
# The paper quotes 21 bits/tag; it packs valid+end with the pointer encoding.
PAPER_TAG_BITS = 21


@dataclass
class PCRFEntryTag:
    """Tag fields of one occupied PCRF entry."""

    valid: bool
    end: bool
    next_index: int
    warp_id: int
    register_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.next_index < (1 << NEXT_POINTER_BITS):
            raise ValueError("next pointer exceeds 10 bits")
        if not 0 <= self.warp_id < (1 << WARP_ID_BITS):
            raise ValueError("warp ID exceeds 5 bits")
        if not 0 <= self.register_index < (1 << REGISTER_INDEX_BITS):
            raise ValueError("register index exceeds 6 bits")


@dataclass(frozen=True)
class SpillResult:
    """Outcome of spilling one CTA's live registers into the PCRF."""

    head_index: int
    entries_used: int
    slots: Tuple[int, ...]


class PCRF:
    """The pending-CTA register region."""

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise ValueError("PCRF capacity must be positive")
        if capacity_entries > (1 << NEXT_POINTER_BITS):
            raise ValueError(
                f"PCRF capacity {capacity_entries} not addressable by a "
                f"{NEXT_POINTER_BITS}-bit next pointer"
            )
        self._capacity = capacity_entries
        self._tags: List[Optional[PCRFEntryTag]] = [None] * capacity_entries
        # Free-space monitor: 1-bit occupancy flags (paper V-C).
        self._occupied = [False] * capacity_entries
        self._free_count = capacity_entries
        self._head_of_cta: Dict[int, int] = {}
        self._count_of_cta: Dict[int, int] = {}
        #: MetricsRegistry installed by repro.obs.telemetry (None = off).
        self.telemetry: Optional["MetricsRegistry"] = None
        #: Test-only fault injection (mutation self-test): when True, each
        #: restore under-credits the free-space monitor by one slot.
        self.fault_leak_on_restore = False

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def free_entries(self) -> int:
        return self._free_count

    @property
    def used_entries(self) -> int:
        return self._capacity - self._free_count

    @property
    def resident_ctas(self) -> int:
        return len(self._head_of_cta)

    def holds(self, cta_id: int) -> bool:
        return cta_id in self._head_of_cta

    def live_count_of(self, cta_id: int) -> int:
        return self._count_of_cta[cta_id]

    def occupancy_flags(self) -> Tuple[bool, ...]:
        """Free-space monitor contents (True = occupied)."""
        return tuple(self._occupied)

    def occupied_count(self) -> int:
        """Ground-truth occupied-slot count (recount, not the monitor)."""
        return sum(1 for flag in self._occupied if flag)

    def resident_cta_ids(self) -> set:
        """IDs of all CTAs currently holding PCRF chains."""
        return set(self._head_of_cta)

    def free_entries_with_eviction_of(self, cta_id: Optional[int]) -> int:
        """Free slots available if ``cta_id`` were restored out first.

        This is the paper's V-E rule: the RMU adds the count of readily empty
        slots to the ones that would become available if the selected pending
        CTA moves out.
        """
        extra = self._count_of_cta.get(cta_id, 0) if cta_id is not None else 0
        return self._free_count + extra

    # ------------------------------------------------------------------
    def spill(self, cta_id: int,
              live_registers: Sequence[Tuple[int, int]]) -> SpillResult:
        """Store a stalled CTA's live registers.

        ``live_registers`` is a sequence of (warp_id, register_index) pairs,
        one per live warp-register.  Slots are claimed in ascending order and
        linked through the next pointers, last entry carrying the end bit.
        """
        if cta_id in self._head_of_cta:
            raise KeyError(f"CTA {cta_id} already resides in the PCRF")
        if not live_registers:
            raise ValueError("cannot spill an empty live set")
        needed = len(live_registers)
        if needed > self._free_count:
            raise MemoryError(
                f"PCRF overflow: need {needed}, have {self._free_count} free"
            )
        slots = self._claim_slots(needed)
        for position, (slot, (warp_id, reg_index)) in enumerate(
                zip(slots, live_registers)):
            is_last = position == needed - 1
            next_index = slots[position + 1] if not is_last else slot
            self._tags[slot] = PCRFEntryTag(
                valid=True,
                end=is_last,
                next_index=next_index,
                warp_id=warp_id,
                register_index=reg_index,
            )
        self._head_of_cta[cta_id] = slots[0]
        self._count_of_cta[cta_id] = needed
        if self.telemetry is not None:
            self.telemetry.inc("pcrf.spills")
            self.telemetry.observe("pcrf.spill_registers", needed)
            self.telemetry.gauge_set("pcrf.free_entries", self._free_count)
        return SpillResult(head_index=slots[0], entries_used=needed,
                           slots=tuple(slots))

    def restore(self, cta_id: int) -> Tuple[Tuple[int, int], ...]:
        """Read back a pending CTA's live registers and free its entries.

        Returns the (warp_id, register_index) pairs in chain order, obtained
        by traversing the next pointers from the head entry to the end bit.
        """
        if cta_id not in self._head_of_cta:
            raise KeyError(f"CTA {cta_id} does not reside in the PCRF")
        index = self._head_of_cta.pop(cta_id)
        expected = self._count_of_cta.pop(cta_id)
        registers: List[Tuple[int, int]] = []
        for _ in range(expected):
            tag = self._tags[index]
            if tag is None or not tag.valid:
                raise RuntimeError(f"broken PCRF chain at slot {index}")
            registers.append((tag.warp_id, tag.register_index))
            self._tags[index] = None
            self._occupied[index] = False
            self._free_count += 1
            if tag.end:
                break
            index = tag.next_index
        if len(registers) != expected:
            raise RuntimeError(
                f"PCRF chain for CTA {cta_id} yielded {len(registers)} "
                f"entries, expected {expected}"
            )
        if self.fault_leak_on_restore and registers:
            self._free_count -= 1
        if self.telemetry is not None:
            self.telemetry.inc("pcrf.restores")
            self.telemetry.observe("pcrf.restore_registers", len(registers))
            self.telemetry.gauge_set("pcrf.free_entries", self._free_count)
        return tuple(registers)

    def peek_chain(self, cta_id: int) -> Tuple[int, ...]:
        """Slot indices of a pending CTA's chain, without freeing it."""
        if cta_id not in self._head_of_cta:
            raise KeyError(f"CTA {cta_id} does not reside in the PCRF")
        index = self._head_of_cta[cta_id]
        slots: List[int] = []
        for _ in range(self._count_of_cta[cta_id]):
            slots.append(index)
            tag = self._tags[index]
            if tag is None:
                raise RuntimeError(f"broken PCRF chain at slot {index}")
            if tag.end:
                break
            index = tag.next_index
        return tuple(slots)

    def tag_at(self, slot: int) -> Optional[PCRFEntryTag]:
        return self._tags[slot]

    def resize(self, new_capacity: int) -> None:
        """Repartition support: grow or shrink the pending region.

        Shrinking requires the slots being surrendered (the top of the
        array) to be empty; spills always claim the lowest free slots, so
        the top drains first under normal operation.
        """
        if new_capacity <= 0:
            raise ValueError("PCRF capacity must stay positive")
        if new_capacity > (1 << NEXT_POINTER_BITS):
            raise ValueError(
                f"PCRF capacity {new_capacity} not addressable by a "
                f"{NEXT_POINTER_BITS}-bit next pointer"
            )
        if new_capacity < self._capacity:
            if any(self._occupied[new_capacity:]):
                raise MemoryError(
                    "cannot shrink PCRF: surrendered slots are occupied"
                )
            self._tags = self._tags[:new_capacity]
            self._occupied = self._occupied[:new_capacity]
        else:
            grow = new_capacity - self._capacity
            self._tags.extend([None] * grow)
            self._occupied.extend([False] * grow)
        self._free_count = new_capacity - sum(self._occupied)
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    def _claim_slots(self, count: int) -> List[int]:
        slots: List[int] = []
        for index, occupied in enumerate(self._occupied):
            if not occupied:
                slots.append(index)
                if len(slots) == count:
                    break
        for slot in slots:
            self._occupied[slot] = True
        self._free_count -= count
        return slots
