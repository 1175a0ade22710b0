"""Pending-CTA register file (PCRF) with chained tags (paper V-D/V-E).

Each PCRF entry holds one 128-byte warp-register plus a 21-bit tag:

    valid (1) | end (1) | next register pointer (10) | warp ID (5) |
    register index (6)  ... minus one shared bit of encoding slack

The live registers of a pending CTA form a singly linked chain through the
``next`` pointers; the PCRF pointer table in the RMU holds the head index per
CTA.  Restores traverse the chain until the ``end`` bit; spills claim free
slots in ascending index order (what the free-space monitor bitmap yields).

Representation.  The model keeps what the tags encode, not one tag object
per entry: each pending CTA's chain is its slot list in link order plus the
``(warp_id, register_index)`` pairs those slots hold, beside the free-space
monitor (one occupancy byte per slot) and the free slots in ascending order.
The tag of a chained slot follows from its position in the list: valid is
set, the next pointer is the following slot, the last slot carries the end
bit (and points at itself), and the warp ID and register index are that
position's pair.  :meth:`PCRF.tag_at` builds the :class:`PCRFEntryTag` from
the chain when asked; a spill checks every field width before it claims a
slot, so a rejected spill leaves the PCRF as it was.

Slot positions.  A spill takes the lowest free slots, the ones a scan of the
occupancy bitmap from slot 0 finds first, so every chain lands in the slots
the per-entry model chose and each chain's slot list is ascending.  That is
what keeps the top of the array draining first: finereg_adaptive may shrink
the PCRF only when the surrendered top slots are free, so the slots chosen
decide when a repartition happens, and with it the simulated results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

NEXT_POINTER_BITS = 10
WARP_ID_BITS = 5
REGISTER_INDEX_BITS = 6
TAG_BITS = 1 + 1 + NEXT_POINTER_BITS + WARP_ID_BITS + REGISTER_INDEX_BITS  # 23
# The paper quotes 21 bits/tag; it packs valid+end with the pointer encoding.
PAPER_TAG_BITS = 21

_WARP_LIMIT = 1 << WARP_ID_BITS
_REGISTER_LIMIT = 1 << REGISTER_INDEX_BITS


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
        if not 0 <= self.warp_id < _WARP_LIMIT:
            raise ValueError("warp ID exceeds 5 bits")
        if not 0 <= self.register_index < _REGISTER_LIMIT:
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
        _check_capacity(capacity_entries)
        self._capacity = capacity_entries
        # Free-space monitor: one occupancy byte per slot (paper V-C), and
        # the free slots in ascending order, so a spill takes the lowest
        # without a scan.
        self._occupied = bytearray(capacity_entries)
        self._free_slots: List[int] = list(range(capacity_entries))
        self._free_count = capacity_entries
        # Per pending CTA: its slots in link order and the
        # (warp_id, register_index) pair each one holds.
        self._chains: Dict[int, Tuple[List[int],
                                      Tuple[Tuple[int, int], ...]]] = {}
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
        return len(self._chains)

    def holds(self, cta_id: int) -> bool:
        return cta_id in self._chains

    def live_count_of(self, cta_id: int) -> int:
        return len(self._chains[cta_id][0])

    def occupancy_flags(self) -> Tuple[bool, ...]:
        """Free-space monitor contents (True = occupied)."""
        return tuple(map(bool, self._occupied))

    def occupied_count(self) -> int:
        """Ground-truth occupied-slot count (recount, not the monitor)."""
        return self._occupied.count(1)

    def resident_cta_ids(self) -> Set[int]:
        """IDs of all CTAs currently holding PCRF chains."""
        return set(self._chains)

    def free_entries_with_eviction_of(self, cta_id: Optional[int]) -> int:
        """Free slots available if ``cta_id`` were restored out first.

        This is the paper's V-E rule: the RMU adds the count of readily empty
        slots to the ones that would become available if the selected pending
        CTA moves out.
        """
        chain = self._chains.get(cta_id) if cta_id is not None else None
        extra = len(chain[0]) if chain is not None else 0
        return self._free_count + extra

    # ------------------------------------------------------------------
    def spill(self, cta_id: int,
              live_registers: Sequence[Tuple[int, int]]) -> SpillResult:
        """Store a stalled CTA's live registers.

        ``live_registers`` is a sequence of (warp_id, register_index) pairs,
        one per live warp-register.  Slots are claimed in ascending order and
        linked through the next pointers, last entry carrying the end bit.
        Every check runs before a slot is claimed.
        """
        if cta_id in self._chains:
            raise KeyError(f"CTA {cta_id} already resides in the PCRF")
        if not live_registers:
            raise ValueError("cannot spill an empty live set")
        needed = len(live_registers)
        if needed > self._free_count:
            raise MemoryError(
                f"PCRF overflow: need {needed}, have {self._free_count} free"
            )
        warp_ids, register_indices = zip(*live_registers)
        if min(warp_ids) < 0 or max(warp_ids) >= _WARP_LIMIT:
            raise ValueError("warp ID exceeds 5 bits")
        if min(register_indices) < 0 \
                or max(register_indices) >= _REGISTER_LIMIT:
            raise ValueError("register index exceeds 6 bits")
        free = self._free_slots
        slots = free[:needed]
        del free[:needed]
        occupied = self._occupied
        for slot in slots:
            occupied[slot] = 1
        self._free_count -= needed
        self._chains[cta_id] = (slots, tuple(zip(warp_ids, register_indices)))
        if self.telemetry is not None:
            self.telemetry.inc("pcrf.spills")
            self.telemetry.observe("pcrf.spill_registers", needed)
            self.telemetry.gauge_set("pcrf.free_entries", self._free_count)
        return SpillResult(head_index=slots[0], entries_used=needed,
                           slots=tuple(slots))

    def restore(self, cta_id: int) -> Tuple[Tuple[int, int], ...]:
        """Read back a pending CTA's live registers and free its entries.

        Returns the (warp_id, register_index) pairs in chain order, from the
        head entry to the one carrying the end bit.
        """
        slots = self._chain_slots(cta_id)
        registers = self._chains.pop(cta_id)[1]
        occupied = self._occupied
        for slot in slots:
            occupied[slot] = 0
        # Both lists are ascending, so the sort is one linear merge.
        self._free_slots = sorted(self._free_slots + slots)
        self._free_count += len(slots)
        if self.fault_leak_on_restore:
            self._free_count -= 1
        if self.telemetry is not None:
            self.telemetry.inc("pcrf.restores")
            self.telemetry.observe("pcrf.restore_registers", len(registers))
            self.telemetry.gauge_set("pcrf.free_entries", self._free_count)
        return registers

    def peek_chain(self, cta_id: int) -> Tuple[int, ...]:
        """Slot indices of a pending CTA's chain, without freeing it."""
        return tuple(self._chain_slots(cta_id))

    def tag_at(self, slot: int) -> Optional[PCRFEntryTag]:
        """The tag of ``slot``, built from the chain that holds it (None for
        a slot no chain holds)."""
        slot = range(self._capacity)[slot]  # IndexError past the array
        for slots, registers in self._chains.values():
            if slot in slots:
                position = slots.index(slot)
                end = position == len(slots) - 1
                warp_id, register_index = registers[position]
                return PCRFEntryTag(
                    valid=True, end=end,
                    next_index=slot if end else slots[position + 1],
                    warp_id=warp_id, register_index=register_index)
        return None

    def resize(self, new_capacity: int) -> None:
        """Repartition support: grow or shrink the pending region.

        Shrinking requires the slots being surrendered (the top of the
        array) to be empty; spills always claim the lowest free slots, so
        the top drains first under normal operation.
        """
        _check_capacity(new_capacity)
        if new_capacity < self._capacity:
            if any(self._occupied[new_capacity:]):
                raise MemoryError(
                    "cannot shrink PCRF: surrendered slots are occupied"
                )
            del self._occupied[new_capacity:]
            free = self._free_slots
            del free[bisect_left(free, new_capacity):]
        else:
            self._occupied.extend(bytes(new_capacity - self._capacity))
            self._free_slots.extend(range(self._capacity, new_capacity))
        self._free_count = new_capacity - self._occupied.count(1)
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    def _chain_slots(self, cta_id: int) -> List[int]:
        """A pending CTA's slot list, checked against the free-space
        monitor: a chain slot the monitor marks free is a broken chain."""
        if cta_id not in self._chains:
            raise KeyError(f"CTA {cta_id} does not reside in the PCRF")
        slots = self._chains[cta_id][0]
        occupied = self._occupied
        for slot in slots:
            if not occupied[slot]:
                raise RuntimeError(f"broken PCRF chain at slot {slot}")
        return slots


def _check_capacity(capacity: int) -> None:
    if capacity <= 0:
        raise ValueError("PCRF capacity must be positive")
    if capacity > (1 << NEXT_POINTER_BITS):
        raise ValueError(
            f"PCRF capacity {capacity} not addressable by a "
            f"{NEXT_POINTER_BITS}-bit next pointer"
        )
