"""Tests for the ACRF allocator and the chained-tag PCRF."""

import pytest

from repro.core.acrf import ACRFAllocator
from repro.core.pcrf import (
    NEXT_POINTER_BITS,
    PAPER_TAG_BITS,
    PCRF,
    PCRFEntryTag,
)


class TestACRFAllocator:
    def test_capacity_tracking(self):
        acrf = ACRFAllocator(100)
        acrf.allocate(1, 40)
        acrf.allocate(2, 40)
        assert acrf.used == 80
        assert acrf.free == 20
        assert acrf.resident_ctas == 2

    def test_overflow_raises(self):
        acrf = ACRFAllocator(100)
        acrf.allocate(1, 90)
        with pytest.raises(MemoryError):
            acrf.allocate(2, 20)

    def test_can_allocate(self):
        acrf = ACRFAllocator(100)
        acrf.allocate(1, 60)
        assert acrf.can_allocate(40)
        assert not acrf.can_allocate(41)

    def test_double_allocation_rejected(self):
        acrf = ACRFAllocator(100)
        acrf.allocate(1, 10)
        with pytest.raises(KeyError):
            acrf.allocate(1, 10)

    def test_release_returns_size(self):
        acrf = ACRFAllocator(100)
        acrf.allocate(5, 30)
        assert acrf.release(5) == 30
        assert acrf.used == 0

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            ACRFAllocator(100).release(9)

    def test_zero_allocation_rejected(self):
        with pytest.raises(ValueError):
            ACRFAllocator(100).allocate(1, 0)

    def test_utilization(self):
        acrf = ACRFAllocator(200)
        acrf.allocate(1, 50)
        assert acrf.utilization() == pytest.approx(0.25)


class TestPCRFTags:
    def test_tag_field_widths(self):
        with pytest.raises(ValueError):
            PCRFEntryTag(True, False, 1 << NEXT_POINTER_BITS, 0, 0)
        with pytest.raises(ValueError):
            PCRFEntryTag(True, False, 0, 32, 0)   # warp id is 5 bits
        with pytest.raises(ValueError):
            PCRFEntryTag(True, False, 0, 0, 64)   # reg index is 6 bits

    def test_paper_tag_bits(self):
        assert PAPER_TAG_BITS == 21

    def test_capacity_addressable(self):
        with pytest.raises(ValueError):
            PCRF(2048)  # not addressable by a 10-bit pointer
        assert PCRF(1024).capacity == 1024


class TestPCRFSpillRestore:
    def test_round_trip_preserves_order(self):
        pcrf = PCRF(16)
        live = [(0, 3), (0, 7), (1, 2), (2, 5)]
        pcrf.spill(42, live)
        assert pcrf.used_entries == 4
        assert pcrf.restore(42) == tuple(live)
        assert pcrf.used_entries == 0

    def test_chain_links_and_end_bit(self):
        pcrf = PCRF(16)
        result = pcrf.spill(1, [(0, 0), (0, 1), (0, 2)])
        slots = result.slots
        for i, slot in enumerate(slots):
            tag = pcrf.tag_at(slot)
            assert tag.valid
            if i < len(slots) - 1:
                assert not tag.end
                assert tag.next_index == slots[i + 1]
            else:
                assert tag.end

    def test_interleaved_ctas_keep_separate_chains(self):
        pcrf = PCRF(16)
        pcrf.spill(1, [(0, 0), (0, 1)])
        pcrf.spill(2, [(1, 5), (1, 6)])
        assert pcrf.restore(1) == ((0, 0), (0, 1))
        assert pcrf.restore(2) == ((1, 5), (1, 6))

    def test_freed_slots_are_reused(self):
        pcrf = PCRF(4)
        pcrf.spill(1, [(0, 0), (0, 1)])
        pcrf.spill(2, [(0, 2), (0, 3)])
        pcrf.restore(1)
        result = pcrf.spill(3, [(1, 0), (1, 1)])
        assert set(result.slots) == {0, 1}

    def test_overflow_raises(self):
        pcrf = PCRF(4)
        with pytest.raises(MemoryError):
            pcrf.spill(1, [(0, r) for r in range(5)])

    def test_duplicate_cta_rejected(self):
        pcrf = PCRF(8)
        pcrf.spill(1, [(0, 0)])
        with pytest.raises(KeyError):
            pcrf.spill(1, [(0, 1)])

    def test_restore_unknown_rejected(self):
        with pytest.raises(KeyError):
            PCRF(8).restore(3)

    def test_empty_spill_rejected(self):
        with pytest.raises(ValueError):
            PCRF(8).spill(1, [])


class TestFreeSpaceMonitor:
    def test_occupancy_flags(self):
        pcrf = PCRF(4)
        pcrf.spill(1, [(0, 0), (0, 1)])
        assert pcrf.occupancy_flags() == (True, True, False, False)

    def test_eviction_credit(self):
        """Paper V-E: free entries include the restored CTA's slots."""
        pcrf = PCRF(4)
        pcrf.spill(1, [(0, 0), (0, 1), (0, 2)])
        assert pcrf.free_entries == 1
        assert pcrf.free_entries_with_eviction_of(1) == 4
        assert pcrf.free_entries_with_eviction_of(None) == 1
        assert pcrf.free_entries_with_eviction_of(99) == 1

    def test_peek_chain_does_not_free(self):
        pcrf = PCRF(8)
        result = pcrf.spill(1, [(0, 0), (0, 1)])
        assert pcrf.peek_chain(1) == result.slots
        assert pcrf.used_entries == 2


class TestRejectedSpill:
    """A spill that raises claims no slot: every check runs first."""

    @staticmethod
    def snapshot(pcrf):
        return (pcrf.free_entries, pcrf.occupancy_flags(),
                pcrf.resident_cta_ids(),
                [pcrf.tag_at(slot) for slot in range(pcrf.capacity)])

    @pytest.mark.parametrize("cta_id, live, error", [
        (2, [(0, 1), (32, 2)], ValueError),
        (2, [(-1, 1)], ValueError),
        (2, [(0, 1), (1, 64)], ValueError),
        (2, [(0, r) for r in range(7)], MemoryError),
        (1, [(0, 1)], KeyError),
        (2, [], ValueError),
    ], ids=["warp-id", "negative-warp-id", "register-index", "overflow",
            "duplicate-cta", "empty"])
    def test_rejected_spill_leaves_pcrf_unchanged(self, cta_id, live,
                                                  error):
        pcrf = PCRF(8)
        pcrf.spill(1, [(0, 0), (1, 5)])
        before = self.snapshot(pcrf)
        with pytest.raises(error):
            pcrf.spill(cta_id, live)
        assert self.snapshot(pcrf) == before
        # The slots a rejected spill would have taken are still the next.
        assert pcrf.spill(2, [(3, 3)]).slots == (2,)

    def test_chain_slot_marked_free_is_a_broken_chain(self):
        pcrf = PCRF(8)
        pcrf.spill(1, [(0, 0), (0, 1), (0, 2)])
        pcrf._occupied[1] = 0
        with pytest.raises(RuntimeError):
            pcrf.peek_chain(1)
        with pytest.raises(RuntimeError):
            pcrf.restore(1)

