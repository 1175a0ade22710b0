"""Property-based tests (hypothesis) for the core data structures.

These pin down the algebraic invariants the microarchitecture relies on:
bit-vector set algebra, liveness-vs-interpreter agreement, PCRF chain
round-trips under arbitrary interleavings, cache inclusion of the most
recent access, and allocator conservation.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.acrf import ACRFAllocator
from repro.core.bitvector import LiveBitVector
from repro.core.bitvector_cache import BitVectorCache
from repro.core.liveness import LivenessAnalysis
from repro.core.pcrf import PCRF, PCRFEntryTag, SpillResult
from repro.isa.cfg import ControlFlowGraph, EdgeKind
from repro.isa.instructions import Instruction, Opcode
from repro.memory.cache import Cache
from repro.memory.dram import DRAM

registers = st.sets(st.integers(min_value=0, max_value=63), max_size=16)


# ----------------------------------------------------------------------
# LiveBitVector algebra
# ----------------------------------------------------------------------
class TestBitVectorProperties:
    @given(registers)
    def test_round_trip(self, regs):
        vec = LiveBitVector.from_registers(regs)
        assert set(vec.registers()) == regs
        assert vec.count() == len(regs)

    @given(registers, registers)
    def test_union_is_set_union(self, a, b):
        va, vb = map(LiveBitVector.from_registers, (a, b))
        assert set((va | vb).registers()) == a | b

    @given(registers, registers)
    def test_minus_is_set_difference(self, a, b):
        va, vb = map(LiveBitVector.from_registers, (a, b))
        assert set((va - vb).registers()) == a - b

    @given(registers, registers)
    def test_intersect_is_set_intersection(self, a, b):
        va, vb = map(LiveBitVector.from_registers, (a, b))
        assert set((va & vb).registers()) == a & b

    @given(registers, st.integers(min_value=0, max_value=63))
    def test_with_without_inverse(self, regs, reg):
        vec = LiveBitVector.from_registers(regs)
        assert vec.with_register(reg).without_register(reg) \
            == vec.without_register(reg)


# ----------------------------------------------------------------------
# Liveness vs. a reference interpreter
# ----------------------------------------------------------------------
def random_straightline(seed: int, length: int):
    """A random straight-line program over 8 registers."""
    rng = random.Random(seed)
    instrs = []
    for __ in range(length):
        dest = rng.randrange(8)
        srcs = tuple(rng.sample(range(8), rng.randint(1, 2)))
        instrs.append(Instruction(Opcode.IALU, dest, srcs))
    cfg = ControlFlowGraph()
    cfg.add_block(instrs, EdgeKind.FALLTHROUGH, successors=(1,))
    cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
    return cfg.freeze()


def reference_live_in(cfg, index):
    """Brute-force liveness: walk forward from `index` and collect reads
    that happen before the register is overwritten."""
    live = set()
    killed = set()
    for instr in cfg.instructions[index:]:
        for src in instr.srcs:
            if src not in killed:
                live.add(src)
        if instr.dest is not None:
            killed.add(instr.dest)
    return live


class TestLivenessProperties:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_interpreter(self, seed, length):
        cfg = random_straightline(seed, length)
        table = LivenessAnalysis(cfg).run(8)
        for index in range(cfg.num_instructions):
            expected = reference_live_in(cfg, index)
            assert set(table.live_at_index(index).registers()) == expected

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_live_never_exceeds_named_registers(self, seed):
        cfg = random_straightline(seed, 20)
        table = LivenessAnalysis(cfg).run(8)
        named = set(cfg.registers_used())
        for index in range(cfg.num_instructions):
            assert set(table.live_at_index(index).registers()) <= named


# ----------------------------------------------------------------------
# PCRF chains
# ----------------------------------------------------------------------
live_sets = st.lists(
    st.tuples(st.integers(min_value=0, max_value=31),
              st.integers(min_value=0, max_value=63)),
    min_size=1, max_size=12)


class TestPCRFProperties:
    @given(st.lists(live_sets, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_round_trips(self, cta_lives):
        total = sum(len(lv) for lv in cta_lives)
        pcrf = PCRF(max(16, total))
        for cta_id, live in enumerate(cta_lives):
            pcrf.spill(cta_id, live)
        # Restore in reverse order: chains must be independent.
        for cta_id in reversed(range(len(cta_lives))):
            assert list(pcrf.restore(cta_id)) == cta_lives[cta_id]
        assert pcrf.free_entries == pcrf.capacity

    @given(live_sets, live_sets)
    @settings(max_examples=60, deadline=None)
    def test_free_space_conservation(self, a, b):
        pcrf = PCRF(64)
        pcrf.spill(0, a)
        pcrf.spill(1, b)
        assert pcrf.used_entries == len(a) + len(b)
        pcrf.restore(0)
        assert pcrf.used_entries == len(b)
        occupied = sum(pcrf.occupancy_flags())
        assert occupied == pcrf.used_entries


class PerEntryPCRF:
    """The per-entry PCRF model the chain representation replaced: one tag
    object per slot, slots claimed by a scan of the occupancy flags from
    slot 0, and every check before the first slot is claimed."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.tags = [None] * capacity
        self.occupied = [False] * capacity
        self.free_entries = capacity
        self.head = {}
        self.count = {}

    @property
    def used_entries(self) -> int:
        return self.capacity - self.free_entries

    def occupancy_flags(self):
        return tuple(self.occupied)

    def resident_cta_ids(self):
        return set(self.head)

    def tag_at(self, slot):
        return self.tags[slot]

    def spill(self, cta_id, live):
        if cta_id in self.head:
            raise KeyError(cta_id)
        if not live:
            raise ValueError("empty live set")
        needed = len(live)
        if needed > self.free_entries:
            raise MemoryError(needed)
        for warp_id, register_index in live:
            if not (0 <= warp_id < 32 and 0 <= register_index < 64):
                raise ValueError((warp_id, register_index))
        slots = [slot for slot, taken in enumerate(self.occupied)
                 if not taken][:needed]
        for position, (slot, (warp_id, register_index)) in enumerate(
                zip(slots, live)):
            end = position == needed - 1
            self.tags[slot] = PCRFEntryTag(
                True, end, slot if end else slots[position + 1], warp_id,
                register_index)
            self.occupied[slot] = True
        self.free_entries -= needed
        self.head[cta_id] = slots[0]
        self.count[cta_id] = needed
        return SpillResult(slots[0], needed, tuple(slots))

    def peek_chain(self, cta_id):
        if cta_id not in self.head:
            raise KeyError(cta_id)
        index, slots = self.head[cta_id], []
        for __ in range(self.count[cta_id]):
            slots.append(index)
            if self.tags[index].end:
                break
            index = self.tags[index].next_index
        return tuple(slots)

    def restore(self, cta_id):
        slots = self.peek_chain(cta_id)
        del self.head[cta_id], self.count[cta_id]
        pairs = []
        for slot in slots:
            tag = self.tags[slot]
            pairs.append((tag.warp_id, tag.register_index))
            self.tags[slot] = None
            self.occupied[slot] = False
        self.free_entries += len(slots)
        return tuple(pairs)

    def resize(self, new_capacity):
        if not 0 < new_capacity <= 1024:
            raise ValueError(new_capacity)
        if new_capacity < self.capacity:
            if any(self.occupied[new_capacity:]):
                raise MemoryError(new_capacity)
            del self.tags[new_capacity:], self.occupied[new_capacity:]
        else:
            grow = new_capacity - self.capacity
            self.tags += [None] * grow
            self.occupied += [False] * grow
        self.free_entries = new_capacity - sum(self.occupied)
        self.capacity = new_capacity


def pcrf_state(pcrf) -> tuple:
    """Everything a PCRF shows: every slot's tag, the free-space monitor,
    the counts, the resident CTAs and each one's chain."""
    ids = pcrf.resident_cta_ids()
    return ([pcrf.tag_at(slot) for slot in range(pcrf.capacity)],
            pcrf.occupancy_flags(), pcrf.free_entries, pcrf.used_entries,
            ids, {cta_id: pcrf.peek_chain(cta_id) for cta_id in ids})


def outcome(call):
    """What one operation returned, or the type of what it raised."""
    try:
        return "returned", call()
    except Exception as exc:  # compared by type across both models
        return "raised", type(exc)


#: Mostly valid (warp_id, register_index) pairs, with the first values
#: past each field's width and below zero mixed in.
tag_fields = st.tuples(
    st.one_of(st.integers(0, 31), st.sampled_from((-1, 32))),
    st.one_of(st.integers(0, 63), st.sampled_from((-1, 64))))
#: CTA ids 0-5, so restores of absent CTAs and duplicate spills occur;
#: live sets up to 14 against capacities up to 40, so spills overflow;
#: resizes include 0 and 1025, which no PCRF accepts.
pcrf_ops = st.lists(st.one_of(
    st.tuples(st.just("spill"), st.integers(0, 5),
              st.lists(tag_fields, max_size=14)),
    st.tuples(st.just("restore"), st.integers(0, 5)),
    st.tuples(st.just("resize"),
              st.one_of(st.integers(1, 40), st.sampled_from((0, 1025))))),
    max_size=40)


class TestPCRFAgainstPerEntryModel:
    @given(st.integers(min_value=1, max_value=40), pcrf_ops)
    @settings(max_examples=300, deadline=None)
    def test_every_operation_matches_the_per_entry_model(self, capacity,
                                                          ops):
        pcrf, model = PCRF(capacity), PerEntryPCRF(capacity)
        for step, (name, *args) in enumerate(ops):
            got = outcome(lambda: getattr(pcrf, name)(*args))
            want = outcome(lambda: getattr(model, name)(*args))
            assert got == want, f"op {step} {name}{tuple(args)}"
            assert pcrf_state(pcrf) == pcrf_state(model), (
                f"state after op {step} {name}{tuple(args)}")


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
addresses = st.lists(st.integers(min_value=0, max_value=1 << 20),
                     min_size=1, max_size=200)


class TestCacheProperties:
    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_most_recent_line_always_resident(self, addrs):
        cache = Cache("p", 8 * 2 * 128, 2, 128)
        for addr in addrs:
            cache.access(addr)
            assert cache.probe(addr)

    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded(self, addrs):
        cache = Cache("p", 4 * 2 * 128, 2, 128)
        for addr in addrs:
            cache.access(addr)
        occ = cache.occupancy()
        assert occ["lines"] <= occ["capacity"]

    @given(addresses)
    @settings(max_examples=50, deadline=None)
    def test_stats_add_up(self, addrs):
        cache = Cache("p", 4 * 2 * 128, 2, 128)
        for addr in addrs:
            cache.access(addr)
        assert cache.stats.accesses == len(addrs)


class TestBitVectorCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=4000), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_fill_then_lookup_hits(self, pcs):
        cache = BitVectorCache(8)
        vec = LiveBitVector.from_registers([1])
        for pc in pcs:
            pc *= 4
            cache.fill(pc, vec)
            assert cache.lookup(pc) == vec


# ----------------------------------------------------------------------
# DRAM monotonicity
# ----------------------------------------------------------------------
class TestDRAMProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.integers(min_value=1, max_value=4096)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_completions_monotone_for_sorted_arrivals(self, reqs):
        dram = DRAM(16.0, 100)
        last = 0
        for now, nbytes in sorted(reqs):
            done = dram.request(now, nbytes)
            assert done >= now + 100
            assert done >= last   # FIFO channel never reorders
            last = done

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_traffic_accounting_exact(self, sizes):
        dram = DRAM(16.0, 100)
        for nbytes in sizes:
            dram.request(0, nbytes)
        assert dram.stats.total_bytes == sum(sizes)


# ----------------------------------------------------------------------
# ACRF conservation
# ----------------------------------------------------------------------
class TestACRFProperties:
    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_allocate_release_conserves(self, sizes):
        acrf = ACRFAllocator(4096)
        allocated = {}
        for cta_id, size in enumerate(sizes):
            if acrf.can_allocate(size):
                acrf.allocate(cta_id, size)
                allocated[cta_id] = size
        assert acrf.used == sum(allocated.values())
        for cta_id, size in allocated.items():
            assert acrf.release(cta_id) == size
        assert acrf.used == 0
        assert acrf.free == acrf.capacity
