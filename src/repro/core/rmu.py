"""Register management unit (paper V-C, Fig 10).

The RMU glues together the five components the paper enumerates:

  i)   live register information cache (``BitVectorCache``),
  ii)  register index decoder (bit vector -> per-warp register indices),
  iii) PCRF pointer table (head slot + live count per pending CTA),
  iv)  free space monitor (occupancy bitmap, owned by the ``PCRF``), and
  v)   PCRF access logic (chained spill/restore with 4-cycle pipelined
       access timing).

The RMU is purely a bookkeeping + timing model: actual schedulability state
lives in the simulator's CTA objects; policies call into the RMU to decide
whether a switch fits and what it costs.

The register index decoder's output for a PC depends only on the kernel, so
the liveness table decodes each static instruction's vector once
(``LivenessTable.registers_at_pc``) and every later switch reuses it; the
bit-vector cache still sees every lookup, so its hits, misses and the miss
latency a switch pays are those of a decode per lookup.  A spill hands the
decoded (warp_id, register_index) pairs to the PCRF, which keeps them with
the chain's slot list and derives each entry's tag from its position in that
list (``repro.core.pcrf``); the pointer table row records the head slot and
the live count the spill returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

from repro.core.bitvector import LiveBitVector
from repro.core.bitvector_cache import BitVectorCache
from repro.core.liveness import LivenessTable
from repro.core.pcrf import PCRF


@dataclass
class RMUStats:
    """Event counters the energy and traffic models consume."""

    spills: int = 0
    restores: int = 0
    spilled_registers: int = 0
    restored_registers: int = 0
    rejected_switches: int = 0

    @property
    def transfers(self) -> int:
        return self.spills + self.restores


@dataclass(frozen=True)
class SwitchCost:
    """Latency/traffic outcome of one RMU transaction."""

    cycles: int
    offchip_bytes: int


@dataclass
class _PointerTableEntry:
    head_slot: int
    live_count: int


class RegisterManagementUnit:
    """Decides and executes register movement between ACRF and PCRF."""

    def __init__(self, pcrf: PCRF, liveness: LivenessTable,
                 cache_entries: int = 32, pcrf_access_latency: int = 4,
                 dram_latency: int = 350) -> None:
        self._pcrf = pcrf
        self._liveness = liveness
        self._cache = BitVectorCache(cache_entries)
        self._access_latency = pcrf_access_latency
        self._dram_latency = dram_latency
        self._pointer_table: Dict[int, _PointerTableEntry] = {}
        self.stats = RMUStats()
        #: MetricsRegistry installed by repro.obs.telemetry (None = off).
        self.telemetry: Optional["MetricsRegistry"] = None
        #: Test-only fault injection (mutation self-test): when True, a
        #: spill claims PCRF space but never records its pointer-table row.
        self.fault_drop_pointer = False

    # ------------------------------------------------------------------
    @property
    def pcrf(self) -> PCRF:
        return self._pcrf

    @property
    def bitvector_cache(self) -> BitVectorCache:
        return self._cache

    def set_liveness(self, liveness: LivenessTable) -> None:
        """Swap the live-register table (new kernel launch)."""
        self._liveness = liveness
        self._cache.flush()

    # ------------------------------------------------------------------
    # Live-set queries
    # ------------------------------------------------------------------
    def live_vector_at(self, pc: int) -> Tuple[LiveBitVector, int]:
        """Fetch the live bit vector for a stalled warp's PC.

        Returns (vector, extra_latency): a cache hit is free, a miss costs a
        DRAM round trip and installs the line.
        """
        cached = self._cache.lookup(pc)
        if cached is not None:
            return cached, 0
        vector = self._liveness.live_at_pc(pc)
        self._cache.fill(pc, vector)
        return vector, self._dram_latency

    def live_set_of(self, warp_pcs: Sequence[Tuple[int, int]]
                    ) -> Tuple[List[Tuple[int, int]], int, int]:
        """Decode the live warp-registers of a stalled CTA.

        ``warp_pcs`` is (warp_id, pc) per unfinished warp.  Returns the
        (warp_id, register_index) pairs (the register index decoder output),
        the accumulated bit-vector fetch latency, and the number of cache
        misses (each fetches a 12-byte vector from off-chip memory).
        """
        live: List[Tuple[int, int]] = []
        extra_latency = 0
        misses = 0
        decode = self._liveness.registers_at_pc
        for warp_id, pc in warp_pcs:
            __, miss_latency = self.live_vector_at(pc)
            if miss_latency:
                misses += 1
                extra_latency += miss_latency
            live.extend([(warp_id, reg) for reg in decode(pc)])
        return live, extra_latency, misses

    def live_count_of(self, warp_pcs: Sequence[Tuple[int, int]]) -> int:
        """Live warp-register count without touching cache counters."""
        decode = self._liveness.registers_at_pc
        return sum(len(decode(pc)) for _, pc in warp_pcs)

    # ------------------------------------------------------------------
    # Switching feasibility (paper V-E free-entry rule)
    # ------------------------------------------------------------------
    def can_spill(self, live_count: int,
                  restoring_cta: Optional[int] = None) -> bool:
        """True if ``live_count`` registers fit in the PCRF, counting the
        slots freed by restoring ``restoring_cta`` out first."""
        free = self._pcrf.free_entries_with_eviction_of(restoring_cta)
        return live_count <= free

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def spill(self, cta_id: int, live: Sequence[Tuple[int, int]],
              fetch_latency: int = 0) -> SwitchCost:
        """Move a stalled CTA's decoded live registers from ACRF to PCRF.

        ``live`` comes from :meth:`live_set_of`; ``fetch_latency`` is that
        call's accumulated bit-vector miss latency and is folded into the
        transaction's cycle count.
        """
        if not live:
            # Degenerate but legal: a CTA with an empty live set still needs
            # a PCRF presence to anchor its pointer-table entry.
            live = [(0, 0)]
        result = self._pcrf.spill(cta_id, list(live))
        if not self.fault_drop_pointer:
            self._pointer_table[cta_id] = _PointerTableEntry(
                head_slot=result.head_index, live_count=result.entries_used)
        self.stats.spills += 1
        self.stats.spilled_registers += result.entries_used
        cycles = self._transfer_cycles(result.entries_used) + fetch_latency
        if self.telemetry is not None:
            self.telemetry.inc("rmu.spills")
            self.telemetry.observe("rmu.spill_cycles", cycles)
        return SwitchCost(cycles=cycles, offchip_bytes=0)

    def restore(self, cta_id: int) -> SwitchCost:
        """Move a pending CTA's live registers from PCRF back to ACRF."""
        if cta_id not in self._pointer_table:
            raise KeyError(f"CTA {cta_id} has no PCRF pointer table entry")
        entry = self._pointer_table.pop(cta_id)
        registers = self._pcrf.restore(cta_id)
        if len(registers) != entry.live_count:
            raise RuntimeError(
                f"pointer table live count {entry.live_count} disagrees with "
                f"PCRF chain length {len(registers)} for CTA {cta_id}"
            )
        self.stats.restores += 1
        self.stats.restored_registers += len(registers)
        cycles = self._transfer_cycles(len(registers))
        if self.telemetry is not None:
            self.telemetry.inc("rmu.restores")
            self.telemetry.observe("rmu.restore_cycles", cycles)
        return SwitchCost(cycles=cycles, offchip_bytes=0)

    def pending_live_count(self, cta_id: int) -> int:
        return self._pointer_table[cta_id].live_count

    def pointer_table_ctas(self) -> Set[int]:
        """IDs of CTAs with pointer-table rows (sanitizer view)."""
        return set(self._pointer_table)

    def holds(self, cta_id: int) -> bool:
        return cta_id in self._pointer_table

    def _transfer_cycles(self, register_count: int) -> int:
        """Chain traversal is pipelined: first access pays the full PCRF
        latency, each further register streams at one per cycle (V-E)."""
        if register_count == 0:
            return 0
        return self._access_latency + (register_count - 1)

    # ------------------------------------------------------------------
    @property
    def pointer_table_bytes(self) -> int:
        """SRAM cost: 128 lines x (10-bit pointer + 6-bit count) = 256 B."""
        return 128 * 16 // 8
