"""The L1 -> L2 -> DRAM hierarchy shared by all SMs of a simulated GPU.

Each SM owns an L1; the L2 and DRAM channel are shared.  ``load``/``store``
return the absolute completion cycle of the access, charging L1/L2 hit
latencies or the DRAM round trip (including bandwidth queueing).  A small
per-SM merge table approximates MSHR behaviour: accesses from the same SM to
the same line within the lifetime of an outstanding miss complete with the
original miss rather than issuing new DRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import GPUConfig
from repro.memory.cache import Cache
from repro.memory.dram import DRAM


@dataclass
class HierarchyStats:
    """Aggregated access counts (per-level stats live on the caches)."""

    loads: int = 0
    stores: int = 0
    merged_misses: int = 0


class MemoryHierarchy:
    """Timing model for global-memory accesses of every SM."""

    def __init__(self, config: GPUConfig) -> None:
        self._config = config
        line = config.cache_line_bytes
        self.l1s: List[Cache] = [
            Cache(f"L1[{sm}]", config.l1_size_bytes, config.l1_assoc, line)
            for sm in range(config.num_sms)
        ]
        self.l2 = Cache("L2", config.l2_size_bytes, config.l2_assoc, line,
                        allocate_on_write=True)
        self.dram = DRAM(config.dram_bytes_per_cycle, config.dram_latency)
        # Config scalars hoisted for the per-access hot path.
        self._line_bytes = line
        self._l1_hit_lat = config.l1_hit_latency
        self._l2_hit_lat = config.l2_hit_latency
        self.stats = HierarchyStats()
        #: MetricsRegistry installed by repro.obs.telemetry (None = off).
        self.telemetry = None
        # Per-SM outstanding-miss table: line address -> completion cycle.
        self._outstanding: List[Dict[int, int]] = [
            {} for _ in range(config.num_sms)
        ]

    # ------------------------------------------------------------------
    def load(self, sm_id: int, address: int, now: int) -> int:
        """A warp-level coalesced load; returns the data-ready cycle."""
        self.stats.loads += 1
        done = self._access(sm_id, address, now, is_write=False)
        if self.telemetry is not None:
            self.telemetry.inc("mem.loads")
            self.telemetry.observe("mem.load_cycles", done - now)
        return done

    def store(self, sm_id: int, address: int, now: int) -> int:
        """A warp-level coalesced store; returns the retire cycle.

        Stores are write-through at L1; they complete from the warp's view
        quickly but still consume DRAM bandwidth on an L2 miss.
        """
        self.stats.stores += 1
        if self.telemetry is not None:
            self.telemetry.inc("mem.stores")
        self._access(sm_id, address, now, is_write=True)
        # Stores retire once handed to the memory pipeline.
        return now + self._l1_hit_lat

    # ------------------------------------------------------------------
    def _access(self, sm_id: int, address: int, now: int,
                is_write: bool) -> int:
        line_bytes = self._line_bytes
        line = address // line_bytes
        line_addr = line * line_bytes

        # A miss to this line may still be in flight: later accesses (from
        # this SM) complete with it instead of hitting the freshly-allocated
        # tag before the data has actually arrived.
        outstanding = self._outstanding[sm_id]
        l1 = self.l1s[sm_id]
        pending = outstanding.get(line_addr)
        if pending is not None:
            if pending > now:
                self.stats.merged_misses += 1
                l1.access_line(line, is_write)  # keep LRU honest
                return pending
            del outstanding[line_addr]

        # L1 probe open-coded from Cache.access_line (write-through /
        # no-write-allocate; ``last_evicted_dirty`` is left stale — the
        # hierarchy only consults the L2's flag).
        num_sets = l1.num_sets
        set_index = line % num_sets
        tag = line // num_sets
        ways = l1._sets[set_index]
        l1_stats = l1.stats
        if tag in ways:
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            if is_write:
                l1_stats.write_hits += 1
                l1._dirty.add((set_index, tag))
            else:
                l1_stats.read_hits += 1
            return now + self._l1_hit_lat
        if is_write:
            l1_stats.write_misses += 1
        else:
            l1_stats.read_misses += 1
            ways.insert(0, tag)
            if len(ways) > l1.assoc:
                victim = ways.pop()
                key = (set_index, victim)
                dirty = l1._dirty
                if key in dirty:
                    dirty.remove(key)
                    l1_stats.dirty_evictions += 1

        # L2 probe open-coded from Cache.access_line (allocate-on-write,
        # write-back; ``evicted_dirty`` stands in for last_evicted_dirty).
        l2 = self.l2
        num_sets = l2.num_sets
        set_index = line % num_sets
        tag = line // num_sets
        ways = l2._sets[set_index]
        l2_stats = l2.stats
        evicted_dirty = False
        if tag in ways:
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            if is_write:
                l2_stats.write_hits += 1
                l2._dirty.add((set_index, tag))
            else:
                l2_stats.read_hits += 1
            done = now + self._l2_hit_lat
        else:
            dirty = l2._dirty
            if is_write:
                # Write-back L2: the store allocates on-chip; DRAM is only
                # charged when a dirty line is eventually evicted (below).
                l2_stats.write_misses += 1
                done = now + self._l2_hit_lat
            else:
                l2_stats.read_misses += 1
                done = self.dram.request(now, line_bytes, "demand_read")
                done += self._l2_hit_lat - self._l1_hit_lat
            ways.insert(0, tag)
            if is_write:
                dirty.add((set_index, tag))
            if len(ways) > l2.assoc:
                victim = ways.pop()
                key = (set_index, victim)
                if key in dirty:
                    dirty.remove(key)
                    evicted_dirty = True
                    l2_stats.dirty_evictions += 1
        if evicted_dirty:
            self.dram.request(now, line_bytes, "demand_write")
        if not is_write:
            outstanding[line_addr] = done
            if len(outstanding) > 256:  # bound the merge-table size
                expired = [a for a, t in outstanding.items() if t <= now]
                for addr in expired:
                    del outstanding[addr]
        return done

    # ------------------------------------------------------------------
    # Bulk transfers (context switching to DRAM, bit-vector fetches)
    # ------------------------------------------------------------------
    def bulk_transfer(self, now: int, nbytes: int, traffic_class: str) -> int:
        """Move ``nbytes`` to/from DRAM (Zorua-style context, bit vectors)."""
        return self.dram.request(now, nbytes, traffic_class)

    @property
    def dram_traffic_bytes(self) -> int:
        return self.dram.stats.total_bytes

    def traffic_by_class(self) -> Dict[str, int]:
        return dict(self.dram.stats.bytes_by_class)
