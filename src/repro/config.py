"""GPU hardware configuration (paper Table I) and scale presets.

The paper simulates a GTX 980-like GPU on GPGPU-Sim.  ``GPUConfig`` captures
every Table I parameter plus the knobs the evaluation section varies
(scheduling-resource scaling for Fig 2, register-file split for Fig 17, SM
count for Fig 18, unified on-chip memory for Fig 19).

All register-file capacities are expressed both in bytes and in
*warp-registers*: one warp-register is one architectural register for all 32
threads of a warp, i.e. 32 threads x 4 bytes = 128 bytes.  This is the unit of
ACRF/PCRF allocation (a PCRF entry holds exactly one warp-register, matching
the paper's "21 bits per tag times 1,024 registers" for the 128 KB PCRF).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

KB = 1024
WARP_SIZE = 32
BYTES_PER_REGISTER = 4
WARP_REGISTER_BYTES = WARP_SIZE * BYTES_PER_REGISTER  # 128 B
MAX_REGS_PER_THREAD = 64  # live bit vectors are 64 bits long (paper V-A)


@dataclass(frozen=True)
class GPUConfig:
    """Hardware parameters of the simulated GPU (defaults = paper Table I)."""

    num_sms: int = 16
    clock_mhz: int = 1126
    simd_width: int = WARP_SIZE
    max_warps_per_sm: int = 64
    max_threads_per_sm: int = 2048
    max_ctas_per_sm: int = 32
    num_warp_schedulers: int = 4
    warp_scheduling: str = "gto"   # greedy-then-oldest (Table I) or "lrr"
    register_file_bytes: int = 256 * KB
    shared_memory_bytes: int = 96 * KB
    l1_size_bytes: int = 48 * KB
    l1_assoc: int = 8
    l2_size_bytes: int = 2048 * KB
    l2_assoc: int = 8
    dram_bandwidth_gbps: float = 352.5
    cache_line_bytes: int = 128

    # Pipeline latencies (cycles).  Representative GPGPU-Sim-era values.
    alu_latency: int = 6
    sfu_latency: int = 16
    shared_mem_latency: int = 24
    l1_hit_latency: int = 28
    l2_hit_latency: int = 340          # incl. interconnect round trip
    dram_latency: int = 600            # incl. controller queueing

    # FineReg-specific structure sizes (paper IV/V).
    pcrf_bytes: int = 128 * KB          # half of the baseline RF by default
    max_resident_ctas: int = 128        # FineReg supports up to 128 CTAs
    max_resident_warps: int = 512       # ... or 512 warps
    bitvector_cache_entries: int = 32   # direct-mapped, 64-bit blocks
    pcrf_access_latency: int = 4        # cycles to reach a tag + register
    cta_switch_threshold: int = 48      # min remaining stall to trigger a switch
    min_park_cycles: int = 160          # min remaining stall worth parking for

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.register_file_bytes % WARP_REGISTER_BYTES:
            raise ValueError("register file size must be a multiple of 128 B")
        if self.pcrf_bytes >= self.register_file_bytes:
            raise ValueError("PCRF must be smaller than the total register file")
        if self.max_warps_per_sm * self.simd_width > self.max_threads_per_sm:
            raise ValueError("warp limit exceeds thread limit")
        if self.warp_scheduling not in ("gto", "lrr"):
            raise ValueError(
                f"unknown warp scheduling {self.warp_scheduling!r}")

    # ------------------------------------------------------------------
    # Derived capacities
    # ------------------------------------------------------------------
    @property
    def rf_warp_registers(self) -> int:
        """Total register file capacity in warp-registers (2048 for 256 KB)."""
        return self.register_file_bytes // WARP_REGISTER_BYTES

    @property
    def pcrf_entries(self) -> int:
        """PCRF capacity in warp-registers (1024 for 128 KB)."""
        return self.pcrf_bytes // WARP_REGISTER_BYTES

    @property
    def acrf_entries(self) -> int:
        """ACRF capacity in warp-registers (RF minus the PCRF region)."""
        return self.rf_warp_registers - self.pcrf_entries

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Off-chip bandwidth expressed in bytes per core clock."""
        return self.dram_bandwidth_gbps * 1e9 / (self.clock_mhz * 1e6)

    # ------------------------------------------------------------------
    # Evaluation-section variants
    # ------------------------------------------------------------------
    def with_scheduling_scale(self, factor: float) -> "GPUConfig":
        """Scale scheduling resources (Fig 2 'Sched'): CTA/warp/thread limits."""
        return dataclasses.replace(
            self,
            max_ctas_per_sm=int(self.max_ctas_per_sm * factor),
            max_warps_per_sm=int(self.max_warps_per_sm * factor),
            max_threads_per_sm=int(self.max_threads_per_sm * factor),
        )

    def with_memory_scale(self, factor: float) -> "GPUConfig":
        """Scale on-chip memory (Fig 2 'Mem'): register file + shared memory."""
        new_rf = int(self.register_file_bytes * factor)
        new_rf -= new_rf % WARP_REGISTER_BYTES
        return dataclasses.replace(
            self,
            register_file_bytes=new_rf,
            shared_memory_bytes=int(self.shared_memory_bytes * factor),
        )

    def with_rf_split(self, acrf_kb: int, pcrf_kb: int) -> "GPUConfig":
        """Fig 17: repartition the fixed-size RF into ACRF/PCRF regions."""
        if (acrf_kb + pcrf_kb) * KB != self.register_file_bytes:
            raise ValueError(
                f"ACRF {acrf_kb}KB + PCRF {pcrf_kb}KB must equal the "
                f"{self.register_file_bytes // KB}KB register file"
            )
        return dataclasses.replace(self, pcrf_bytes=pcrf_kb * KB)

    def with_num_sms(self, num_sms: int) -> "GPUConfig":
        """Fig 18: vary SM count (DRAM bandwidth scales with it)."""
        bw = self.dram_bandwidth_gbps * num_sms / self.num_sms
        return dataclasses.replace(self, num_sms=num_sms, dram_bandwidth_gbps=bw)


@dataclass(frozen=True)
class Scale:
    """Workload scale preset.

    Paper-scale simulation of 16 SMs is impractical in pure Python, so the
    suite ships three presets that shrink grids and dynamic trace lengths
    while preserving per-SM resource ratios (DRAM bandwidth follows SM count
    via :meth:`GPUConfig.with_num_sms`).
    """

    name: str
    num_sms: int
    grid_ctas_per_sm: int     # CTAs in the grid per simulated SM
    trace_scale: float        # multiplier on dynamic trace length
    max_cycles: int           # simulation safety cap

    def grid_size(self, num_sms: int) -> int:
        return max(1, self.grid_ctas_per_sm * num_sms)


TINY = Scale(name="tiny", num_sms=1, grid_ctas_per_sm=12, trace_scale=0.25,
             max_cycles=400_000)
SMALL = Scale(name="small", num_sms=2, grid_ctas_per_sm=24, trace_scale=0.5,
              max_cycles=2_000_000)
PAPER = Scale(name="paper", num_sms=4, grid_ctas_per_sm=48, trace_scale=1.0,
              max_cycles=8_000_000)

SCALES = {scale.name: scale for scale in (TINY, SMALL, PAPER)}


def default_config(scale: Scale = SMALL) -> GPUConfig:
    """Table I configuration shrunk to ``scale.num_sms`` SMs."""
    return GPUConfig().with_num_sms(scale.num_sms)
