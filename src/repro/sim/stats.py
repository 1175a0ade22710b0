"""Simulation statistics.

``SMStats`` accumulates per-SM counters during the run (time-weighted where
the quantity is a level, e.g. resident CTAs).  ``SimResult`` is the frozen
whole-GPU summary the experiment harness consumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

#: Bump whenever the :class:`SimResult` field set changes; serialized
#: payloads carry it so stale cache entries are rejected, not misparsed.
#: v2: added switch_out_overhead_cycles / switch_in_overhead_cycles.
#: v3: added per_kernel (concurrent-kernel attribution; None single-kernel).
RESULT_SCHEMA_VERSION = 3


@dataclass
class KernelStats:
    """Mutable per-kernel (per-launch) counters for concurrent runs.

    One instance per :class:`~repro.sim.launch.KernelLaunch` per SM; the GPU
    sums them across SMs into ``SimResult.per_kernel``.  Single-kernel runs
    never allocate these (the whole-SM :class:`SMStats` already are the
    per-kernel view), keeping the hot path untouched.
    """

    instructions: int = 0
    cta_launches: int = 0
    cta_switch_events: int = 0
    stall_events: int = 0
    stall_cycles: int = 0
    # Time-weighted integrals (same buffered-span flushing as SMStats).
    active_cta_cycles: float = 0.0
    active_warp_cycles: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


@dataclass
class SMStats:
    """Mutable per-SM counters."""

    instructions: int = 0
    # Time-weighted integrals (divide by elapsed cycles for averages).
    active_cta_cycles: float = 0.0
    pending_cta_cycles: float = 0.0
    active_warp_cycles: float = 0.0
    # Peak concurrency.
    max_resident_ctas: int = 0
    # Stall taxonomy: cycles where the SM issued nothing, attributed.
    idle_cycles: int = 0
    rf_depletion_cycles: int = 0     # schedulable CTA exists, RF space doesn't
    srp_stall_cycles: int = 0        # RegMutex: warps waiting on SRP
    # Switching activity.
    cta_switch_events: int = 0
    cta_launches: int = 0
    # Table-IV switch phases: overhead cycles each direction spends moving
    # register state (spill to PCRF / restore to ACRF).
    switch_out_overhead_cycles: int = 0
    switch_in_overhead_cycles: int = 0
    # Register-file event counts (energy model inputs).
    rf_reads: int = 0
    rf_writes: int = 0
    pcrf_reads: int = 0
    pcrf_writes: int = 0
    shmem_accesses: int = 0
    # Table III: per-CTA cycles from first issue to complete stall.
    stall_latencies: List[int] = field(default_factory=list)
    # Fig 5: per-window register usage fractions (optional sampling).
    window_usage: List[float] = field(default_factory=list)

    def accumulate(self, dt: float, active_ctas: int, pending_ctas: int,
                   active_warps: int) -> None:
        self.active_cta_cycles += dt * active_ctas
        self.pending_cta_cycles += dt * pending_ctas
        self.active_warp_cycles += dt * active_warps
        resident = active_ctas + pending_ctas
        if resident > self.max_resident_ctas:
            self.max_resident_ctas = resident


@dataclass(frozen=True)
class SimResult:
    """Immutable outcome of one kernel launch simulation."""

    policy: str
    workload: str
    cycles: int
    instructions: int
    num_sms: int
    # Concurrency.
    avg_active_ctas_per_sm: float
    avg_pending_ctas_per_sm: float
    max_resident_ctas: int
    avg_active_threads_per_sm: float
    # Memory.
    dram_traffic_bytes: int
    dram_traffic_by_class: Dict[str, int]
    l1_hit_rate: float
    l2_hit_rate: float
    # Stalls and switching.
    idle_cycles: int
    rf_depletion_cycles: int
    srp_stall_cycles: int
    cta_switch_events: int
    # Energy-model event counts.
    rf_reads: int
    rf_writes: int
    pcrf_reads: int
    pcrf_writes: int
    shmem_accesses: int
    l1_accesses: int
    l2_accesses: int
    # Characterization extras.
    mean_stall_latency: Optional[float]
    window_usage_bounds: Optional[Tuple[float, float, float]]
    bitvector_hit_rate: Optional[float]
    completed_ctas: int
    timed_out: bool
    # Telemetry summary (schema v2): Table-IV switch-phase overhead cycles
    # summed over all SMs.  Trailing defaults keep older positional
    # constructions valid.
    switch_out_overhead_cycles: int = 0
    switch_in_overhead_cycles: int = 0
    # Concurrent-kernel attribution (schema v3): label -> summed KernelStats
    # fields plus ``completed_ctas``/``grid_ctas``.  None for single-kernel
    # runs, so their payloads differ from v2 only by the schema tag.
    per_kernel: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def ipc(self) -> float:
        """Whole-GPU instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def ipc_per_sm(self) -> float:
        return self.ipc / self.num_sms

    @property
    def avg_resident_ctas_per_sm(self) -> float:
        return self.avg_active_ctas_per_sm + self.avg_pending_ctas_per_sm

    @property
    def rf_depletion_fraction(self) -> float:
        """Fraction of execution time stalled on register-file depletion
        (paper Fig 14b)."""
        return self.rf_depletion_cycles / self.cycles if self.cycles else 0.0

    @property
    def switch_overhead_cycles(self) -> int:
        """Total Table-IV context-switch overhead (both directions)."""
        return (self.switch_out_overhead_cycles
                + self.switch_in_overhead_cycles)

    @property
    def stall_fraction(self) -> float:
        """Fraction of execution time the GPU issued nothing at all."""
        total = self.cycles * self.num_sms
        return self.idle_cycles / total if total else 0.0

    # ------------------------------------------------------------------
    # Serialization (persistent result cache, parallel campaign workers)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """A JSON-serializable dict that round-trips via :meth:`from_json`."""
        payload = asdict(self)
        bounds = payload["window_usage_bounds"]
        if bounds is not None:
            payload["window_usage_bounds"] = list(bounds)
        payload["_schema"] = RESULT_SCHEMA_VERSION
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "SimResult":
        """Rebuild a result from :meth:`to_json` output (exact round-trip)."""
        data = dict(payload)
        schema = data.pop("_schema", RESULT_SCHEMA_VERSION)
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"SimResult schema {schema} != {RESULT_SCHEMA_VERSION}")
        bounds = data.get("window_usage_bounds")
        if bounds is not None:
            data["window_usage_bounds"] = tuple(bounds)
        return cls(**data)

    def speedup_over(self, baseline: "SimResult") -> float:
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline IPC is zero")
        return self.ipc / baseline.ipc

    def traffic_ratio_over(self, baseline: "SimResult") -> float:
        if baseline.dram_traffic_bytes == 0:
            return 1.0
        return self.dram_traffic_bytes / baseline.dram_traffic_bytes
