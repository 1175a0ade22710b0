"""Concurrent-kernel launch bookkeeping.

A :class:`KernelLaunch` is one grid resident on the GPU.  Single-kernel
runs build exactly one (whose CTA queue *is* the GPU's grid deque, so the
hot path is unchanged); concurrent runs build one per stream and route
CTA dispatch through a :class:`DispatchArbiter`.

Id spaces are partitioned, never per-launch: CTA ids, global warp ids and
static-instruction indices each get a contiguous block per launch
(``cta_base`` / ``warp_base`` / ``index_base``), so the SM's concatenated
metadata tables, the address model's stream/reuse regions, and the
combined liveness table all index by the same globals the single-kernel
path already uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.bitvector import LiveBitVector
from repro.core.liveness import LivenessAnalysis, LivenessTable
from repro.isa.kernel import Kernel

#: Supported CTA dispatch arbitration policies.
ARBITRATION_POLICIES = ("priority", "round_robin")


@dataclass(frozen=True)
class LaunchSpec:
    """Immutable description of one grid to co-launch.

    ``priority`` is a stream priority: higher values dispatch first under
    the ``priority`` arbitration policy.  ``label`` names the launch in
    per-kernel attribution; it defaults to ``s<stream>:<kernel name>``.
    """

    kernel: Kernel
    trace_provider: object
    address_model: object
    liveness: Optional[LivenessTable] = None
    stream: int = 0
    priority: int = 0
    label: Optional[str] = None

    @classmethod
    def from_workload(cls, instance: Any, stream: int = 0, priority: int = 0,
                      label: Optional[str] = None) -> "LaunchSpec":
        """Build a spec from a :class:`~repro.workloads.generator.WorkloadInstance`."""
        return cls(kernel=instance.kernel,
                   trace_provider=instance.trace_provider,
                   address_model=instance.address_model,
                   liveness=instance.liveness,
                   stream=stream, priority=priority, label=label)


class KernelLaunch:
    """Runtime state of one resident grid."""

    __slots__ = ("index", "stream", "priority", "label", "kernel",
                 "trace_provider", "liveness", "cta_base", "warp_base",
                 "index_base", "grid", "grid_ctas", "cta_regs",
                 "warps_per_cta", "threads_per_cta", "regs_per_thread",
                 "shmem_per_cta", "num_instructions", "_trace_memo")

    def __init__(self, index: int, kernel: Kernel, trace_provider: Any,
                 liveness: Optional[LivenessTable] = None, *,
                 stream: int = 0, priority: int = 0,
                 label: Optional[str] = None,
                 cta_base: int = 0, warp_base: int = 0, index_base: int = 0,
                 grid: Optional[Deque[int]] = None) -> None:
        self.index = index
        self.stream = stream
        self.priority = priority
        self.label = label if label is not None else f"s{stream}:{kernel.name}"
        self.kernel = kernel
        self.trace_provider = trace_provider
        if liveness is None:
            liveness = LivenessAnalysis(kernel.cfg).run(kernel.regs_per_thread)
        self.liveness = liveness
        self.cta_base = cta_base
        self.warp_base = warp_base
        self.index_base = index_base
        self.grid_ctas = kernel.geometry.grid_ctas
        if grid is None:
            grid = deque(range(cta_base, cta_base + self.grid_ctas))
        self.grid = grid
        # Table-I footprint of one CTA of this launch.
        self.cta_regs = kernel.warp_registers_per_cta
        self.warps_per_cta = kernel.warps_per_cta
        self.threads_per_cta = kernel.geometry.threads_per_cta
        self.regs_per_thread = kernel.regs_per_thread
        self.shmem_per_cta = kernel.shmem_per_cta
        self.num_instructions = kernel.num_static_instructions
        # (local_cta, warp_id) -> trace rebased into the SM's concatenated
        # static-index space.  Only populated when index_base != 0.
        self._trace_memo: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        return len(self.grid)

    def owns_cta(self, cta_id: int) -> bool:
        return self.cta_base <= cta_id < self.cta_base + self.grid_ctas

    def pop_cta(self) -> Optional[int]:
        """Dequeue the next global CTA id, or None if drained."""
        if not self.grid:
            return None
        return self.grid.popleft()

    def trace_for(self, local_cta: int, warp_id: int) -> Sequence[int]:
        """The warp's trace, rebased by ``index_base``.

        The base-0 launch returns the provider's memoized list *object*
        unchanged — identity the compiled backend's trace interning relies
        on — so single-kernel behaviour is untouched.
        """
        trace: Sequence[int] = self.trace_provider.trace_for(
            local_cta, warp_id)
        base = self.index_base
        if not base:
            return trace
        key = (local_cta, warp_id)
        memo = self._trace_memo
        rebased = memo.get(key)
        if rebased is None:
            rebased = [i + base for i in trace]
            memo[key] = rebased
        return rebased


class GridView:
    """Deque-like facade over several launches' CTA queues.

    Installed as ``gpu._grid`` for concurrent runs so the engine loops'
    ``if not grid`` / ``len`` / drain checks work unchanged.  ``popleft``
    services launches in index order (only ``gpu.next_cta`` compatibility
    uses it; policy fills go through the arbiter instead).
    """

    __slots__ = ("_launches",)

    def __init__(self, launches: Sequence[KernelLaunch]) -> None:
        self._launches = tuple(launches)

    def __bool__(self) -> bool:
        for launch in self._launches:
            if launch.grid:
                return True
        return False

    def __len__(self) -> int:
        return sum(len(launch.grid) for launch in self._launches)

    def popleft(self) -> int:
        for launch in self._launches:
            if launch.grid:
                return launch.grid.popleft()
        raise IndexError("pop from empty grid view")


class DispatchArbiter:
    """Chooses which resident grid supplies the next CTA for an SM slot.

    ``priority``: static order — higher ``priority`` first, ties broken by
    stream id then launch index.  ``round_robin``: rotate the starting
    launch after every successful dispatch, so co-equal grids interleave.
    Both skip drained launches and launches the caller's fit predicate
    rejects (insufficient shared budget for *that* kernel's footprint).
    """

    __slots__ = ("policy", "launches", "_order", "_rr")

    def __init__(self, launches: Sequence[KernelLaunch],
                 policy: str = "priority") -> None:
        if policy not in ARBITRATION_POLICIES:
            raise ValueError(
                f"unknown arbitration policy {policy!r}; "
                f"expected one of {ARBITRATION_POLICIES}")
        self.policy = policy
        self.launches = list(launches)
        self._order = sorted(
            self.launches,
            key=lambda l: (-l.priority, l.stream, l.index))
        self._rr = 0

    def dispatch_order(self) -> List[KernelLaunch]:
        if self.policy == "priority":
            return self._order
        launches = self.launches
        n = len(launches)
        start = self._rr % n
        return [launches[(start + i) % n] for i in range(n)]

    def next_fitting(self, fit: Callable[[KernelLaunch], bool]
                     ) -> Optional[KernelLaunch]:
        """First launch (in dispatch order) with CTAs left that ``fit``."""
        for launch in self.dispatch_order():
            if launch.grid and fit(launch):
                return launch
        return None

    def note_dispatched(self, launch: KernelLaunch) -> None:
        """Advance round-robin state after a successful dispatch."""
        if self.policy == "round_robin":
            self._rr = (self.launches.index(launch) + 1) % len(self.launches)


# ----------------------------------------------------------------------
def build_launches(specs: Sequence[LaunchSpec]) -> List[KernelLaunch]:
    """Materialize runtime launches with partitioned id spaces."""
    if not specs:
        raise ValueError("at least one LaunchSpec is required")
    launches: List[KernelLaunch] = []
    cta_base = warp_base = index_base = 0
    labels: Dict[str, int] = {}
    for index, spec in enumerate(specs):
        kernel = spec.kernel
        label = spec.label
        if label is None:
            label = f"s{spec.stream}:{kernel.name}"
        seen = labels.get(label)
        labels[label] = (seen or 0) + 1
        if seen:
            label = f"{label}#{index}"
        launches.append(KernelLaunch(
            index, kernel, spec.trace_provider, spec.liveness,
            stream=spec.stream, priority=spec.priority, label=label,
            cta_base=cta_base, warp_base=warp_base, index_base=index_base))
        cta_base += kernel.geometry.grid_ctas
        warp_base += kernel.geometry.grid_ctas * kernel.warps_per_cta
        index_base += kernel.num_static_instructions
    return launches


def combined_liveness(launches: Sequence[KernelLaunch]) -> LivenessTable:
    """One liveness table over the concatenated static-index space."""
    if len(launches) == 1:
        return launches[0].liveness
    vectors: List[LiveBitVector] = []
    num_registers = 0
    for launch in launches:
        table = launch.liveness
        vectors.extend(table.vectors)
        if table.num_registers > num_registers:
            num_registers = table.num_registers
    return LivenessTable(vectors=tuple(vectors),
                         num_registers=num_registers)


def shared_address_model(specs: Sequence[LaunchSpec]) -> object:
    """Validate that all launches can share one address model.

    Concurrent launches execute against a single memory hierarchy, so
    their address models must be interchangeable (same type and layout
    parameters).  Returns the first spec's model as the shared one.
    """
    first = specs[0].address_model
    for spec in specs[1:]:
        model = spec.address_model
        if type(model) is not type(first):
            raise ValueError(
                "concurrent launches must share one address-model type; "
                f"got {type(first).__name__} and {type(model).__name__}")
        for attr in ("reuse_lines", "shared_lines", "reuse_spatial"):
            if getattr(model, attr, None) != getattr(first, attr, None):
                raise ValueError(
                    "concurrent launches must use equivalent address "
                    f"models (mismatched {attr})")
    return first
