"""One-call telemetry attachment and artifact assembly for one simulation.

``attach_telemetry(gpu)`` builds a :class:`TelemetrySession` and installs
its :class:`~repro.obs.registry.MetricsRegistry` into every publisher
(SMs, warp schedulers, the memory hierarchy, and -- via duck typing -- any
policy-owned ACRF/PCRF/RMU).  The GPU's main loop drives the session through
``on_advance``/``on_run_end``; everything else is passive.

Detaching is never needed: a fresh GPU starts with ``telemetry = None``
everywhere, which is also the zero-overhead state.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.schema import SCHEMA_VERSION
from repro.obs.timeline import TimelineSampler

#: Policy attributes the registry is duck-typed onto when present.
_POLICY_PUBLISHERS = ("acrf", "pcrf", "rmu")


class TelemetrySession:
    """All telemetry state of one simulation run."""

    def __init__(self, gpu, interval: int) -> None:
        self.gpu = gpu
        self.registry = MetricsRegistry()
        self.timeline = TimelineSampler(gpu, interval=interval)
        self.end_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # GPU main-loop hooks
    # ------------------------------------------------------------------
    def on_advance(self, now: int, dt: int) -> None:
        self.timeline.on_advance(now, dt)

    def on_run_end(self, now: int) -> None:
        self.end_cycle = now

    # ------------------------------------------------------------------
    def as_payload(self) -> Dict:
        """JSON-ready artifact written next to the run's result."""
        return {
            "schema": SCHEMA_VERSION,
            "end_cycle": self.end_cycle,
            "metrics": self.registry.snapshot(),
            "timeline": self.timeline.as_payload(),
            "kernels": self._kernel_summary(),
        }

    def _kernel_summary(self) -> Optional[Dict]:
        """Per-launch attribution for concurrent runs (None single-kernel).

        Summed over all SMs straight from the live ``_kstats`` so the
        payload is available even when the caller discards the SimResult.
        """
        gpu = self.gpu
        if len(gpu.launches) <= 1:
            return None
        out: Dict[str, Dict] = {}
        for launch in gpu.launches:
            totals = {"instructions": 0, "cta_launches": 0,
                      "cta_switch_events": 0, "stall_events": 0,
                      "stall_cycles": 0, "active_cta_cycles": 0.0,
                      "active_warp_cycles": 0.0}
            for sm in gpu.sms:
                stats = sm._kstats[launch.index]
                for key in totals:
                    totals[key] += getattr(stats, key)
            totals["stream"] = launch.stream
            totals["priority"] = launch.priority
            totals["kernel"] = launch.kernel.name
            totals["grid_ctas"] = launch.grid_ctas
            out[launch.label] = totals
        return out


def attach_telemetry(gpu, interval: int = 1) -> TelemetrySession:
    """Create a session sampling the timeline every ``interval`` cycles
    and install its registry into every publisher."""
    session = TelemetrySession(gpu, interval)
    gpu.telemetry = session
    registry = session.registry
    gpu.hierarchy.telemetry = registry
    for sm in gpu.sms:
        sm.telemetry = registry
        for scheduler in sm.schedulers:
            scheduler.telemetry = registry
        for attr in _POLICY_PUBLISHERS:
            component = getattr(sm.policy, attr, None)
            if component is not None:
                component.telemetry = registry
    return session
