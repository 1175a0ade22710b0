"""Per-cycle timeline sampling (Fig-4-style occupancy series).

The sampler rides the GPU's main loop: after each advance of ``dt`` cycles
it emits one sample per tick of the configured interval inside
``[now, now + dt)``, reading the *same post-step levels* that
``SMStats.accumulate`` just integrated over that window.  Consequence (and
the reconciliation test's anchor): at ``interval=1`` with no truncation,

    sum(series["active_ctas"]) == sm.stats.active_cta_cycles

exactly, and likewise for pending CTAs and active warps.  Coarser intervals
approximate the integral as sum(samples) * interval.

Series per SM:

* levels -- ``active_ctas``, ``pending_ctas`` (includes in-transit CTAs,
  matching the accumulator), ``active_warps``, plus whatever the policy's
  ``telemetry_levels()`` exposes (baseline: ``rf_free``/``rf_used``;
  FineReg: ``acrf_free``/``acrf_used``/``pcrf_free``/``pcrf_used``).
* cumulative stall taxonomy -- ``idle_cycles``, ``rf_depletion_cycles``,
  ``srp_stall_cycles`` as of the sample's advance (step-quantized: the
  counters move once per main-loop advance, not per tick).

The artifact is columnar JSON: one shared ``cycles`` axis plus per-SM
``series`` arrays, bounded by :data:`MAX_SAMPLES` (``truncated`` flags the
cut).
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.schema import SCHEMA_VERSION

#: Sample-count bound (keeps artifacts a few MB at worst).
MAX_SAMPLES = 200_000


class TimelineSampler:
    """Columnar per-cycle series over one simulation run."""

    def __init__(self, gpu, interval: int) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.gpu = gpu
        self.interval = interval
        self.truncated = False
        self.cycles: List[int] = []
        self._series: List[Dict[str, List[float]]] = [
            {} for _ in gpu.sms
        ]

    # ------------------------------------------------------------------
    def on_advance(self, now: int, dt: int) -> None:
        """Sample every interval tick inside ``[now, now + dt)``."""
        interval = self.interval
        first = now + (-now) % interval
        end = now + dt
        for tick in range(first, end, interval):
            if len(self.cycles) >= MAX_SAMPLES:
                self.truncated = True
                return
            self._sample(tick)

    def _sample(self, tick: int) -> None:
        self.cycles.append(tick)
        for sm, series in zip(self.gpu.sms, self._series):
            stats = sm.stats
            levels = {
                "active_ctas": len(sm.active_ctas),
                "pending_ctas": len(sm.pending_ctas) + len(sm.transit_ctas),
                "active_warps": sm._active_warps,
                "idle_cycles": stats.idle_cycles,
                "rf_depletion_cycles": stats.rf_depletion_cycles,
                "srp_stall_cycles": stats.srp_stall_cycles,
            }
            if sm.policy is not None:
                levels.update(sm.policy.telemetry_levels())
            for name, value in levels.items():
                column = series.get(name)
                if column is None:
                    # A series appearing after the first sample back-fills
                    # zeros so every column shares the cycles axis.
                    column = series[name] = [0] * (len(self.cycles) - 1)
                column.append(value)

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.cycles)

    def series_for(self, sm_id: int) -> Dict[str, List[float]]:
        return self._series[sm_id]

    def as_payload(self) -> Dict:
        """The columnar JSON artifact."""
        return {
            "schema": SCHEMA_VERSION,
            "interval": self.interval,
            "num_sms": len(self._series),
            "truncated": self.truncated,
            "cycles": list(self.cycles),
            "sms": [
                {"sm": sm_id,
                 "series": {name: list(column)
                            for name, column in sorted(series.items())}}
                for sm_id, series in enumerate(self._series)
            ],
        }
