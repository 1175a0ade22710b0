"""Live campaign progress (ETA from observed durations) + stall detection.

Both classes are pure state machines over injected timestamps -- no clock
reads here -- so tests drive them with synthetic times and the session
drives them from :mod:`repro.obs.clock`.

The ETA divides the remaining work by the observed mean per-run duration
times the pool width: coarse, but it converges as completions arrive and
needs no prior model of which (app, policy) runs are slow.  The total is
the campaign's plan; runs a module makes past its plan (fig18's follow-up
runs, whose scale factor is a measured ratio) are shown beside it as
follow-up runs, never as more than 100%, and with no ETA, since the plan no
longer says how much is left.

Stall detection is heartbeat-based: every completion beats the finishing
worker (and the pool pseudo-worker :data:`POOL`); a worker whose last beat
is older than an adaptive threshold -- ``factor x`` the observed mean run
duration, floored at ``min_threshold_s`` -- is flagged once per silence as
a straggler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

#: Pseudo-worker id for pool-level liveness: beaten by *any* completion,
#: so a campaign whose every worker hangs still raises a stall.
POOL = -1


def runs_text(completed: int, total: int) -> str:
    """``completed/total runs``, with completions past the plan beside
    it: ``591/591 planned + 29 follow-up runs``."""
    if total and completed > total:
        return (f"{total}/{total} planned + {completed - total} "
                f"follow-up runs")
    return f"{completed}/{total} runs"


class ProgressTracker:
    """Completed/total with an ETA from observed per-run durations."""

    def __init__(self, total: int, jobs: int = 1) -> None:
        self.total = max(0, total)
        self.jobs = max(1, jobs)
        self.completed = 0
        self._dur_sum = 0.0
        self._dur_count = 0

    def on_complete(self, dur_s: float) -> None:
        self.completed += 1
        self._dur_sum += max(0.0, dur_s)
        self._dur_count += 1

    @property
    def mean_duration_s(self) -> Optional[float]:
        if not self._dur_count:
            return None
        return self._dur_sum / self._dur_count

    @property
    def followup(self) -> int:
        """Completions past the planned total."""
        return max(0, self.completed - self.total) if self.total else 0

    def eta_s(self) -> Optional[float]:
        """Seconds of pool work left, or ``None`` before the first finish."""
        mean = self.mean_duration_s
        if mean is None:
            return None
        remaining = max(0, self.total - self.completed)
        return remaining * mean / self.jobs

    def render(self) -> str:
        total = self.total if self.total else self.completed
        completed = min(self.completed, total)
        percent = (100.0 * completed / total) if total else 100.0
        eta = None if self.followup else self.eta_s()
        eta_text = f"eta ~{eta:.1f}s" if eta is not None else "eta ?"
        return (f"{runs_text(self.completed, total)} ({percent:.0f}%), "
                f"{eta_text}")


class StallDetector:
    """Flags workers whose heartbeats go silent for too long."""

    def __init__(self, min_threshold_s: float = 5.0,
                 factor: float = 8.0) -> None:
        self.min_threshold_s = min_threshold_s
        self.factor = factor
        self._last_beat: Dict[int, float] = {}
        self._flagged: Set[int] = set()
        self._dur_sum = 0.0
        self._dur_count = 0

    # ------------------------------------------------------------------
    def beat(self, worker: int, now: float) -> None:
        self._last_beat[worker] = now
        self._flagged.discard(worker)

    def forget(self, worker: int) -> None:
        self._last_beat.pop(worker, None)
        self._flagged.discard(worker)

    def observe_duration(self, dur_s: float) -> None:
        self._dur_sum += max(0.0, dur_s)
        self._dur_count += 1

    @property
    def threshold_s(self) -> float:
        if not self._dur_count:
            return self.min_threshold_s
        return max(self.min_threshold_s,
                   self.factor * self._dur_sum / self._dur_count)

    # ------------------------------------------------------------------
    def stalled(self, now: float) -> List[Tuple[int, float]]:
        """(worker, idle seconds) for newly stalled workers.

        Each silence is reported once: a worker stays flagged until its
        next beat, so a hung worker does not spam one stall per tick.
        """
        threshold = self.threshold_s
        out: List[Tuple[int, float]] = []
        for worker, last in sorted(self._last_beat.items()):
            idle = now - last
            if idle > threshold and worker not in self._flagged:
                self._flagged.add(worker)
                out.append((worker, idle))
        return out
