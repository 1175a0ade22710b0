"""Shared experiment-result structure and sweep helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import RunRequest
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentRunner
from repro.sim.stats import SimResult
from repro.workloads.suite import ALL_SPECS, TYPE_R_SPECS, TYPE_S_SPECS

ALL_APPS = tuple(spec.abbrev for spec in ALL_SPECS)
TYPE_S_APPS = tuple(spec.abbrev for spec in TYPE_S_SPECS)
TYPE_R_APPS = tuple(spec.abbrev for spec in TYPE_R_SPECS)

#: The paper's memory-intensive trio (VI-C/VI-D).
MEMORY_INTENSIVE_APPS = ("KM", "SY2", "BF")

#: Fig 15's traffic-sensitive trio.
TRAFFIC_APPS = ("FD", "NW", "ST")

#: Per-app sweeps mirroring the paper's methodology (VI-A): Reg+DRAM's
#: pending-CTA count and RegMutex's SRP ratio are tuned per application.
REG_DRAM_LIMITS = (0, 4)
SRP_RATIOS = (0.2, 0.28, 0.35)

#: One shape claim of an experiment module's ``claims(s)``: the asserted
#: expression over its summary ``s``, as source text, and whether it holds.
Claim = Tuple[str, bool]

#: Suffix of a claim's text that EXPERIMENTS.md does not make at ``tiny``
#: scale: a tiny run reports it but does not fail on it.
NOT_AT_TINY = " (not claimed at tiny)"


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    summary: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def to_text(self, precision: int = 3) -> str:
        text = format_table(self.headers, self.rows,
                            title=f"{self.experiment}: {self.title}",
                            precision=precision)
        if self.summary:
            lines = [f"  {key} = {value:.4g}"
                     for key, value in self.summary.items()]
            text += "\n\nSummary:\n" + "\n".join(lines)
        if self.notes:
            text += f"\n\nNotes: {self.notes}"
        return text


def main_config_requests(app: str) -> List[RunRequest]:
    """Every simulation behind :func:`main_config_results` for one app,
    including the Reg+DRAM and RegMutex per-app sweep points."""
    requests = [RunRequest.make(app, "baseline"),
                RunRequest.make(app, "virtual_thread"),
                RunRequest.make(app, "finereg")]
    requests += [RunRequest.make(app, "reg_dram", dram_pending_limit=limit)
                 for limit in REG_DRAM_LIMITS]
    requests += [RunRequest.make(app, "vt_regmutex", srp_ratio=ratio)
                 for ratio in SRP_RATIOS]
    return requests


def plan_main_configs(runner: ExperimentRunner,
                      apps: Sequence[str] = ALL_APPS) -> List[RunRequest]:
    """Shared ``plan()`` for figures built on the five main configurations
    (12/13/16): their full run-set, submitted up front for pool dispatch."""
    return [request for app in apps for request in main_config_requests(app)]


def best_reg_dram(runner: ExperimentRunner, app: str,
                  limits: Tuple[int, ...] = REG_DRAM_LIMITS) -> SimResult:
    """Reg+DRAM at its best per-app pending-CTA budget (paper VI-A)."""
    results = [runner.run(app, "reg_dram", dram_pending_limit=limit)
               for limit in limits]
    return max(results, key=lambda r: r.ipc)


def best_regmutex(runner: ExperimentRunner, app: str,
                  ratios: Tuple[float, ...] = SRP_RATIOS
                  ) -> Tuple[SimResult, float]:
    """VT+RegMutex at its best per-app SRP/BRS split (paper VI-A/Fig 14a)."""
    best: Optional[SimResult] = None
    best_ratio = ratios[0]
    for ratio in ratios:
        result = runner.run(app, "vt_regmutex", srp_ratio=ratio)
        if best is None or result.ipc > best.ipc:
            best = result
            best_ratio = ratio
    assert best is not None
    return best, best_ratio


def main_config_results(runner: ExperimentRunner, app: str
                        ) -> Dict[str, SimResult]:
    """The five configurations of Figs 12/13/16 with per-app sweeps."""
    return {
        "baseline": runner.run(app, "baseline"),
        "virtual_thread": runner.run(app, "virtual_thread"),
        "reg_dram": best_reg_dram(runner, app),
        "vt_regmutex": best_regmutex(runner, app)[0],
        "finereg": runner.run(app, "finereg"),
    }
