"""Table III: average CTA execution time until complete stall.

The paper measures, per application, the mean number of cycles between a
CTA's first instruction issue and the moment all its warps are stalled --
193 (BF) to 2,299 (SG) cycles, proving stalls cluster quickly enough for a
CTA switching mechanism to pay off.  Absolute values differ from GPGPU-Sim;
the reproduction target is the range and per-app ordering (fast-stalling
memory apps vs slow-stalling compute apps).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import ALL_APPS, Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.runner import ExperimentRunner

#: Paper Table III values (cycles), for side-by-side comparison.
PAPER_CYCLES = {
    "MC": 1525, "ST": 1503, "KM": 892, "SY2": 1245, "BI": 1338, "BF": 193,
    "NW": 311, "CS": 512, "FD": 2018, "LI": 1021, "LB": 828, "CF": 955,
    "SG": 2299, "HS": 752, "AT": 1272, "SR": 774, "TA": 1054, "TR": 775,
}


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    rows = []
    measured = {}
    for app in apps:
        result = runner.run(app, "baseline")
        cycles = result.mean_stall_latency or 0.0
        measured[app] = cycles
        rows.append([app, cycles, PAPER_CYCLES.get(app, 0)])

    values = [v for v in measured.values() if v > 0]
    summary = {
        "min_cycles": min(values) if values else 0.0,
        "max_cycles": max(values) if values else 0.0,
        "apps_with_stalls": float(len(values)),
    }
    return ExperimentResult(
        experiment="table03",
        title="Average CTA execution time until complete stall (cycles)",
        headers=["app", "measured", "paper"],
        rows=rows,
        summary=summary,
        notes=("Paper range: 193-2,299 cycles. CTAs stall completely within "
               "a few thousand cycles, motivating CTA switching."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = ALL_APPS):
    return [RunRequest.make(app, "baseline") for app in apps]


def claims(s: Dict[str, float]) -> List[Claim]:
    # Every app's CTAs must reach a complete stall (the premise of CTA
    # switching), within a few thousand cycles.
    return [
        ('s["apps_with_stalls"] == 18', s["apps_with_stalls"] == 18),
        ('s["max_cycles"] <= 5000', s["max_cycles"] <= 5000),
    ]
