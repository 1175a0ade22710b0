"""Ablation: PCRF access latency and context-switch cost.

Paper V-E claims CTA-switching latency "is effectively hidden by executing
other active warps".  This sweep stresses that claim: scale the PCRF access
latency (the 4-cycle tag+register pipeline) and watch when the hiding
breaks down.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.experiments.common import Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

LATENCIES = (4, 16, 64, 128)
DEFAULT_APPS = ("KM", "LB", "SR")


def run(runner: ExperimentRunner,
        apps: Sequence[str] = DEFAULT_APPS,
        latencies: Sequence[int] = LATENCIES) -> ExperimentResult:
    rows = []
    summary = {}
    for latency in latencies:
        config = dataclasses.replace(runner.base_config,
                                     pcrf_access_latency=latency)
        speedups = []
        for app in apps:
            base = runner.run(app, "baseline")
            fine = runner.run(app, "finereg", config=config)
            speedups.append(fine.ipc / base.ipc)
        speedup = geomean(speedups)
        rows.append([latency, speedup])
        summary[f"speedup_lat_{latency}"] = speedup
    return ExperimentResult(
        experiment="ablation_pcrf_latency",
        title="FineReg speedup vs PCRF access latency",
        headers=["pcrf_latency", "finereg_speedup"],
        rows=rows,
        summary=summary,
        notes=("Paper V-E: switching latency is hidden by other active "
               "warps; speedup should degrade gracefully, not collapse, "
               "as the PCRF pipeline slows."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = DEFAULT_APPS,
         latencies: Sequence[int] = LATENCIES):
    requests = [RunRequest.make(app, "baseline") for app in apps]
    for latency in latencies:
        config = dataclasses.replace(runner.base_config,
                                     pcrf_access_latency=latency)
        requests += [RunRequest.make(app, "finereg", config=config)
                     for app in apps]
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Paper V-E: switching latency is hidden -- degrade gracefully.
    return [
        ('s["speedup_lat_128"] > 0.7 * s["speedup_lat_4"]',
         s["speedup_lat_128"] > 0.7 * s["speedup_lat_4"]),
    ]
