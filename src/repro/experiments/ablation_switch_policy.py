"""Ablation: CTA-switching design knobs.

Two of FineReg's design choices that DESIGN.md calls out get their own
sensitivity sweeps here:

* ``min_park_cycles`` -- how long a stall must be before parking pays.  Too
  low and short bubbles churn through the PCRF; too high and long stalls go
  unhidden.
* the warp scheduler -- Table I fixes GTO; this quantifies what LRR would
  change (GTO's stall clustering is what makes whole-CTA switching viable).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.experiments.common import Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

PARK_THRESHOLDS = (40, 120, 160, 320, 640)
DEFAULT_APPS = ("KM", "CS", "LB")


def run(runner: ExperimentRunner,
        apps: Sequence[str] = DEFAULT_APPS,
        thresholds: Sequence[int] = PARK_THRESHOLDS) -> ExperimentResult:
    rows = []
    summary = {}
    for threshold in thresholds:
        config = dataclasses.replace(runner.base_config,
                                     min_park_cycles=threshold)
        speedups = []
        switches = []
        for app in apps:
            base = runner.run(app, "baseline")
            fine = runner.run(app, "finereg", config=config)
            speedups.append(fine.ipc / base.ipc)
            switches.append(fine.cta_switch_events)
        speedup = geomean(speedups)
        mean_switches = sum(switches) / len(switches)
        rows.append([f"park>={threshold}", speedup, mean_switches])
        summary[f"speedup_park_{threshold}"] = speedup

    # Scheduler comparison at the default threshold.
    for kind in ("gto", "lrr"):
        config = dataclasses.replace(runner.base_config,
                                     warp_scheduling=kind)
        speedups = []
        for app in apps:
            base = runner.run(app, "baseline", config=config)
            fine = runner.run(app, "finereg", config=config)
            speedups.append(fine.ipc / base.ipc)
        speedup = geomean(speedups)
        rows.append([f"scheduler={kind}", speedup, 0.0])
        summary[f"speedup_{kind}"] = speedup

    return ExperimentResult(
        experiment="ablation_switching",
        title="Park-threshold and warp-scheduler sensitivity of FineReg",
        headers=["variant", "finereg_speedup", "mean_switches"],
        rows=rows,
        summary=summary,
        notes=("Switching pays only for stalls longer than the PCRF round "
               "trip; GTO's greedy execution clusters a CTA's stalls, which "
               "is what makes whole-CTA parking effective."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = DEFAULT_APPS,
         thresholds: Sequence[int] = PARK_THRESHOLDS):
    requests = [RunRequest.make(app, "baseline") for app in apps]
    for threshold in thresholds:
        config = dataclasses.replace(runner.base_config,
                                     min_park_cycles=threshold)
        requests += [RunRequest.make(app, "finereg", config=config)
                     for app in apps]
    for kind in ("gto", "lrr"):
        config = dataclasses.replace(runner.base_config,
                                     warp_scheduling=kind)
        for app in apps:
            requests += [RunRequest.make(app, "baseline", config=config),
                         RunRequest.make(app, "finereg", config=config)]
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # An absurdly high park threshold forfeits most of the benefit.
    return [
        ('s["speedup_park_160"] >= s["speedup_park_640"] - 0.05',
         s["speedup_park_160"] >= s["speedup_park_640"] - 0.05),
        ('s["speedup_gto"] > 0.9', s["speedup_gto"] > 0.9),
    ]
