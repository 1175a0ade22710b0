"""Fig 2: performance impact of scaling scheduling resources and on-chip
memory by 1.5x / 2x, for Type-S and Type-R workloads.

The paper finds Type-S apps gain ~27-28% from more scheduling resources but
little from memory, Type-R apps the opposite (~30-44%), and both gain most
(~46-99%) when both are scaled.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    ALL_APPS,
    TYPE_R_APPS,
    TYPE_S_APPS,
    Claim,
    ExperimentResult,
)
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

VARIANTS = (
    ("Sched x1.5", 1.5, 1.0),
    ("Sched x2", 2.0, 1.0),
    ("Mem x1.5", 1.0, 1.5),
    ("Mem x2", 1.0, 2.0),
    ("Sched+Mem x1.5", 1.5, 1.5),
    ("Sched+Mem x2", 2.0, 2.0),
)


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    speedups: Dict[str, Dict[str, float]] = {}
    for app in apps:
        base = runner.run(app, "baseline")
        speedups[app] = {}
        for label, sched, mem in VARIANTS:
            config = runner.base_config
            if sched != 1.0:
                config = config.with_scheduling_scale(sched)
            if mem != 1.0:
                config = config.with_memory_scale(mem)
            result = runner.run(app, "baseline", config=config)
            speedups[app][label] = result.ipc / base.ipc

    headers = ["app", "type"] + [label for label, __, __ in VARIANTS]
    rows = []
    for app in apps:
        wtype = "S" if app in TYPE_S_APPS else "R"
        rows.append([app, wtype]
                    + [speedups[app][label] for label, __, __ in VARIANTS])

    summary = {}
    for label, __, __ in VARIANTS:
        for group, members in (("type_s", TYPE_S_APPS), ("type_r",
                                                         TYPE_R_APPS)):
            values = [speedups[a][label] for a in apps if a in members]
            if values:
                key = f"{group}_{label.replace(' ', '_').lower()}"
                summary[key] = geomean(values)

    return ExperimentResult(
        experiment="fig02",
        title="Speedup from scaling scheduling resources and on-chip memory",
        headers=headers,
        rows=rows,
        summary=summary,
        notes=("Paper: Type-S +27.1%/+28.4% from Sched x1.5/x2, Type-R "
               "+29.5%/+43.6% from Mem x1.5/x2; both scaled: +45.5%/+98.6%."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = ALL_APPS):
    """Full run-set for up-front pool dispatch."""
    requests = []
    for app in apps:
        requests.append(RunRequest.make(app, "baseline"))
        for __, sched, mem in VARIANTS:
            config = runner.base_config
            if sched != 1.0:
                config = config.with_scheduling_scale(sched)
            if mem != 1.0:
                config = config.with_memory_scale(mem)
            requests.append(RunRequest.make(app, "baseline", config=config))
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: Type-S apps respond to scheduling resources, Type-R to memory.
    return [
        ('s["type_s_sched_x2"] > s["type_s_mem_x2"] - 0.02',
         s["type_s_sched_x2"] > s["type_s_mem_x2"] - 0.02),
        ('s["type_r_mem_x2"] > s["type_r_sched_x2"] - 0.02',
         s["type_r_mem_x2"] > s["type_r_sched_x2"] - 0.02),
        # Scaling both dominates scaling either alone.
        ('s["type_s_sched+mem_x2"] >= s["type_s_sched_x2"] - 0.02',
         s["type_s_sched+mem_x2"] >= s["type_s_sched_x2"] - 0.02),
        ('s["type_r_sched+mem_x2"] >= s["type_r_mem_x2"] - 0.02',
         s["type_r_sched+mem_x2"] >= s["type_r_mem_x2"] - 0.02),
    ]
