"""Fig 19: unified on-chip local memory (UM) combinations.

UM coalesces PCRF + shared memory + L1 into one 272 KB pool.  The paper
finds UM alone gains 17.6% (mostly apps that turn the pool into a big L1:
AT, BI, KM, SY2), VT+UM adds 6.7% more, and FineReg+UM reaches +35.6% over
the UM-only configuration -- showing FineReg composes with other register
file organizations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import ALL_APPS, Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

CONFIGS = (
    ("UM", "baseline"),
    ("VT+UM", "virtual_thread"),
    ("FineReg+UM", "finereg"),
)


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    rows = []
    speedups = {label: [] for label, __ in CONFIGS}
    for app in apps:
        base = runner.run(app, "baseline")
        row = [app]
        for label, policy in CONFIGS:
            result = runner.run(app, policy, unified_memory=True)
            ratio = result.ipc / base.ipc
            speedups[label].append(ratio)
            row.append(ratio)
        rows.append(row)

    summary = {f"{label.lower().replace('+', '_')}_speedup":
               geomean(values) for label, values in speedups.items()}
    summary["finereg_um_vs_um"] = (summary["finereg_um_speedup"]
                                   / summary["um_speedup"])
    summary["vt_um_vs_um"] = (summary["vt_um_speedup"]
                              / summary["um_speedup"])
    return ExperimentResult(
        experiment="fig19",
        title="Unified on-chip memory (272 KB pool) combinations vs baseline",
        headers=["app", "UM", "VT+UM", "FineReg+UM"],
        rows=rows,
        summary=summary,
        notes=("Paper: UM alone +17.6%; VT+UM +6.7% over UM; FineReg+UM "
               "+35.6% over UM. Apps with small register/shmem footprints "
               "(AT, BI, KM, SY2) benefit most from the enlarged L1."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = ALL_APPS):
    requests = []
    for app in apps:
        requests.append(RunRequest.make(app, "baseline"))
        requests += [RunRequest.make(app, policy, unified_memory=True)
                     for __, policy in CONFIGS]
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: the UM pool alone helps; adding FineReg on top helps more
    # (paper: UM +17.6%, FineReg+UM +35.6% over UM-only).
    return [
        ('s["um_speedup"] >= 1.0', s["um_speedup"] >= 1.0),
        ('s["finereg_um_speedup"] > s["um_speedup"]',
         s["finereg_um_speedup"] > s["um_speedup"]),
        ('s["finereg_um_vs_um"] > 1.0', s["finereg_um_vs_um"] > 1.0),
        ('s["vt_um_vs_um"] > 0.99', s["vt_um_vs_um"] > 0.99),
    ]
