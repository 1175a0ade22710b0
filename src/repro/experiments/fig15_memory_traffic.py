"""Fig 15: off-chip memory traffic of the four configurations.

Measured on FD, NW, and ST (apps where Reg+DRAM deploys more CTAs but gains
nothing): the paper shows Reg+DRAM generating 7.2-9.9% extra traffic from
CTA context switching, while Virtual Thread, RegMutex, and FineReg stay
within ~1% of the baseline (FineReg's increase is the live-register bit
vectors).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    SRP_RATIOS,
    TRAFFIC_APPS,
    Claim,
    ExperimentResult,
    best_regmutex,
)
from repro.experiments.parallel import RunRequest
from repro.experiments.runner import ExperimentRunner


def run(runner: ExperimentRunner,
        apps: Sequence[str] = TRAFFIC_APPS) -> ExperimentResult:
    rows = []
    ratios = {"virtual_thread": [], "reg_dram": [], "vt_regmutex": [],
              "finereg": []}
    for app in apps:
        base = runner.run(app, "baseline")
        vt = runner.run(app, "virtual_thread")
        # Force a context-switching Reg+DRAM configuration (the sweep may
        # pick limit 0 for these apps, which would hide the traffic effect
        # the figure demonstrates).
        rd = runner.run(app, "reg_dram", dram_pending_limit=4)
        rm, __ = best_regmutex(runner, app)
        fr = runner.run(app, "finereg")
        row = [app]
        for key, result in (("virtual_thread", vt), ("reg_dram", rd),
                            ("vt_regmutex", rm), ("finereg", fr)):
            ratio = result.traffic_ratio_over(base)
            ratios[key].append(ratio)
            row.append(ratio)
        context_bytes = (rd.dram_traffic_by_class.get("context_spill", 0)
                         + rd.dram_traffic_by_class.get("context_restore", 0))
        bitvector_bytes = fr.dram_traffic_by_class.get("bitvector", 0)
        row.extend([context_bytes / 1024.0, bitvector_bytes / 1024.0])
        rows.append(row)

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    summary = {f"{key}_traffic_ratio": mean(values)
               for key, values in ratios.items()}
    return ExperimentResult(
        experiment="fig15",
        title="Normalized off-chip traffic (and switching-traffic breakdown)",
        headers=["app", "virtual_thread", "reg_dram", "vt_regmutex",
                 "finereg", "rd_context_kb", "fr_bitvector_kb"],
        rows=rows,
        summary=summary,
        notes=("Paper: Reg+DRAM adds 7.2-9.9% traffic (context switching); "
               "VT/RegMutex/FineReg add <1% (FineReg's is bit vectors)."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = TRAFFIC_APPS):
    requests = []
    for app in apps:
        requests += [RunRequest.make(app, "baseline"),
                     RunRequest.make(app, "virtual_thread"),
                     RunRequest.make(app, "reg_dram", dram_pending_limit=4)]
        requests += [RunRequest.make(app, "vt_regmutex", srp_ratio=ratio)
                     for ratio in SRP_RATIOS]
        requests.append(RunRequest.make(app, "finereg"))
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: Reg+DRAM's context switching costs by far the most extra
    # traffic; FineReg's bit vectors cost almost nothing beyond VT.
    return [
        ('s["reg_dram_traffic_ratio"] >= s["finereg_traffic_ratio"] + 0.05',
         s["reg_dram_traffic_ratio"] >= s["finereg_traffic_ratio"] + 0.05),
        ('s["finereg_traffic_ratio"] '
         '<= s["virtual_thread_traffic_ratio"] + 0.05',
         s["finereg_traffic_ratio"]
         <= s["virtual_thread_traffic_ratio"] + 0.05),
        # On-chip schemes stay within a few percent of the baseline (paper
        # <1%).
        ('0.80 <= s["virtual_thread_traffic_ratio"] <= 1.10',
         0.80 <= s["virtual_thread_traffic_ratio"] <= 1.10),
        ('0.80 <= s["finereg_traffic_ratio"] <= 1.10',
         0.80 <= s["finereg_traffic_ratio"] <= 1.10),
    ]
