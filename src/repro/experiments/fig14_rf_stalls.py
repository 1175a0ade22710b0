"""Fig 14: (a) RegMutex's best SRP/BRS ratios and (b) stalls caused by
register-file depletion for the memory-intensive applications.

The paper finds RegMutex's optimum dedicates ~28.1% of the RF to the SRP on
average (20.8% for memory-intensive apps), and that VT+RegMutex stalls 7.5%
of execution time on SRP exhaustion (leases held across memory stalls)
while FineReg stalls only 1.3% on PCRF depletion.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    ALL_APPS,
    MEMORY_INTENSIVE_APPS,
    SRP_RATIOS,
    Claim,
    ExperimentResult,
    best_regmutex,
)
from repro.experiments.parallel import RunRequest
from repro.experiments.runner import ExperimentRunner


def run(runner: ExperimentRunner,
        apps: Sequence[str] = MEMORY_INTENSIVE_APPS,
        ratio_apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    # (a) Best SRP ratios per app.
    ratios = {}
    for app in ratio_apps:
        __, ratio = best_regmutex(runner, app)
        ratios[app] = ratio

    # (b) Stall fractions for the memory-intensive trio.
    rows = []
    rm_stalls = []
    fr_stalls = []
    for app in apps:
        rm, ratio = best_regmutex(runner, app)
        fr = runner.run(app, "finereg")
        rm_frac = rm.srp_stall_cycles / rm.cycles if rm.cycles else 0.0
        fr_frac = fr.rf_depletion_fraction
        rm_stalls.append(rm_frac)
        fr_stalls.append(fr_frac)
        rows.append([app, ratio, rm_frac, fr_frac])

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    summary = {
        "mean_srp_ratio_all": mean(list(ratios.values())),
        "mean_srp_ratio_memory_intensive": mean(
            [ratios[a] for a in apps if a in ratios]),
        "regmutex_stall_fraction": mean(rm_stalls),
        "finereg_stall_fraction": mean(fr_stalls),
    }
    return ExperimentResult(
        experiment="fig14",
        title="SRP/BRS ratios and register-file depletion stalls",
        headers=["app", "best_srp_ratio", "regmutex_stall_frac",
                 "finereg_stall_frac"],
        rows=rows,
        summary=summary,
        notes=("Paper: best SRP ratio ~28.1% on average (20.8% for KM/SY2/"
               "BF); VT+RegMutex stalls 7.5% of time on SRP vs FineReg's "
               "1.3% on PCRF."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = MEMORY_INTENSIVE_APPS,
         ratio_apps: Sequence[str] = ALL_APPS):
    ordered = list(dict.fromkeys(list(ratio_apps) + list(apps)))
    requests = [RunRequest.make(app, "vt_regmutex", srp_ratio=ratio)
                for app in ordered for ratio in SRP_RATIOS]
    requests += [RunRequest.make(app, "finereg") for app in apps]
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    return [
        # Best SRP ratios land in the paper's neighbourhood (~20-35%).
        ('0.15 <= s["mean_srp_ratio_all"] <= 0.40',
         0.15 <= s["mean_srp_ratio_all"] <= 0.40),
        # FineReg's PCRF-depletion stalls stay small (paper: 1.3%).
        ('s["finereg_stall_fraction"] <= 0.10',
         s["finereg_stall_fraction"] <= 0.10),
        # RegMutex's lease-across-stall pathology costs at least as much.
        ('s["regmutex_stall_fraction"] >= s["finereg_stall_fraction"] - 0.01',
         s["regmutex_stall_fraction"] >= s["finereg_stall_fraction"] - 0.01),
    ]
