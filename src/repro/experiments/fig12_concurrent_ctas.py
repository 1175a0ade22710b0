"""Fig 12: number of concurrent (resident) CTAs per configuration.

The paper reports FineReg running substantially more CTAs than the baseline
(+111.8% on average; Type-S apps gain much more than Type-R), more than
Virtual Thread and Reg+DRAM, while VT+RegMutex packs ~11.5% more CTAs than
FineReg yet performs worse (Fig 13).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    ALL_APPS,
    TYPE_R_APPS,
    TYPE_S_APPS,
    Claim,
    ExperimentResult,
    main_config_results,
    plan_main_configs,
)
from repro.experiments.runner import ExperimentRunner

CONFIGS = ("baseline", "virtual_thread", "reg_dram", "vt_regmutex",
           "finereg")

#: Full run-set for up-front pool dispatch (shared with Figs 13/16).
plan = plan_main_configs


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    rows = []
    ratios = {config: [] for config in CONFIGS if config != "baseline"}
    type_ratios = {"S": [], "R": []}
    for app in apps:
        results = main_config_results(runner, app)
        base = results["baseline"].avg_resident_ctas_per_sm
        row = [app] + [results[c].avg_resident_ctas_per_sm for c in CONFIGS]
        rows.append(row)
        for config in ratios:
            ratios[config].append(
                results[config].avg_resident_ctas_per_sm / base)
        wtype = "S" if app in TYPE_S_APPS else "R"
        type_ratios[wtype].append(
            results["finereg"].avg_resident_ctas_per_sm / base)

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    summary = {
        f"{config}_cta_ratio": mean(values)
        for config, values in ratios.items()
    }
    summary["finereg_type_s_ratio"] = mean(type_ratios["S"])
    summary["finereg_type_r_ratio"] = mean(type_ratios["R"])
    return ExperimentResult(
        experiment="fig12",
        title="Concurrent CTAs per SM across configurations",
        headers=["app"] + list(CONFIGS),
        rows=rows,
        summary=summary,
        notes=("Paper: FineReg +111.8% CTAs vs baseline (Type-S +203.8%, "
               "Type-R +79.8%); VT+RegMutex packs ~11.5% more CTAs than "
               "FineReg."),
    )


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: FineReg runs more CTAs than the baseline and than Virtual
    # Thread; Type-S apps gain more residency than Type-R (paper VI-B).
    return [
        ('s["finereg_cta_ratio"] > 1.2', s["finereg_cta_ratio"] > 1.2),
        ('s["finereg_cta_ratio"] > s["virtual_thread_cta_ratio"]',
         s["finereg_cta_ratio"] > s["virtual_thread_cta_ratio"]),
        ('s["finereg_type_s_ratio"] > s["finereg_type_r_ratio"]',
         s["finereg_type_s_ratio"] > s["finereg_type_r_ratio"]),
        # Reg+DRAM residency sits at or above plain Virtual Thread.
        ('s["reg_dram_cta_ratio"] >= s["virtual_thread_cta_ratio"] - 0.05',
         s["reg_dram_cta_ratio"] >= s["virtual_thread_cta_ratio"] - 0.05),
    ]
