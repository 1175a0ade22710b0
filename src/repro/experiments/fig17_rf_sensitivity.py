"""Fig 17: sensitivity to the ACRF/PCRF split.

The total register file stays 256 KB while the split varies from 64/192 to
192/64.  The paper finds the balanced 128/128 split best: 160/96 loses 5.4%
(less TLP), and 64/192 loses 12.9% (too few active CTAs, constant
switching) despite maximizing the resident CTA count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import ALL_APPS, Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

#: (ACRF KB, PCRF KB) splits of the 256 KB register file.
SPLITS = ((64, 192), (96, 160), (128, 128), (160, 96), (192, 64))


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    speedups = {split: [] for split in SPLITS}
    cta_ratios = {split: [] for split in SPLITS}
    for app in apps:
        base = runner.run(app, "baseline")
        for split in SPLITS:
            acrf_kb, pcrf_kb = split
            config = runner.base_config.with_rf_split(acrf_kb, pcrf_kb)
            result = runner.run(app, "finereg", config=config)
            speedups[split].append(result.ipc / base.ipc)
            cta_ratios[split].append(result.avg_resident_ctas_per_sm
                                     / base.avg_resident_ctas_per_sm)

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    rows = []
    for split in SPLITS:
        rows.append([
            f"{split[0]}/{split[1]}",
            geomean(speedups[split]),
            mean(cta_ratios[split]),
        ])
    by_speedup = {f"{s[0]}/{s[1]}": geomean(speedups[s]) for s in SPLITS}
    best = max(by_speedup, key=by_speedup.get)
    summary = {f"speedup_{key.replace('/', '_')}": value
               for key, value in by_speedup.items()}
    summary["best_is_128_128"] = 1.0 if best == "128/128" else 0.0
    return ExperimentResult(
        experiment="fig17",
        title="FineReg sensitivity to the ACRF/PCRF split (total 256 KB)",
        headers=["acrf/pcrf_kb", "geomean_speedup", "cta_ratio"],
        rows=rows,
        summary=summary,
        notes=("Paper: 128/128 is best; 160/96 -5.4%, 64/192 -12.9% despite "
               "the highest CTA count."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = ALL_APPS):
    requests = []
    for app in apps:
        requests.append(RunRequest.make(app, "baseline"))
        for acrf_kb, pcrf_kb in SPLITS:
            config = runner.base_config.with_rf_split(acrf_kb, pcrf_kb)
            requests.append(RunRequest.make(app, "finereg", config=config))
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: the balanced 128/128 split beats both extremes (paper:
    # 64/192 loses 12.9%, 160/96 loses 5.4%).
    return [
        ('s["speedup_128_128"] >= s["speedup_64_192"]',
         s["speedup_128_128"] >= s["speedup_64_192"]),
        ('s["speedup_128_128"] >= s["speedup_192_64"] - 0.02',
         s["speedup_128_128"] >= s["speedup_192_64"] - 0.02),
    ]
