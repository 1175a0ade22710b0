"""Fig 18: scaling the number of SMs.

(a) FineReg keeps a >10% advantage over the baseline from 16 to 128 SMs.
(b) A "Baseline+Resource" design scaled to host the same number of CTAs as
FineReg gains only 3.6-5.3% more but costs 2.4-19.1 MB of extra SRAM,
whereas FineReg needs ~5 KB per SM.

Simulating 16-128 SMs cycle-by-cycle is impractical in Python, so the sweep
uses scaled-down SM counts with the same ratio ladder (the per-SM dynamics
that produce the FineReg advantage are SM-count independent once DRAM
bandwidth scales along, which :meth:`GPUConfig.with_num_sms` ensures).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.config import KB
from repro.core.overhead import finereg_overhead
from repro.experiments.common import ALL_APPS, Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

#: Scaled-down SM ladder standing in for the paper's 16/32/64/128.
SM_LADDER = (1, 2, 4, 8)

#: The paper's SM counts, for the overhead model.
PAPER_SM_LADDER = (16, 32, 64, 128)


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS,
        ladder: Sequence[int] = SM_LADDER) -> ExperimentResult:
    rows = []
    summary = {}
    for num_sms, paper_sms in zip(ladder, PAPER_SM_LADDER):
        config = runner.base_config.with_num_sms(num_sms)
        speedups = []
        extra_resource_rows = []
        baseline_plus = []
        for app in apps:
            base = runner.run(app, "baseline", config=config)
            fine = runner.run(app, "finereg", config=config)
            speedups.append(fine.ipc / base.ipc)
            # Baseline+Resource: scale scheduling + memory so the baseline
            # can host FineReg's resident CTA count.
            ratio = (fine.avg_resident_ctas_per_sm
                     / max(base.avg_resident_ctas_per_sm, 1e-9))
            factor = max(1.0, ratio)
            big = config.with_scheduling_scale(factor) \
                        .with_memory_scale(factor)
            big_result = runner.run(app, "baseline", config=big)
            baseline_plus.append(big_result.ipc / base.ipc)
            # Extra on-chip memory the scaled baseline needs, per SM.
            extra_bytes = (big.register_file_bytes
                           - config.register_file_bytes
                           + big.shared_memory_bytes
                           - config.shared_memory_bytes)
            extra_resource_rows.append(extra_bytes)

        fr = geomean(speedups)
        bp = geomean(baseline_plus)
        mean_extra_mb = (sum(extra_resource_rows) / len(extra_resource_rows)
                         * paper_sms / (1024 * 1024))
        finereg_kb = finereg_overhead().total_kb * paper_sms / 1024
        rows.append([paper_sms, fr, bp, mean_extra_mb, finereg_kb])
        summary[f"finereg_speedup_{paper_sms}sm"] = fr
        summary[f"baseline_resource_speedup_{paper_sms}sm"] = bp
        summary[f"overhead_mb_{paper_sms}sm"] = mean_extra_mb

    return ExperimentResult(
        experiment="fig18",
        title="SM-count scaling: FineReg vs resource-scaled baseline",
        headers=["sms", "finereg_speedup", "baseline+resource_speedup",
                 "extra_sram_mb", "finereg_overhead_mb"],
        rows=rows,
        summary=summary,
        notes=("Paper: FineReg >10% over baseline at every SM count; "
               "Baseline+Resource adds 3.6-5.3% more but needs 2.4-19.1 MB "
               "vs FineReg's tens of KB. SM counts simulated at a scaled "
               "ladder (see module docstring)."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = ALL_APPS,
         ladder: Sequence[int] = SM_LADDER):
    """Statically known run-set.  The Baseline+Resource points depend on
    measured CTA ratios, so they run (memoized) during ``run()``."""
    requests = []
    for num_sms in ladder:
        config = runner.base_config.with_num_sms(num_sms)
        for app in apps:
            requests.append(RunRequest.make(app, "baseline", config=config))
            requests.append(RunRequest.make(app, "finereg", config=config))
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Shape: FineReg stays ahead of the baseline at every SM count, and
    # matching its TLP with raw resources costs megabytes of SRAM (paper:
    # 2.4-19.1 MB) versus FineReg's tens of kilobytes.
    result: List[Claim] = []
    for sms in (16, 32, 64, 128):
        result += [
            (f's["finereg_speedup_{sms}sm"] > 1.0',
             s[f"finereg_speedup_{sms}sm"] > 1.0),
            (f's["overhead_mb_{sms}sm"] > 0.5',
             s[f"overhead_mb_{sms}sm"] > 0.5),
        ]
    result.append(('s["overhead_mb_128sm"] > s["overhead_mb_16sm"]',
                   s["overhead_mb_128sm"] > s["overhead_mb_16sm"]))
    return result
