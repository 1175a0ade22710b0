"""Fig 3: on-chip memory overhead of allocating one additional CTA.

The paper reports 6-37.3 KB per extra CTA, with registers accounting for
88.7% of the total across the suite.  This is a static property of the
kernels' resource envelopes, so no simulation is needed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import ALL_APPS, Claim, ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suite import get_spec

KB = 1024.0


def run(runner: ExperimentRunner,
        apps: Sequence[str] = ALL_APPS) -> ExperimentResult:
    rows = []
    total_regs = 0
    total_shmem = 0
    for app in apps:
        spec = get_spec(app)
        regs = spec.register_bytes_per_cta
        shmem = spec.shmem_per_cta
        total_regs += regs
        total_shmem += shmem
        rows.append([
            app,
            regs / KB,
            shmem / KB,
            (regs + shmem) / KB,
            regs / (regs + shmem) if regs + shmem else 0.0,
        ])
    overall = total_regs + total_shmem
    summary = {
        "min_overhead_kb": min(row[3] for row in rows),
        "max_overhead_kb": max(row[3] for row in rows),
        "register_share": total_regs / overall if overall else 0.0,
    }
    return ExperimentResult(
        experiment="fig03",
        title="Per-CTA on-chip overhead (registers vs shared memory)",
        headers=["app", "reg_kb", "shmem_kb", "total_kb", "reg_share"],
        rows=rows,
        summary=summary,
        notes=("Paper: 6-37.3 KB per extra CTA; registers are 88.7% of the "
               "total overhead."),
    )


def claims(s: Dict[str, float]) -> List[Claim]:
    # Paper: 6-37.3 KB per extra CTA, registers ~88.7% of the total.
    return [
        ('2.0 <= s["min_overhead_kb"] <= 10.0',
         2.0 <= s["min_overhead_kb"] <= 10.0),
        ('25.0 <= s["max_overhead_kb"] <= 40.0',
         25.0 <= s["max_overhead_kb"] <= 40.0),
        ('s["register_share"] >= 0.75', s["register_share"] >= 0.75),
    ]
