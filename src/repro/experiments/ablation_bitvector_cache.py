"""Ablation: live bit-vector cache sizing (paper V-C design choice).

The paper states 32 direct-mapped entries were "empirically obtained" to be
sufficient because only a few static instructions cause stalls.  This
ablation sweeps the cache size and reports hit rate and performance -- the
experiment behind that sentence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.experiments.common import Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

SIZES = (1, 4, 16, 32, 64)
DEFAULT_APPS = ("KM", "CS", "LB", "SR")


def run(runner: ExperimentRunner,
        apps: Sequence[str] = DEFAULT_APPS,
        sizes: Sequence[int] = SIZES) -> ExperimentResult:
    rows = []
    summary = {}
    for size in sizes:
        config = dataclasses.replace(runner.base_config,
                                     bitvector_cache_entries=size)
        hit_rates = []
        speedups = []
        for app in apps:
            base = runner.run(app, "baseline")
            fine = runner.run(app, "finereg", config=config)
            speedups.append(fine.ipc / base.ipc)
            if fine.bitvector_hit_rate is not None:
                hit_rates.append(fine.bitvector_hit_rate)
        mean_hit = sum(hit_rates) / len(hit_rates) if hit_rates else 0.0
        speedup = geomean(speedups)
        rows.append([size, mean_hit, speedup])
        summary[f"hit_rate_{size}"] = mean_hit
        summary[f"speedup_{size}"] = speedup
    return ExperimentResult(
        experiment="ablation_bvcache",
        title="Live bit-vector cache size vs hit rate and FineReg speedup",
        headers=["entries", "hit_rate", "finereg_speedup"],
        rows=rows,
        summary=summary,
        notes=("Paper V-C: 32 entries suffice because only a few static "
               "instructions cause stalls; hit rate should saturate near "
               "that size."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = DEFAULT_APPS,
         sizes: Sequence[int] = SIZES):
    requests = [RunRequest.make(app, "baseline") for app in apps]
    for size in sizes:
        config = dataclasses.replace(runner.base_config,
                                     bitvector_cache_entries=size)
        requests += [RunRequest.make(app, "finereg", config=config)
                     for app in apps]
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # Paper V-C: 32 entries suffice; hit rate saturates there.
    return [
        ('s["hit_rate_32"] >= s["hit_rate_1"]',
         s["hit_rate_32"] >= s["hit_rate_1"]),
        ('s["hit_rate_64"] - s["hit_rate_32"] < 0.05',
         s["hit_rate_64"] - s["hit_rate_32"] < 0.05),
        ('s["hit_rate_32"] > 0.80', s["hit_rate_32"] > 0.80),
    ]
