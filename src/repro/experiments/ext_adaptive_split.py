"""Extension experiment: adaptive vs. static ACRF/PCRF splits.

Fig 17 fixes the split statically; the adaptive policy moves the boundary
at runtime toward whichever region is under pressure.  The interesting
comparison is per workload class: register-hungry Type-R apps should pull
the boundary toward the ACRF, low-live apps toward the PCRF, and the
adaptive scheme should approach each app's best *static* split without
knowing it in advance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import ALL_APPS, Claim, ExperimentResult
from repro.experiments.parallel import RunRequest
from repro.experiments.report import geomean
from repro.experiments.runner import ExperimentRunner

STATIC_SPLITS = ((96, 160), (128, 128), (160, 96))
DEFAULT_APPS = ("KM", "CS", "LI", "LB", "SG", "SR")


def run(runner: ExperimentRunner,
        apps: Sequence[str] = DEFAULT_APPS) -> ExperimentResult:
    rows = []
    adaptive_speedups = []
    best_static_speedups = []
    default_speedups = []
    for app in apps:
        base = runner.run(app, "baseline")
        per_split = {}
        for acrf_kb, pcrf_kb in STATIC_SPLITS:
            config = runner.base_config.with_rf_split(acrf_kb, pcrf_kb)
            result = runner.run(app, "finereg", config=config)
            per_split[f"{acrf_kb}/{pcrf_kb}"] = result.ipc / base.ipc
        adaptive = runner.run(app, "finereg_adaptive")
        adaptive_ratio = adaptive.ipc / base.ipc
        best_key = max(per_split, key=per_split.get)
        adaptive_speedups.append(adaptive_ratio)
        best_static_speedups.append(per_split[best_key])
        default_speedups.append(per_split["128/128"])
        rows.append([
            app,
            per_split["96/160"],
            per_split["128/128"],
            per_split["160/96"],
            adaptive_ratio,
            best_key,
        ])

    summary = {
        "adaptive_speedup": geomean(adaptive_speedups),
        "static_128_128_speedup": geomean(default_speedups),
        "best_static_speedup": geomean(best_static_speedups),
    }
    summary["adaptive_vs_default"] = (summary["adaptive_speedup"]
                                      / summary["static_128_128_speedup"])
    return ExperimentResult(
        experiment="ext_adaptive_split",
        title="Adaptive ACRF/PCRF boundary vs static splits",
        headers=["app", "96/160", "128/128", "160/96", "adaptive",
                 "best_static"],
        rows=rows,
        summary=summary,
        notes=("Extension beyond the paper: the adaptive boundary should "
               "track each app's best static split (oracle) from the "
               "paper's default without per-app tuning."),
    )


def plan(runner: ExperimentRunner,
         apps: Sequence[str] = DEFAULT_APPS):
    requests = []
    for app in apps:
        requests += [RunRequest.make(app, "baseline"),
                     RunRequest.make(app, "finereg_adaptive")]
        for acrf_kb, pcrf_kb in STATIC_SPLITS:
            config = runner.base_config.with_rf_split(acrf_kb, pcrf_kb)
            requests.append(RunRequest.make(app, "finereg", config=config))
    return requests


def claims(s: Dict[str, float]) -> List[Claim]:
    # The adaptive boundary must not lose to the fixed default, and the
    # per-app oracle bounds it from above.
    return [
        ('s["adaptive_vs_default"] > 0.95', s["adaptive_vs_default"] > 0.95),
        ('s["adaptive_speedup"] <= s["best_static_speedup"] + 0.05',
         s["adaptive_speedup"] <= s["best_static_speedup"] + 0.05),
    ]
