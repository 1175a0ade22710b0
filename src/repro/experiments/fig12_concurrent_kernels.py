"""Concurrent kernels: co-resident occupancy under shared SM budgets.

Companion to Fig 12 for multi-kernel contention: two grids co-resident on
every SM share one Table-I budget (CTA/warp/thread slots, registers, shared
memory).  The baseline holds each stalled CTA's full allocation, so one
register- or shmem-hungry kernel starves its partner's dispatch; FineReg
reclaims stalled live sets into the PCRF, hosting more CTAs of *both*
kernels on the same shared budget.

Runs go through :meth:`~repro.sim.gpu.GPU.concurrent` directly (the
persistent cache is keyed by single-kernel specs), memoized per runner.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.runner import POLICIES, ExperimentRunner
from repro.sim.gpu import GPU
from repro.sim.stats import SimResult
from repro.workloads.apps import APP_POOLS, build_app

#: Contended pairs (see :data:`repro.workloads.apps.APP_POOLS`).
POOLS: Tuple[str, ...] = ("st+km", "hs+lb", "lb+km", "hs+st")

CONFIGS = ("baseline", "finereg")


def run_concurrent(runner: ExperimentRunner, pool_name: str, policy: str,
                   arbitration: str = "round_robin") -> SimResult:
    """One concurrent simulation, memoized on the runner instance."""
    memo: Dict[Tuple, SimResult] = getattr(runner, "_concurrent_memo", None)
    if memo is None:
        memo = {}
        runner._concurrent_memo = memo
    key = (pool_name, policy, arbitration)
    result = memo.get(key)
    if result is None:
        specs = build_app(APP_POOLS[pool_name], runner.base_config,
                          runner.scale)
        gpu = GPU.concurrent(runner.base_config, specs, POLICIES[policy](),
                             arbitration=arbitration)
        result = gpu.run(max_cycles=runner.scale.max_cycles)
        memo[key] = result
    return result


def run(runner: ExperimentRunner,
        pools: Sequence[str] = POOLS) -> ExperimentResult:
    rows = []
    ratios = []
    speedups = []
    for pool_name in pools:
        base = run_concurrent(runner, pool_name, "baseline")
        fine = run_concurrent(runner, pool_name, "finereg")
        ratio = fine.avg_resident_ctas_per_sm / base.avg_resident_ctas_per_sm
        speedup = base.cycles / fine.cycles
        ratios.append(ratio)
        speedups.append(speedup)
        rows.append([pool_name,
                     base.avg_resident_ctas_per_sm,
                     fine.avg_resident_ctas_per_sm,
                     ratio, speedup])

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    summary = {
        "finereg_concurrent_cta_ratio": mean(ratios),
        "finereg_concurrent_speedup": mean(speedups),
        "max_concurrent_cta_ratio": max(ratios) if ratios else 0.0,
    }
    return ExperimentResult(
        experiment="fig12ck",
        title="Co-resident CTAs per SM with concurrent kernels",
        headers=["pool", "baseline", "finereg", "cta_ratio", "speedup"],
        rows=rows,
        summary=summary,
        notes=("Two grids share each SM's Table-I budget; FineReg's "
               "stalled-live-set reclamation hosts more CTAs of both "
               "kernels than the baseline's full static allocations."),
    )
