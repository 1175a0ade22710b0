"""End-to-end concurrent-kernel simulation tests.

Runs real two-kernel apps through ``GPU.concurrent`` under every policy and
pins the result-surface contract: per-kernel attribution sums to the
whole-GPU totals, every CTA of every grid completes, the telemetry session
exposes the same attribution, and the fig12ck experiment module produces
its summary keys with FineReg ahead of the baseline.
"""

from __future__ import annotations

import math

import pytest

from repro.config import TINY, default_config
from repro.experiments import fig12_concurrent_kernels
from repro.experiments.runner import POLICIES
from repro.obs.telemetry import attach_telemetry
from repro.sim.cta import CTASim, CTAState
from repro.sim.gpu import GPU
from repro.sim.launch import DispatchArbiter
from repro.workloads.apps import APP_POOLS, AppPool, StreamSpec, build_app
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

CONFIG = default_config(TINY)

#: Attribution fields that must sum exactly across launches.
EXACT_SUM_FIELDS = ("instructions", "cta_switch_events", "completed_ctas")


def run_pool(pool_name: str, policy: str, arbitration: str = "priority",
             pool: AppPool = None):
    chosen = pool if pool is not None else APP_POOLS[pool_name]
    specs = build_app(chosen, CONFIG, TINY)
    gpu = GPU.concurrent(CONFIG, specs, POLICIES[policy](),
                         arbitration=arbitration)
    result = gpu.run(max_cycles=TINY.max_cycles)
    return result, gpu


# ----------------------------------------------------------------------
# Completion and attribution, every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestEveryPolicy:
    def test_all_grids_complete(self, policy):
        result, gpu = run_pool("st+km", policy)
        assert not result.timed_out
        assert result.completed_ctas == sum(
            launch.grid_ctas for launch in gpu.launches)
        assert all(launch.remaining == 0 for launch in gpu.launches)

    def test_per_kernel_attribution_sums_to_totals(self, policy):
        result, gpu = run_pool("st+km", policy)
        per_kernel = result.per_kernel
        assert per_kernel is not None
        assert set(per_kernel) == {l.label for l in gpu.launches}
        for field in EXACT_SUM_FIELDS:
            total = getattr(result, field)
            assert sum(e[field] for e in per_kernel.values()) == total, field
        # Time-weighted integrals: per-kernel occupancies partition the
        # whole-GPU averages (float accumulation, so isclose not ==).
        assert math.isclose(
            sum(e["avg_active_ctas_per_sm"] for e in per_kernel.values()),
            result.avg_active_ctas_per_sm, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(
            sum(e["avg_active_warps_per_sm"] for e in per_kernel.values())
            * 32,
            result.avg_active_threads_per_sm, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# Result surface
# ----------------------------------------------------------------------
class TestResultSurface:
    def test_workload_name_joins_kernels(self):
        result, gpu = run_pool("hs+lb", "baseline")
        assert result.workload == "+".join(
            l.kernel.name for l in gpu.launches)

    def test_per_kernel_entries_carry_grid_metadata(self):
        result, gpu = run_pool("hs+lb", "baseline")
        for launch in gpu.launches:
            entry = result.per_kernel[launch.label]
            assert entry["grid_ctas"] == launch.grid_ctas
            assert entry["completed_ctas"] == launch.grid_ctas
            assert entry["instructions"] > 0

    def test_single_kernel_runs_have_no_per_kernel(self):
        instance = build_workload(get_spec("KM"), CONFIG, TINY)
        gpu = GPU(CONFIG, instance.kernel, POLICIES["baseline"](),
                  instance.trace_provider, instance.address_model,
                  liveness=instance.liveness)
        result = gpu.run(max_cycles=TINY.max_cycles)
        assert result.per_kernel is None

    def test_priority_skew_shifts_attribution(self):
        # Give ST strict priority over KM: under priority arbitration the
        # prioritized stream must not finish with less issue share than it
        # gets under round-robin with equal priorities.
        pool = AppPool("skew", (StreamSpec("ST", priority=2),
                                StreamSpec("KM")))
        result, gpu = run_pool(None, "baseline", pool=pool)
        prio_label = gpu.launches[0].label
        assert result.per_kernel[prio_label]["instructions"] > 0
        assert result.per_kernel[prio_label]["completed_ctas"] \
            == gpu.launches[0].grid_ctas


# ----------------------------------------------------------------------
# Dispatch bookkeeping
# ----------------------------------------------------------------------
class TestDispatchBookkeeping:
    def test_launch_for_cta_maps_whole_id_space(self):
        specs = build_app(APP_POOLS["st+km"], CONFIG, TINY)
        gpu = GPU.concurrent(CONFIG, specs, POLICIES["baseline"]())
        total = sum(l.grid_ctas for l in gpu.launches)
        for cta_id in range(total):
            assert gpu.launch_for_cta(cta_id).owns_cta(cta_id)
        with pytest.raises(ValueError, match="outside"):
            gpu.launch_for_cta(total)

    def test_one_launch_run_dispatches_through_the_arbiter(self):
        instance = build_workload(get_spec("KM"), CONFIG, TINY)
        gpu = GPU(CONFIG, instance.kernel, POLICIES["baseline"](),
                  instance.trace_provider, instance.address_model,
                  liveness=instance.liveness)
        (launch,) = gpu.launches
        assert isinstance(gpu.arbiter, DispatchArbiter)
        assert gpu.arbiter.launches == [launch]
        # The engine loops drain the launch's own deque, not a GridView.
        assert gpu._grid is launch.grid

    def test_concurrent_requires_shared_address_model_type(self):
        km = build_workload(get_spec("KM"), CONFIG, TINY)
        from repro.sim.launch import LaunchSpec

        alien = LaunchSpec(kernel=km.kernel,
                           trace_provider=km.trace_provider,
                           address_model=object())
        good = LaunchSpec.from_workload(km)
        with pytest.raises(ValueError, match="address-model type"):
            GPU.concurrent(CONFIG, [good, alien], POLICIES["baseline"]())

    def test_unknown_arbitration_rejected(self):
        specs = build_app(APP_POOLS["st+km"], CONFIG, TINY)
        with pytest.raises(ValueError, match="arbitration"):
            GPU.concurrent(CONFIG, specs, POLICIES["baseline"](),
                           arbitration="fifo")


# ----------------------------------------------------------------------
# Ready-CTA selection with mixed footprints
# ----------------------------------------------------------------------
class TestMixedFootprintSelection:
    """The ready-CTA pick is the lowest id among CTAs whose *launch* fits:
    a lower-id CTA of a launch that does not fit is skipped, and the fit
    is asked once per launch, not once per candidate."""

    def _setup(self):
        specs = build_app(APP_POOLS["hs+lb"], CONFIG, TINY)
        gpu = GPU.concurrent(CONFIG, specs, POLICIES["virtual_thread"]())
        big, small = gpu.launches
        assert big.warps_per_cta > small.warps_per_cta
        sm = gpu.sms[0]
        # Exactly one small CTA's worth of warp slots is left.
        sm._active_warps = CONFIG.max_warps_per_sm - small.warps_per_cta
        sm._active_threads = 32 * sm._active_warps
        assert sm.scheduler_slots_free(small)
        assert not sm.scheduler_slots_free(big)
        tracker = sm.policy.pending
        ctas = {}
        for launch in (big, small):
            for offset in range(2):
                cta = CTASim(launch.cta_base + offset, [])
                cta.launch = launch
                cta.state = CTAState.PENDING
                tracker.add(cta, ready_time=0)
                ctas[cta.cta_id] = cta
        return gpu, sm.policy, ctas

    def test_skips_lower_id_ready_cta_whose_launch_does_not_fit(self):
        gpu, policy, ctas = self._setup()
        big, small = gpu.launches
        assert big.cta_base < small.cta_base
        picked = policy._pop_ready_fitting(policy.pending, 0)
        assert picked is ctas[small.cta_base]
        left = sorted(c.cta_id for c in policy.pending.ready_ctas(0))
        assert left == [big.cta_base, big.cta_base + 1, small.cta_base + 1]

    def test_fit_is_asked_once_per_launch(self):
        gpu, policy, __ = self._setup()
        sm = gpu.sms[0]
        asked = []
        slots_free = sm.scheduler_slots_free

        def counting(launch):
            asked.append(launch)
            return slots_free(launch)

        sm.scheduler_slots_free = counting
        assert policy._pop_ready_fitting(policy.pending, 0) is not None
        assert asked == gpu.launches


# ----------------------------------------------------------------------
# Telemetry attribution
# ----------------------------------------------------------------------
class TestTelemetryKernels:
    def test_concurrent_payload_carries_kernel_summary(self):
        specs = build_app(APP_POOLS["st+km"], CONFIG, TINY)
        gpu = GPU.concurrent(CONFIG, specs, POLICIES["finereg"]())
        session = attach_telemetry(gpu)
        result = gpu.run(max_cycles=TINY.max_cycles)
        kernels = session.as_payload()["kernels"]
        assert set(kernels) == {l.label for l in gpu.launches}
        for launch in gpu.launches:
            entry = kernels[launch.label]
            assert entry["stream"] == launch.stream
            assert entry["priority"] == launch.priority
            assert entry["kernel"] == launch.kernel.name
            assert entry["grid_ctas"] == launch.grid_ctas
        # Same accounting as the SimResult attribution.
        assert sum(e["instructions"] for e in kernels.values()) \
            == result.instructions

    def test_single_kernel_payload_has_none(self):
        instance = build_workload(get_spec("KM"), CONFIG, TINY)
        gpu = GPU(CONFIG, instance.kernel, POLICIES["baseline"](),
                  instance.trace_provider, instance.address_model,
                  liveness=instance.liveness)
        session = attach_telemetry(gpu)
        gpu.run(max_cycles=TINY.max_cycles)
        assert session.as_payload()["kernels"] is None


# ----------------------------------------------------------------------
# fig12ck experiment module
# ----------------------------------------------------------------------
class TestFig12ConcurrentKernels:
    def test_runs_and_produces_summary(self, tiny_runner):
        res = fig12_concurrent_kernels.run(tiny_runner,
                                           pools=("st+km", "hs+lb"))
        assert len(res.rows) == 2
        for key in ("finereg_concurrent_cta_ratio",
                    "finereg_concurrent_speedup",
                    "max_concurrent_cta_ratio"):
            assert key in res.summary
        # Acceptance: FineReg hosts more co-resident CTAs than the
        # baseline in at least one contended pool.
        assert res.summary["max_concurrent_cta_ratio"] > 1.0

    def test_runs_memoized_on_runner(self, tiny_runner):
        first = fig12_concurrent_kernels.run_concurrent(
            tiny_runner, "st+km", "baseline")
        second = fig12_concurrent_kernels.run_concurrent(
            tiny_runner, "st+km", "baseline")
        assert first is second
