"""Tests for the adaptive ACRF/PCRF repartitioning extension."""

import pytest

from repro.config import GPUConfig, TINY
from repro.core.acrf import ACRFAllocator
from repro.core.pcrf import PCRF
from repro.policies.finereg_adaptive import (
    AdaptiveFineRegPolicy,
    MIN_REGION,
    REPARTITION_STEP,
)
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


class TestResizePrimitives:
    def test_acrf_grow_and_shrink(self):
        acrf = ACRFAllocator(256)
        acrf.allocate(1, 100)
        acrf.resize(512)
        assert acrf.capacity == 512
        acrf.resize(128)
        assert acrf.capacity == 128
        with pytest.raises(MemoryError):
            acrf.resize(64)   # below the 100 in use

    def test_acrf_resize_validates(self):
        with pytest.raises(ValueError):
            ACRFAllocator(64).resize(0)

    def test_pcrf_grow(self):
        pcrf = PCRF(64)
        pcrf.spill(1, [(0, 0)])
        pcrf.resize(128)
        assert pcrf.capacity == 128
        assert pcrf.free_entries == 127
        assert pcrf.restore(1) == ((0, 0),)

    def test_pcrf_shrink_requires_free_top(self):
        pcrf = PCRF(64)
        pcrf.spill(1, [(0, r) for r in range(4)])  # slots 0-3
        pcrf.resize(32)
        assert pcrf.capacity == 32
        assert pcrf.free_entries == 28

    def test_pcrf_shrink_refused_when_top_occupied(self):
        pcrf = PCRF(8)
        pcrf.spill(1, [(0, r) for r in range(8)])  # fully occupied
        with pytest.raises(MemoryError):
            pcrf.resize(4)

    def test_pcrf_resize_respects_pointer_width(self):
        with pytest.raises(ValueError):
            PCRF(64).resize(2048)


class TestAdaptivePolicy:
    def _run(self, app):
        config = GPUConfig().with_num_sms(1)
        instance = build_workload(get_spec(app), config, TINY)
        gpu = GPU(config, instance.kernel, AdaptiveFineRegPolicy,
                  instance.trace_provider, instance.address_model,
                  liveness=instance.liveness)
        result = gpu.run(max_cycles=TINY.max_cycles)
        return gpu.sms[0].policy, result

    def test_completes_correctly(self):
        policy, result = self._run("KM")
        assert not result.timed_out
        assert result.completed_ctas > 0
        # Conservation still holds after any repartitioning.
        assert policy.acrf.used == 0
        assert policy.pcrf.used_entries == 0

    def test_total_capacity_is_invariant(self):
        policy, __ = self._run("LB")
        total = policy.acrf.capacity + policy.pcrf.capacity
        assert total == GPUConfig().rf_warp_registers

    def test_regions_respect_minimum(self):
        for app in ("KM", "LB", "LI"):
            policy, __ = self._run(app)
            assert policy.acrf.capacity >= MIN_REGION
            assert policy.pcrf.capacity >= MIN_REGION

    def test_step_granularity(self):
        policy, __ = self._run("SG")
        drift = abs(policy.acrf.capacity - GPUConfig().acrf_entries)
        assert drift % REPARTITION_STEP == 0

    def test_extras_report_repartitions(self):
        policy, __ = self._run("KM")
        extras = policy.extras()
        assert "repartitions_to_acrf" in extras
        assert "repartitions_to_pcrf" in extras

    def test_counts_an_acrf_refused_fill_on_a_drained_grid(self):
        """The dispatch arbiter asks ``can_launch`` before it looks at the
        grid, so an ACRF refusal counts as pressure after the grid has
        drained too (the per-epoch signal the campaign's adaptive cells
        were recorded with)."""
        config = GPUConfig().with_num_sms(1)
        instance = build_workload(get_spec("LB"), config, TINY)
        gpu = GPU(config, instance.kernel, AdaptiveFineRegPolicy,
                  instance.trace_provider, instance.address_model,
                  liveness=instance.liveness)
        sm = gpu.sms[0]
        policy = sm.policy
        (launch,) = gpu.launches
        assert policy.fill(0) > 0
        # ACRF-bound: slots are free, the next CTA's registers are not.
        assert sm.scheduler_slots_free(launch)
        assert not policy.acrf.can_allocate(launch.cta_regs)
        launch.grid.clear()
        before = policy._epoch_acrf_blocked
        assert policy.fill(0) == 0
        assert policy._epoch_acrf_blocked == before + 1

    def test_runner_integration(self, tiny_runner):
        result = tiny_runner.run("KM", "finereg_adaptive")
        base = tiny_runner.run("KM", "baseline")
        assert result.instructions == base.instructions
        assert result.policy == "finereg_adaptive"
