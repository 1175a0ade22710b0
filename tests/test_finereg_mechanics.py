"""White-box tests of FineReg's switching mechanics (paper V-B/V-E).

These build a GPU by hand (no runner) so the policy object is reachable,
then drive scenarios the result-level tests cannot pin down: the PCRF-full
swap path with its eviction-credit rule, status-monitor bookkeeping across
a spill/restore cycle, and ACRF conservation under churn.
"""

import dataclasses

import pytest

from repro.config import GPUConfig, TINY
from repro.core.status_monitor import ContextLocation, RegisterLocation
from repro.policies.finereg import FineRegPolicy
from repro.sim.cta import CTAState
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def build_gpu(app="LI", pcrf_kb=128, num_sms=1):
    config = GPUConfig().with_num_sms(num_sms)
    config = config.with_rf_split(256 - pcrf_kb, pcrf_kb)
    instance = build_workload(get_spec(app), config, TINY)
    gpu = GPU(config, instance.kernel, FineRegPolicy,
              instance.trace_provider, instance.address_model,
              liveness=instance.liveness)
    return gpu


class TestSpillRestoreCycle:
    def test_full_run_conserves_acrf(self):
        gpu = build_gpu()
        gpu.run(max_cycles=TINY.max_cycles)
        policy = gpu.sms[0].policy
        assert policy.acrf.used == 0
        assert policy.acrf.free == policy.acrf.capacity
        assert policy.pcrf.used_entries == 0
        assert policy.monitor.resident_count == 0

    def test_spills_eventually_restore(self):
        gpu = build_gpu()
        gpu.run(max_cycles=TINY.max_cycles)
        rmu = gpu.sms[0].policy.rmu
        assert rmu.stats.spills == rmu.stats.restores
        assert rmu.stats.spilled_registers == rmu.stats.restored_registers

    def test_live_spills_are_smaller_than_full_context(self):
        """The point of the paper: pending CTAs cost only their live set."""
        gpu = build_gpu()
        gpu.run(max_cycles=TINY.max_cycles)
        policy = gpu.sms[0].policy
        if policy.rmu.stats.spills == 0:
            pytest.skip("no switching occurred at this scale")
        mean_spill = (policy.rmu.stats.spilled_registers
                      / policy.rmu.stats.spills)
        full = gpu.launches[0].cta_regs
        assert mean_spill < 0.75 * full


class TestPCRFFullSwapPath:
    def test_small_pcrf_forces_swaps_or_rejections(self):
        """With a 64 KB PCRF the eviction-credit path (V-E) must engage:
        either paired swaps happen or spills get rejected -- never an
        overflow crash."""
        gpu = build_gpu(app="LI", pcrf_kb=64)
        result = gpu.run(max_cycles=TINY.max_cycles)
        policy = gpu.sms[0].policy
        assert not result.timed_out
        # The run completes correctly regardless of PCRF pressure.
        assert result.completed_ctas == gpu.kernel.geometry.grid_ctas
        if policy.rmu.stats.spills:
            assert policy.pcrf.capacity == 64 * 1024 // 128

    def test_monitor_tracks_locations(self):
        gpu = build_gpu()
        sm = gpu.sms[0]
        policy = sm.policy
        policy.fill(0)
        assert policy.monitor.resident_count == len(sm.active_ctas)
        cta = sm.active_ctas[0]
        status = policy.monitor.status_of(cta.cta_id)
        assert status.context is ContextLocation.PIPELINE
        assert status.registers is RegisterLocation.ACRF

    def test_manual_spill_updates_all_structures(self):
        gpu = build_gpu()
        sm = gpu.sms[0]
        policy = sm.policy
        policy.fill(0)
        cta = sm.active_ctas[0]
        warp_pcs = [(w.warp_id, w.trace[w.pos] * 4) for w in cta.warps]
        acrf_before = policy.acrf.used
        policy._spill(cta, warp_pcs, now=0)
        # ACRF freed, PCRF holds the live set, monitor flipped to pending.
        assert policy.acrf.used == acrf_before - gpu.launches[0].cta_regs
        assert policy.pcrf.holds(cta.cta_id)
        status = policy.monitor.status_of(cta.cta_id)
        assert status.context is ContextLocation.SHARED_MEMORY
        assert status.registers is RegisterLocation.PCRF
        assert cta.state is CTAState.TRANSIT

    def test_manual_restore_reverses_spill(self):
        gpu = build_gpu()
        sm = gpu.sms[0]
        policy = sm.policy
        policy.fill(0)
        cta = sm.active_ctas[0]
        warp_pcs = [(w.warp_id, w.trace[w.pos] * 4) for w in cta.warps]
        policy._spill(cta, warp_pcs, now=0)
        cta.settle_transit(10 ** 9)
        sm.pending_ctas.append(cta)
        policy._restore(cta, now=10 ** 9)
        assert not policy.pcrf.holds(cta.cta_id)
        assert policy.acrf.holds(cta.cta_id)
        assert policy.monitor.status_of(cta.cta_id).is_active


class TestResidencyCap:
    def test_cap_respects_monitor_limit(self):
        gpu = build_gpu()
        policy = gpu.sms[0].policy
        assert policy._resident_cap <= gpu.config.max_resident_ctas

    def test_bus_throttle_threshold_positive(self):
        gpu = build_gpu()
        assert gpu.sms[0].policy.bus_backlog_threshold > 0
