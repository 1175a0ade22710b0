"""Tests for the shared policy base class behaviours."""

import pytest

from repro.config import GPUConfig, TINY
from repro.policies.baseline import BaselinePolicy
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def fresh_gpu(app="KM", policy=BaselinePolicy):
    config = GPUConfig().with_num_sms(1)
    instance = build_workload(get_spec(app), config, TINY)
    return GPU(config, instance.kernel, policy,
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


class TestFill:
    def test_fill_launches_to_the_binding_limit(self):
        gpu = fresh_gpu("LB")   # register-bound: 2048 // 192 = 10 CTAs
        policy = gpu.sms[0].policy
        launched = policy.fill(0)
        assert launched == 10
        assert policy.rf_used_entries == 10 * gpu.launches[0].cta_regs

    def test_fill_stops_when_grid_empty(self):
        gpu = fresh_gpu("KM")
        policy = gpu.sms[0].policy
        total = gpu.kernel.geometry.grid_ctas
        launched = policy.fill(0)
        assert launched <= total
        # Drain the whole grid manually.
        while gpu.launches[0].pop_cta() is not None:
            pass
        assert policy.fill(0) == 0

    def test_register_accounting_on_finish(self):
        gpu = fresh_gpu("KM")
        policy = gpu.sms[0].policy
        policy.fill(0)
        used_before = policy.rf_used_entries
        cta = gpu.sms[0].active_ctas[0]
        for warp in cta.warps:
            warp.finish()
        gpu.sms[0].active_ctas.remove(cta)
        gpu.sms[0].retire_cta(cta, 0)
        # One allocation came back, and (grid permitting) a new CTA took it.
        assert policy.rf_used_entries <= used_before


class TestIdleCooldown:
    def test_unproductive_idle_sets_cooldown(self):
        gpu = fresh_gpu("KM")
        policy = gpu.sms[0].policy
        policy.fill(0)
        # Baseline never acts; on_idle should arm the cooldown.
        policy.on_idle(100)
        assert policy._next_idle_check == 116
        # Within the cooldown nothing is even attempted.
        policy.on_idle(110)
        assert policy._next_idle_check == 116

    def test_classify_idle_default(self):
        gpu = fresh_gpu("KM")
        policy = gpu.sms[0].policy
        assert policy.classify_idle(5) == "other"
        policy._blocked_on_rf = True
        assert policy.classify_idle(5) == "rf"


class TestStalledScan:
    def test_stalled_active_ctas_filters_by_threshold(self):
        gpu = fresh_gpu("KM")
        sm = gpu.sms[0]
        policy = sm.policy
        policy.fill(0)
        # Nothing blocked yet: no stalled CTAs.
        assert policy.stalled_active_ctas(0) == []
        # Block every warp of the first CTA far into the future.
        cta = sm.active_ctas[0]
        for warp in cta.warps:
            warp.blocked_until = 10_000
        stalled = policy.stalled_active_ctas(0)
        assert cta in stalled
        # A short block does not qualify.
        for warp in cta.warps:
            warp.blocked_until = 10
        assert cta not in policy.stalled_active_ctas(0)
