"""Tests for the FineReg policy: ACRF/PCRF management end to end."""

import pytest

from repro.config import SMALL, GPUConfig, TINY, default_config
from repro.core.pcrf import PCRF, PCRFEntryTag
from repro.experiments.parallel import RunRequest, simulate_request


class TestResidency:
    def test_exceeds_baseline_residency(self, tiny_runner):
        base = tiny_runner.run("KM", "baseline")
        fine = tiny_runner.run("KM", "finereg")
        assert fine.avg_resident_ctas_per_sm > base.avg_resident_ctas_per_sm

    def test_gains_residency_even_for_type_r(self, tiny_runner):
        """Unlike VT, FineReg adds CTAs to register-bound apps (Fig 12)."""
        vt = tiny_runner.run("LB", "virtual_thread")
        fine = tiny_runner.run("LB", "finereg")
        assert fine.max_resident_ctas > vt.max_resident_ctas

    def test_pcrf_traffic_stays_on_chip(self, tiny_runner):
        """FineReg's only off-chip extra is the 12-byte bit vectors."""
        fine = tiny_runner.run("KM", "finereg")
        extra = fine.dram_traffic_by_class.get("bitvector", 0)
        assert "context_spill" not in fine.dram_traffic_by_class
        if fine.cta_switch_events:
            assert extra % 12 == 0

    def test_bitvector_cache_mostly_hits(self, tiny_runner):
        """Paper V-C: few static PCs cause stalls, so 32 entries suffice."""
        fine = tiny_runner.run("KM", "finereg")
        if fine.bitvector_hit_rate is not None:
            assert fine.bitvector_hit_rate > 0.8

    def test_pcrf_reads_and_writes_balance(self, tiny_runner):
        """Everything spilled must eventually be restored (grid completes)."""
        fine = tiny_runner.run("KM", "finereg")
        assert fine.pcrf_reads == fine.pcrf_writes

    def test_completes_grid(self, tiny_runner):
        fine = tiny_runner.run("KM", "finereg")
        instance = tiny_runner.workload("KM")
        assert fine.completed_ctas == instance.kernel.geometry.grid_ctas

    def test_work_is_policy_invariant(self, tiny_runner):
        base = tiny_runner.run("KM", "baseline")
        fine = tiny_runner.run("KM", "finereg")
        assert fine.instructions == base.instructions


class TestRegisterFileMechanism:
    @pytest.mark.parametrize("policy", ("finereg", "finereg_adaptive"))
    def test_a_round_builds_no_tag_objects(self, policy, monkeypatch):
        """The PCRF keeps each chain as a slot list and builds a tag only
        when asked: a seed-0 round over KM, HS, LB and SR at small scale
        spills and restores thousands of registers and builds none."""
        built = []
        init = PCRFEntryTag.__init__

        def counting_init(tag, *args, **kwargs):
            built.append(tag)
            init(tag, *args, **kwargs)
        monkeypatch.setattr(PCRFEntryTag, "__init__", counting_init)
        base = default_config(SMALL)
        spilled = sum(
            simulate_request(SMALL, base, RunRequest.make(app, policy))
            .pcrf_writes for app in ("KM", "HS", "LB", "SR"))
        assert spilled > 1000
        assert built == []
        pcrf = PCRF(4)
        pcrf.spill(0, [(1, 2)])
        assert pcrf.tag_at(0) == PCRFEntryTag(True, True, 0, 1, 2)
        assert len(built) == 2, "the wrapper counts every tag built"


class TestRFSplit:
    def test_small_acrf_limits_actives(self, tiny_runner):
        """Fig 17: a 64 KB ACRF halves the active complement vs 128 KB."""
        small = tiny_runner.base_config.with_rf_split(64, 192)
        fine_small = tiny_runner.run("LB", "finereg", config=small)
        fine_default = tiny_runner.run("LB", "finereg")
        assert fine_small.avg_active_ctas_per_sm \
            <= fine_default.avg_active_ctas_per_sm + 1e-9

    def test_extreme_splits_still_complete(self, tiny_runner):
        """Both Fig 17 extremes must be functionally correct."""
        instance = tiny_runner.workload("LI")
        for split in ((64, 192), (192, 64)):
            config = tiny_runner.base_config.with_rf_split(*split)
            result = tiny_runner.run("LI", "finereg", config=config)
            assert result.completed_ctas \
                == instance.kernel.geometry.grid_ctas
            assert not result.timed_out


class TestUnifiedMemory:
    def test_um_grows_l1(self, tiny_runner):
        """Fig 19: the UM pool turns unused capacity into L1."""
        base = tiny_runner.run("KM", "baseline")
        um = tiny_runner.run("KM", "baseline", unified_memory=True)
        # KM has no shared memory: the whole 272 KB pool becomes L1, so
        # hit rates cannot get worse.
        assert um.l1_hit_rate >= base.l1_hit_rate - 0.01

    def test_finereg_um_reserves_pcrf(self, tiny_runner):
        fr_um = tiny_runner.run("KM", "finereg", unified_memory=True)
        instance = tiny_runner.workload("KM")
        assert fr_um.completed_ctas == instance.kernel.geometry.grid_ctas

    def test_um_l1_sizing(self):
        from repro.policies.unified_memory import (
            MIN_L1_BYTES,
            UM_POOL_BYTES,
            unified_l1_bytes,
        )
        from repro.isa.kernel import Kernel, LaunchGeometry
        from conftest import build_linear_cfg
        config = GPUConfig()
        kernel = Kernel("k", build_linear_cfg(),
                        LaunchGeometry(64, 4), regs_per_thread=8)
        # No shmem, no PCRF reservation: the full pool becomes L1.
        assert unified_l1_bytes(config, kernel, reserve_pcrf=False) \
            == UM_POOL_BYTES
        # Reserving the PCRF carves 128 KB out.
        reserved = unified_l1_bytes(config, kernel, reserve_pcrf=True)
        assert reserved == UM_POOL_BYTES - config.pcrf_bytes

    def test_um_respects_minimum_l1(self):
        from repro.policies.unified_memory import (
            MIN_L1_BYTES,
            unified_l1_bytes,
        )
        from repro.isa.kernel import Kernel, LaunchGeometry
        from conftest import build_linear_cfg
        config = GPUConfig()
        kernel = Kernel("k", build_linear_cfg(),
                        LaunchGeometry(256, 4), regs_per_thread=8,
                        shmem_per_cta=32 * 1024)
        l1 = unified_l1_bytes(config, kernel, reserve_pcrf=True)
        assert l1 >= MIN_L1_BYTES
        granule = config.l1_assoc * config.cache_line_bytes
        assert l1 % granule == 0
