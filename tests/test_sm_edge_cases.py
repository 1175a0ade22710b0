"""Edge-case tests for the SM issue loop and resource accounting."""

import pytest

from conftest import build_linear_cfg
from repro.config import GPUConfig, TINY
from repro.isa.cfg import ControlFlowGraph, EdgeKind
from repro.isa.instructions import AccessPattern, Instruction, Opcode
from repro.isa.kernel import Kernel, LaunchGeometry
from repro.policies.baseline import BaselinePolicy
from repro.policies.virtual_thread import VirtualThreadPolicy
from repro.sim.gpu import GPU
from repro.workloads.traces import AddressModel, TraceProvider


def gpu_for(cfg, grid=4, threads=64, regs=8, policy=BaselinePolicy,
            num_sms=1, shmem=0):
    config = GPUConfig().with_num_sms(num_sms)
    kernel = Kernel("edge", cfg, LaunchGeometry(threads, grid),
                    regs_per_thread=regs, shmem_per_cta=shmem)
    return GPU(config, kernel, policy, TraceProvider(cfg, seed=3),
               AddressModel())


class TestWarpAccounting:
    def test_warp_counters_zero_after_run(self, linear_cfg):
        gpu = gpu_for(linear_cfg, grid=6)
        gpu.run(max_cycles=100_000)
        sm = gpu.sms[0]
        assert sm._active_warps == 0
        assert sm._active_threads == 0
        assert sm._incoming_ctas == 0
        assert not sm.active_ctas
        assert not sm.pending_ctas
        assert not sm.transit_ctas

    def test_shmem_released_on_retire(self, linear_cfg):
        gpu = gpu_for(linear_cfg, grid=4, shmem=8192)
        gpu.run(max_cycles=100_000)
        assert gpu.sms[0].shmem_used == 0

    def test_warps_spread_over_schedulers(self, linear_cfg):
        gpu = gpu_for(linear_cfg, grid=8, threads=128)
        sm = gpu.sms[0]
        sm.policy.fill(0)
        occupancies = [s.occupancy for s in sm.schedulers]
        assert max(occupancies) - min(occupancies) <= 1


class TestIssueSemantics:
    def test_stores_do_not_block_warps(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.IALU, 1, ()),
            Instruction(Opcode.STG, None, (1,), AccessPattern.STREAM),
            Instruction(Opcode.IALU, 2, ()),  # independent of the store
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        gpu = gpu_for(cfg.freeze(), grid=1, threads=32)
        result = gpu.run(max_cycles=10_000)
        # No dependence on the store: the run is ALU-latency bound, far
        # below a DRAM round trip.
        assert result.cycles < GPUConfig().dram_latency

    def test_sfu_latency_applied(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.IALU, 1, ()),
            Instruction(Opcode.SFU, 2, (1,)),
            Instruction(Opcode.FALU, 3, (2,)),  # waits on the SFU
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        gpu = gpu_for(cfg.freeze(), grid=1, threads=32)
        result = gpu.run(max_cycles=10_000)
        config = GPUConfig()
        assert result.cycles >= config.alu_latency + config.sfu_latency

    def test_shared_memory_ops_counted(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.LDS, 1, (0,)),
            Instruction(Opcode.STS, None, (1,)),
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        gpu = gpu_for(cfg.freeze(), grid=2, threads=64)
        result = gpu.run(max_cycles=10_000)
        # 2 CTAs x 2 warps x 2 shared ops.
        assert result.shmem_accesses == 8


class TestMultiSM:
    def test_sms_share_the_grid(self, linear_cfg):
        # Grid exceeds one SM's 32-CTA capacity, so both SMs must pull work.
        gpu = gpu_for(linear_cfg, grid=40, num_sms=2)
        gpu.run(max_cycles=100_000)
        launches = [sm.stats.cta_launches for sm in gpu.sms]
        assert sum(launches) == 40
        assert all(count > 0 for count in launches)

    def test_idle_attribution_is_per_sm(self, linear_cfg):
        gpu = gpu_for(linear_cfg, grid=1, num_sms=2)
        gpu.run(max_cycles=100_000)
        # Only one SM ever had work; the other must not log busy-idle time.
        idle_sm = next(sm for sm in gpu.sms if sm.stats.cta_launches == 0)
        assert idle_sm.stats.idle_cycles == 0


class TestVirtualThreadResidency:
    def test_pending_ctas_hold_shmem(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.LDG, 1, (0,), AccessPattern.STREAM),
            Instruction(Opcode.FALU, 2, (1,)),
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        gpu = gpu_for(cfg.freeze(), grid=12, threads=64,
                      policy=VirtualThreadPolicy, shmem=16 * 1024)
        sm = gpu.sms[0]
        sm.policy.fill(0)
        # 96 KB / 16 KB = 6 resident CTAs maximum, ever.
        assert sm.shmem_used <= GPUConfig().shared_memory_bytes
        gpu.run(max_cycles=200_000)
        assert sm.stats.max_resident_ctas <= 6
