"""Integration-style tests for the SM issue loop and the GPU run loop,
driven by small hand-built kernels under the baseline policy."""

import pytest

from conftest import build_branch_cfg, build_linear_cfg, build_loop_cfg
from repro.config import GPUConfig
from repro.isa.cfg import ControlFlowGraph, EdgeKind
from repro.isa.instructions import AccessPattern, Instruction, Opcode
from repro.isa.kernel import Kernel, LaunchGeometry
from repro.policies.baseline import BaselinePolicy
from repro.sim.gpu import GPU
from repro.workloads.traces import AddressModel, TraceProvider


def run_kernel_cfg(cfg, grid_ctas=4, threads=64, regs=8, num_sms=1,
                   shmem=0, sample_usage=False, config=None):
    if config is None:
        config = GPUConfig().with_num_sms(num_sms)
    kernel = Kernel("unit", cfg,
                    LaunchGeometry(threads_per_cta=threads,
                                   grid_ctas=grid_ctas),
                    regs_per_thread=regs, shmem_per_cta=shmem)
    gpu = GPU(config, kernel, BaselinePolicy,
              TraceProvider(cfg, seed=1), AddressModel(),
              sample_usage=sample_usage)
    return gpu.run(max_cycles=500_000)


class TestBasicExecution:
    def test_all_instructions_issue(self, linear_cfg):
        result = run_kernel_cfg(linear_cfg, grid_ctas=4, threads=64)
        # 4 CTAs x 2 warps x 5 instructions.
        assert result.instructions == 4 * 2 * 5
        assert not result.timed_out
        assert result.completed_ctas == 4

    def test_loop_executes_trips(self, loop_cfg):
        result = run_kernel_cfg(loop_cfg, grid_ctas=1, threads=32)
        # Trace: 1 prologue + trips x 3 body + 2 epilogue; trips ~3 (+-15%).
        assert result.instructions == 1 + 3 * 3 + 2

    def test_divergent_branch_serializes(self):
        always = build_branch_cfg(divergence=1.0)
        never = build_branch_cfg(divergence=0.0)
        diverged = run_kernel_cfg(always, grid_ctas=2, threads=32)
        uniform = run_kernel_cfg(never, grid_ctas=2, threads=32)
        # A diverged warp executes both arms: one extra instr per warp.
        assert diverged.instructions == uniform.instructions + 2

    def test_ipc_is_positive_and_bounded(self, linear_cfg):
        result = run_kernel_cfg(linear_cfg, grid_ctas=8)
        config = GPUConfig()
        assert 0 < result.ipc <= config.num_warp_schedulers


class TestDependencies:
    def test_dependent_chain_respects_latency(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.IALU, 1, (0,)),
            Instruction(Opcode.IALU, 2, (1,)),   # depends on previous
            Instruction(Opcode.IALU, 3, (2,)),
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        result = run_kernel_cfg(cfg.freeze(), grid_ctas=1, threads=32)
        # Three chained ALU ops: at least 2 x alu_latency cycles.
        assert result.cycles >= 2 * GPUConfig().alu_latency

    def test_memory_latency_blocks_consumer(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.LDG, 1, (0,), AccessPattern.STREAM),
            Instruction(Opcode.IALU, 2, (1,)),   # waits for the load
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        result = run_kernel_cfg(cfg.freeze(), grid_ctas=1, threads=32)
        assert result.cycles >= GPUConfig().dram_latency

    def test_independent_loads_overlap(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.LDG, 1, (0,), AccessPattern.STREAM),
            Instruction(Opcode.LDG, 2, (0,), AccessPattern.STREAM),
            Instruction(Opcode.FALU, 3, (1, 2)),
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        result = run_kernel_cfg(cfg.freeze(), grid_ctas=1, threads=32)
        # Both misses overlap: total well under 2 DRAM round trips.
        assert result.cycles < 2 * GPUConfig().dram_latency


class TestBarriers:
    def _barrier_cfg(self):
        cfg = ControlFlowGraph()
        cfg.add_block([
            Instruction(Opcode.LDG, 1, (0,), AccessPattern.STREAM),
            Instruction(Opcode.IALU, 2, (1,)),
            Instruction(Opcode.BAR),
            Instruction(Opcode.FALU, 3, (2,)),
        ], EdgeKind.FALLTHROUGH, successors=(1,))
        cfg.add_block([Instruction(Opcode.EXIT)], EdgeKind.EXIT)
        return cfg.freeze()

    def test_barrier_completes(self):
        result = run_kernel_cfg(self._barrier_cfg(), grid_ctas=2, threads=128)
        assert not result.timed_out
        assert result.instructions == 2 * 4 * 5

    def test_barrier_single_warp(self):
        result = run_kernel_cfg(self._barrier_cfg(), grid_ctas=1, threads=32)
        assert not result.timed_out


class TestSchedulingLimits:
    def test_cta_limit_bounds_concurrency(self, linear_cfg):
        config = GPUConfig().with_num_sms(1)
        result = run_kernel_cfg(linear_cfg, grid_ctas=80, threads=64,
                                config=config)
        assert result.max_resident_ctas <= config.max_ctas_per_sm

    def test_register_limit_bounds_concurrency(self, linear_cfg):
        # 60 regs x 2 warps = 120 warp-registers; 2048/120 = 17 CTAs max.
        result = run_kernel_cfg(linear_cfg, grid_ctas=40, threads=64,
                                regs=60)
        assert result.max_resident_ctas <= 17

    def test_shmem_limit_bounds_concurrency(self, linear_cfg):
        result = run_kernel_cfg(linear_cfg, grid_ctas=40, threads=64,
                                shmem=32 * 1024)
        assert result.max_resident_ctas <= 3

    def test_work_distributes_over_sms(self, linear_cfg):
        result = run_kernel_cfg(linear_cfg, grid_ctas=16, num_sms=2)
        assert result.num_sms == 2
        assert result.completed_ctas == 16


class TestUsageSampling:
    def test_window_usage_collected(self, loop_cfg):
        result = run_kernel_cfg(loop_cfg, grid_ctas=64, threads=128,
                                sample_usage=True)
        assert result.window_usage_bounds is not None
        low, mean, high = result.window_usage_bounds
        assert 0.0 <= low <= mean <= high <= 1.0

    def test_sampling_off_by_default(self, loop_cfg):
        result = run_kernel_cfg(loop_cfg, grid_ctas=64, threads=128)
        assert result.window_usage_bounds is None
