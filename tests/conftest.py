"""Shared fixtures for the test suite.

Everything runs at TINY scale with a single SM so the whole suite stays
fast; integration tests that need more override locally.
"""

from __future__ import annotations

import os

import pytest

# Tests must exercise the simulator, not yesterday's disk cache; individual
# cache tests construct an explicit ResultCache on a tmp_path instead.
os.environ.setdefault("REPRO_CACHE", "off")

from repro.config import GPUConfig, TINY, default_config
from repro.core.liveness import LivenessAnalysis
from repro.experiments.runner import ExperimentRunner
from repro.isa.cfg import ControlFlowGraph, EdgeKind
from repro.isa.instructions import AccessPattern, Instruction, Opcode
from repro.isa.kernel import Kernel, LaunchGeometry
from repro.sim.backend import ENGINE_ENV, compiled_available, select_backend
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def _engine_line() -> str:
    """What engine ``auto`` resolves to and whether the C extension
    imported: the fast path this session exercises."""
    ckernel = "imported" if compiled_available() else "not importable"
    line = (f"repro engine: auto -> {select_backend('auto')}, "
            f"repro.sim._ckernel {ckernel}")
    forced = os.environ.get(ENGINE_ENV)
    if forced:
        line += f", {ENGINE_ENV}={forced}"
    return line


def pytest_report_header(config):
    return _engine_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the report header; quiet logs still name the engine.
    if config.option.verbose < 0:
        terminalreporter.write_line(_engine_line())


@pytest.fixture
def config() -> GPUConfig:
    return default_config(TINY)


@pytest.fixture(scope="session")
def tiny_runner() -> ExperimentRunner:
    """A session-wide memoizing runner (results shared across tests)."""
    return ExperimentRunner(scale=TINY)


def build_linear_cfg(instructions=None) -> ControlFlowGraph:
    """A minimal two-block CFG: a compute block falling into an exit."""
    if instructions is None:
        instructions = [
            Instruction(Opcode.LDG, 1, (0,), AccessPattern.STREAM),
            Instruction(Opcode.IALU, 2, (1,)),
            Instruction(Opcode.FALU, 3, (2, 1)),
        ]
    cfg = ControlFlowGraph()
    cfg.add_block(instructions, EdgeKind.FALLTHROUGH, successors=(1,))
    cfg.add_block([
        Instruction(Opcode.STG, None, (3, 0), AccessPattern.STREAM),
        Instruction(Opcode.EXIT),
    ], EdgeKind.EXIT)
    return cfg.freeze()


def build_loop_cfg(trips: float = 3.0) -> ControlFlowGraph:
    """Prologue -> loop body (back edge) -> exit."""
    cfg = ControlFlowGraph()
    cfg.add_block([
        Instruction(Opcode.LDG, 0, (1,), AccessPattern.REUSE),
    ], EdgeKind.FALLTHROUGH, successors=(1,))
    cfg.add_block([
        Instruction(Opcode.LDG, 2, (0,), AccessPattern.STREAM),
        Instruction(Opcode.FALU, 3, (2, 0)),
        Instruction(Opcode.BRA, None, (3,)),
    ], EdgeKind.LOOP_BACK, successors=(1, 2), mean_trip_count=trips)
    cfg.add_block([
        Instruction(Opcode.STG, None, (3, 0), AccessPattern.STREAM),
        Instruction(Opcode.EXIT),
    ], EdgeKind.EXIT)
    return cfg.freeze()


def build_branch_cfg(divergence: float = 0.5) -> ControlFlowGraph:
    """Branch block with two arms reconverging before the exit (Fig 9a)."""
    cfg = ControlFlowGraph()
    cfg.add_block([
        Instruction(Opcode.IALU, 0, ()),
        Instruction(Opcode.BRA, None, (0,)),
    ], EdgeKind.BRANCH, successors=(1, 2), divergence_prob=divergence)
    cfg.add_block([
        Instruction(Opcode.IALU, 1, (0,)),
    ], EdgeKind.FALLTHROUGH, successors=(3,))
    cfg.add_block([
        Instruction(Opcode.IALU, 2, (0,)),
    ], EdgeKind.FALLTHROUGH, successors=(3,))
    cfg.add_block([
        Instruction(Opcode.FALU, 3, (0,)),
        Instruction(Opcode.EXIT),
    ], EdgeKind.EXIT)
    return cfg.freeze()


@pytest.fixture
def linear_cfg() -> ControlFlowGraph:
    return build_linear_cfg()


@pytest.fixture
def loop_cfg() -> ControlFlowGraph:
    return build_loop_cfg()


@pytest.fixture
def branch_cfg() -> ControlFlowGraph:
    return build_branch_cfg()


@pytest.fixture
def small_kernel(linear_cfg) -> Kernel:
    return Kernel(
        name="unit",
        cfg=linear_cfg,
        geometry=LaunchGeometry(threads_per_cta=64, grid_ctas=4),
        regs_per_thread=8,
    )


@pytest.fixture
def km_workload(config):
    return build_workload(get_spec("KM"), config, TINY)


def liveness_for(cfg, regs: int = 8):
    return LivenessAnalysis(cfg).run(regs)
