"""Shared fixtures for the test suite.

Everything runs at TINY scale with a single SM so the whole suite stays
fast; integration tests that need more override locally.

An in-place build of the C core (``src/repro/sim/_ckernel*.so``) is
checked before any test imports it: ``setup.py`` compiles the SHA-256 of
``_ckernel.c`` into the module, so a build whose bytes lack the current
source's digest is stale.  A stale build is rebuilt in place once (the
header then says ``rebuilt``), or the session stops with the rebuild
command; no build is ever made where there was none, so a checkout
without one still tests ``reference``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
CKERNEL_SOURCE = ROOT / "src" / "repro" / "sim" / "_ckernel.c"
REBUILD = ("python", "setup.py", "build_ext", "--inplace")
#: What the session found in place: "prebuilt", "rebuilt" or None.
_IN_PLACE_BUILD = None


def _current(built: Path) -> bool:
    """Does ``built`` carry the digest of the current ``_ckernel.c``?"""
    digest = hashlib.sha256(CKERNEL_SOURCE.read_bytes()).hexdigest()
    return digest.encode() in built.read_bytes()


def check_in_place_build():
    """``"prebuilt"`` when the in-place C core matches its source,
    ``"rebuilt"`` after rebuilding a stale one, None when there is none;
    stops the session when a stale build cannot be rebuilt."""
    built = CKERNEL_SOURCE.with_name(
        "_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not built.exists():
        return None
    if _current(built):
        return "prebuilt"
    proc = subprocess.run((sys.executable,) + REBUILD[1:], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode == 0 and _current(built):
        return "rebuilt"
    pytest.exit(f"{built.relative_to(ROOT)} was built from another "
                f"_ckernel.c and rebuilding it failed:\n"
                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}\n"
                f"rebuild it with `{' '.join(REBUILD)}` (or delete it to "
                f"test without the C core)", returncode=4)


def pytest_configure(config):
    global _IN_PLACE_BUILD
    _IN_PLACE_BUILD = check_in_place_build()


def _engine_line() -> str:
    """What engine ``auto`` resolves to and whether the C extension
    imported (and whether its in-place build was current or rebuilt):
    the fast path this session exercises."""
    ckernel = "imported" if compiled_available() else "not importable"
    if _IN_PLACE_BUILD is not None:
        ckernel += f" ({_IN_PLACE_BUILD})"
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
