"""Cycle-level GPU simulator: warps, CTAs, schedulers, SMs, and the
top-level GPU that runs a kernel launch under a register-file policy."""

from repro.sim.stats import SimResult, SMStats
from repro.sim.warp import WarpSim, WarpState
from repro.sim.cta import CTASim, CTAState
from repro.sim.scheduler import GTOScheduler
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.gpu import GPU

__all__ = [
    "CTASim",
    "CTAState",
    "GPU",
    "GTOScheduler",
    "SMStats",
    "SimResult",
    "StreamingMultiprocessor",
    "WarpSim",
    "WarpState",
]
