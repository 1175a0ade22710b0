"""Opt-in performance-regression guard.

Skipped by default (wall-clock assertions are flaky on shared CI boxes);
enable with ``REPRO_PERF=1``.  The budget is many times the current
best-of-three on the engine ``auto`` picks (~0.02 s on ``compiled``, and
~0.28 s on ``reference`` when the C extension is not built; a 2-vCPU
Intel Xeon VM), so only a genuine regression — e.g. reverting to
per-cycle full warp scans — trips it, not machine noise.
The finer-grained check lives in the repository benchmark (``bench/``):
the CI ``bench`` job compares paired base/head runs with
``bench/compare.py`` and fails on any end-to-end metric worse than its
``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import SMALL, SCALES
from repro.experiments.parallel import RunRequest, simulate_request
from repro.experiments.runner import ExperimentRunner

#: Generous wall-clock ceiling for one small-scale KM baseline simulation.
#: Tightened from 10 s with the event-driven engine: 3 s still leaves
#: >10x headroom over the ``reference`` engine (see above) for slow boxes
#: while catching a real hot-loop regression.
BUDGET_S = 3.0

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PERF") != "1",
    reason="performance guard is opt-in: set REPRO_PERF=1",
)


def test_small_km_baseline_within_budget():
    runner = ExperimentRunner(scale=SMALL)
    instance = runner.workload("KM")
    request = RunRequest.make("KM", "baseline")
    walls = []
    for _ in range(3):
        started = time.perf_counter()
        simulate_request(SMALL, runner.base_config, request,
                         instance=instance)
        walls.append(time.perf_counter() - started)
    best = min(walls)
    assert best < BUDGET_S, (
        f"small-scale KM baseline took {best:.2f}s (budget {BUDGET_S}s); "
        f"the simulator hot loop has regressed")


#: Ceiling for the same simulation with full telemetry attached (warp-level
#: tracing + metrics + per-cycle timeline sampling).  Generous: the enabled
#: path is allowed to cost real time, it just must not explode.
TRACED_BUDGET_S = 60.0


def test_traced_run_overhead_within_budget():
    """Telemetry-enabled runs stay within an order of magnitude.

    The *disabled* path is covered by the budget above (the hot loop now
    carries its ``is not None`` telemetry checks); this guards the enabled
    path against accidentally quadratic sampling or per-event allocation
    blowups.
    """
    from repro.obs.telemetry import attach_telemetry
    from repro.sim.tracing import attach_tracer

    runner = ExperimentRunner(scale=SMALL)
    instance = runner.workload("KM")
    from repro.experiments.runner import POLICIES
    from repro.sim.gpu import GPU
    gpu = GPU(runner.base_config, instance.kernel, POLICIES["baseline"](),
              instance.trace_provider, instance.address_model,
              liveness=instance.liveness)
    attach_tracer(gpu, level="warp")
    attach_telemetry(gpu)
    started = time.perf_counter()
    gpu.run(max_cycles=SMALL.max_cycles)
    wall = time.perf_counter() - started
    assert wall < TRACED_BUDGET_S, (
        f"traced small-scale KM baseline took {wall:.2f}s "
        f"(budget {TRACED_BUDGET_S}s); telemetry overhead has regressed")
