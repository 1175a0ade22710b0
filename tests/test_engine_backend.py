"""Engine backend selection, fallback routing and graceful degradation.

The ``EngineBackend`` seam (``repro.sim.backend``) decides which
observably-identical driver executes a run; these tests pin the selection
contract itself:

* ``REPRO_ENGINE`` / ``engine=`` parsing, precedence and loud failure on
  typos (a silently-wrong backend would invalidate a benchmark),
* ``auto`` resolution and graceful degradation down the chain (compiled
  -> fused) when the C extension is missing; an *explicit* request for
  an unavailable backend raises ``EngineUnavailableError``,
* run-level compiled eligibility: instrumented runs (sanitizer,
  telemetry, tracers), non-GTO scheduling, non-inert policies and
  instance-level wrappers on the surface the C core inlines must all
  fail ``compiled_run_eligible``.  The gate is pure Python, so those
  checks run without the extension; with it built, the runs must then
  degrade to the next backend down rather than take the C core —
  ``gpu.engine_used`` records what actually executed.

Bit-identity of the backends themselves is pinned separately by
tests/test_engine_differential.py.
"""

from __future__ import annotations

import pytest

from repro.config import SCALES, GPUConfig
from repro.experiments.runner import POLICIES
from repro.sim import backend
from repro.sim.backend import (EngineUnavailableError, parse_engine,
                               select_backend)
from repro.sim.compiled import (_BYPASSED_SM_ATTRS, compiled_run_eligible,
                                policy_inert)
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

TINY = SCALES["tiny"]
MICRO_CONFIG = GPUConfig(num_sms=2)


def build_gpu(policy: str = "baseline", config: GPUConfig = MICRO_CONFIG,
              **policy_kwargs) -> GPU:
    instance = build_workload(get_spec("KM"), config, TINY)
    return GPU(config, instance.kernel, POLICIES[policy](**policy_kwargs),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


# ----------------------------------------------------------------------
# parse_engine / select_backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("raw, expected", [
    (None, "auto"),
    ("", "auto"),
    ("auto", "auto"),
    ("fused", "fused"),
    (" Fused \n", "fused"),
    ("REFERENCE", "reference"),
    ("Compiled", "compiled"),
])
def test_parse_engine_normalizes(raw, expected):
    assert parse_engine(raw) == expected


@pytest.mark.parametrize("raw", ["fast", "dense", "vector", "vectorized",
                                 "fused,"])
def test_parse_engine_rejects_unknown_names(raw):
    with pytest.raises(ValueError, match="unknown engine"):
        parse_engine(raw)


def test_select_backend_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv(backend.ENGINE_ENV, "reference")
    assert select_backend("fused") == "fused"
    assert select_backend() == "reference"


def test_select_backend_env_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv(backend.ENGINE_ENV, "vectorised")
    with pytest.raises(ValueError, match="unknown engine"):
        select_backend()


def test_select_backend_auto_prefers_compiled_when_built(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", True)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    assert select_backend() == "compiled"
    assert select_backend("auto") == "compiled"


def test_select_backend_auto_degrades_to_fused_without_extension(
        monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    assert select_backend() == "fused"
    assert select_backend("auto") == "fused"


def test_explicit_compiled_without_extension_raises(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    with pytest.raises(EngineUnavailableError, match="_ckernel"):
        select_backend("compiled")
    monkeypatch.setenv(backend.ENGINE_ENV, "compiled")
    with pytest.raises(EngineUnavailableError, match="_ckernel"):
        select_backend()


def test_run_consults_engine_env(monkeypatch):
    """``REPRO_ENGINE`` must reach a real ``GPU.run`` call end to end."""
    monkeypatch.setenv(backend.ENGINE_ENV, "reference")
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles)
    assert gpu.engine_used == "reference"
    assert all(sm._fast_consts is None for sm in gpu.sms), (
        "the reference backend must not bind the fused fast path")


# ----------------------------------------------------------------------
# Run-level compiled eligibility (pure Python: no extension needed)
# ----------------------------------------------------------------------
#: Why ``compiled_run_eligible`` refuses a run, and where an explicit
#: ``engine="compiled"`` request then lands.
INELIGIBLE_RUNS = [
    ("sanitizer", "reference"),   # fails fast_step_eligible per SM
    ("cta_tracer", "fused"),      # fused step eligible, run-level not
    ("telemetry", "reference"),
    ("lrr", "reference"),         # the fused step hard-codes GTO's scan
]


def build_ineligible_gpu(reason: str) -> GPU:
    if reason == "lrr":
        return build_gpu(config=GPUConfig(num_sms=2, warp_scheduling="lrr"))
    gpu = build_gpu()
    if reason == "sanitizer":
        from repro.validate.sanitizer import attach_sanitizer
        attach_sanitizer(gpu)
    elif reason == "cta_tracer":
        # A CTA-level tracer only observes launch/retire, so the fused
        # step stays eligible -- but per-SM issue loops would scramble the
        # global order of its records, hence the run-level refusal.
        from repro.sim.tracing import attach_tracer
        attach_tracer(gpu, level="cta")
    else:
        from repro.telemetry.session import attach_telemetry
        attach_telemetry(gpu)
    return gpu


@pytest.mark.parametrize("reason", [r for r, __ in INELIGIBLE_RUNS])
def test_compiled_gate_refuses_ineligible_runs(reason):
    assert not compiled_run_eligible(build_ineligible_gpu(reason))


@pytest.mark.parametrize("policy", sorted(p for p in POLICIES
                                          if p != "baseline"))
def test_compiled_gate_refuses_non_inert_policies(policy):
    """Every non-baseline policy overrides launch/finish/idle hooks the
    closed-form idle accounting bypasses, so none may take the C core."""
    gpu = build_gpu(policy)
    assert not policy_inert(gpu.sms[0]._policy)
    assert not compiled_run_eligible(gpu)


def test_instance_policy_override_defeats_inertness():
    gpu = build_gpu()
    policy = gpu.sms[0]._policy
    assert policy_inert(policy)
    policy.on_tick = lambda now: None
    assert not policy_inert(policy)
    assert not compiled_run_eligible(gpu)


def test_instance_sm_override_defeats_run_eligibility():
    """Mutation-style instance wrappers on any SM method the C core
    bypasses, or on the stats flush it inlines, must disqualify: the
    Python engines would honor them, the C core would not."""
    gpu = build_gpu()
    assert compiled_run_eligible(gpu)
    sm = gpu.sms[0]
    for name in _BYPASSED_SM_ATTRS:
        setattr(sm, name, getattr(sm, name))
        assert not compiled_run_eligible(gpu), name
        delattr(sm, name)
    sm.stats.accumulate = sm.stats.accumulate
    assert not compiled_run_eligible(gpu)


def test_scheduler_surface_cannot_be_wrapped_per_instance():
    """The scheduler surface the C core inlines (bucket scan, barrier
    wake, sleep fold) needs no instance gate: GTOScheduler declares
    __slots__, and fast_step_eligible pins the exact type."""
    gpu = build_gpu()
    with pytest.raises(AttributeError):
        gpu.sms[0].schedulers[0].wake = lambda: None


# ----------------------------------------------------------------------
# Compiled fallback routing (needs the built extension)
# ----------------------------------------------------------------------
needs_extension = pytest.mark.skipif(
    not backend.compiled_available(),
    reason="repro.sim._ckernel extension not built")


@needs_extension
def test_compiled_runs_the_uninstrumented_baseline():
    gpu = build_gpu()
    assert compiled_run_eligible(gpu)
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "compiled"


@needs_extension
@pytest.mark.parametrize("reason, expect_used", INELIGIBLE_RUNS)
def test_compiled_falls_back_per_run_eligibility_reason(reason, expect_used):
    """Every refused run must route compiled down the chain -- never
    error."""
    gpu = build_ineligible_gpu(reason)
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == expect_used


@needs_extension
@pytest.mark.parametrize("policy", sorted(p for p in POLICIES
                                          if p != "baseline"))
def test_compiled_falls_back_on_non_inert_policies(policy):
    gpu = build_gpu(policy)
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    # Hook-free policies still take the fused step; policies needing an
    # issue hook (vt_regmutex) drop all the way to the reference step.
    assert gpu.engine_used in ("fused", "reference")


@needs_extension
@pytest.mark.parametrize("surface", ["sm", "stats"])
def test_compiled_only_overrides_fall_back_to_fused(surface):
    """Instance wrappers on the surface only the C core inlines route the
    run to the fused engine, which still honors them dynamically."""
    gpu = build_gpu()
    sm = gpu.sms[0]
    if surface == "sm":
        original = sm._on_long_block
        sm._on_long_block = lambda warp, now: original(warp, now)
    else:
        original = sm.stats.accumulate
        sm.stats.accumulate = (
            lambda dt, active, pending, warps: original(dt, active,
                                                        pending, warps))
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "fused"
