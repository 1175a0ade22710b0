"""Engine differential tests (dense × fused × compiled).

Every engine backend is a pure performance transformation: for every
workload, policy and seed it must produce a ``SimResult`` that is
*byte-identical* (as sorted JSON) to the dense per-cycle oracle retained
behind ``REPRO_DENSE_STEP=1``.  These tests pin that contract over the
full golden corpus and over hypothesis-chosen (app, seed) micro-workloads
for every registered policy, for the fused event engine and (when the
``repro.sim._ckernel`` extension is built) the compiled backend, so any
divergence introduced in the fused fast step, the wakeup computation,
the C core's global clock and idle accounting, its policy-hook ops
(settle / tick / idle), or its lowering/write-back protocol fails loudly
with a payload diff instead of silently drifting the science.

The golden replays run *bare* (no tracer/sanitizer) for the engine
comparison so the compiled backend actually engages on the baseline
case -- ``run_case`` attaches a CTA tracer, which conservatively routes a
run back to the fused engine (tests/test_engine_backend.py covers that
fallback routing itself).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SCALES, GPUConfig, default_config
from repro.experiments.runner import POLICIES
from repro.sim.gpu import GPU
from repro.sim.tracing import attach_tracer
from repro.validate.golden import CORPUS, run_case
from repro.validate.sanitizer import attach_sanitizer
from repro.workloads.apps import APP_POOLS, AppPool, StreamSpec, build_app
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

TINY = SCALES["tiny"]
#: Two SMs keep the micro-workloads fast while still exercising the
#: cross-SM parts of the engines (shared L2/DRAM, global cycle advance,
#: the compiled core's cross-SM op ordering).
MICRO_CONFIG = GPUConfig(num_sms=2)
#: Four SMs, so the hook ops of more than two SMs interleave in a cycle.
QUAD_CONFIG = GPUConfig(num_sms=4)
APPS = ("KM", "HS", "LB")

#: The production backends differentially pinned to the dense oracle.
#: The compiled leg joins the matrix whenever its extension is importable
#: (built best-effort at install; the extension-absent CI job runs the
#: suite without it, so the conditional is part of the contract).
from repro.sim.backend import compiled_available  # noqa: E402

ENGINES = ("fused",) + (("compiled",) if compiled_available() else ())
needs_extension = pytest.mark.skipif(
    not compiled_available(),
    reason="repro.sim._ckernel extension not built")


@contextmanager
def dense_engine():
    """Route ``GPU.run`` to the dense per-cycle oracle for the block."""
    os.environ["REPRO_DENSE_STEP"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_DENSE_STEP", None)


def result_bytes(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def build_micro_gpu(policy: str, app: str, seed: int,
                    config: GPUConfig = MICRO_CONFIG) -> GPU:
    spec = replace(get_spec(app), seed=seed)
    instance = build_workload(spec, config, TINY)
    return GPU(config, instance.kernel, POLICIES[policy](),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


def simulate_micro(policy: str, app: str, seed: int, engine=None,
                   config: GPUConfig = MICRO_CONFIG):
    """One tiny simulation (2 SMs by default), workload spec reseeded."""
    gpu = build_micro_gpu(policy, app, seed, config)
    return gpu.run(max_cycles=TINY.max_cycles, engine=engine)


def simulate_case_bare(case, engine=None):
    """Replay a golden case without tracer/sanitizer instrumentation."""
    scale = SCALES[case.scale]
    base = default_config(scale)
    config = replace(base, **dict(case.config_overrides))
    factory = POLICIES[case.policy](**dict(case.policy_kwargs))
    if case.launches:
        pool = AppPool(case.name, tuple(
            StreamSpec(abbrev, weight=weight, priority=priority)
            for abbrev, weight, priority in case.launches))
        specs = build_app(pool, base.with_num_sms(config.num_sms), scale)
        gpu = GPU.concurrent(config, specs, factory,
                             arbitration=case.arbitration)
    else:
        instance = build_workload(
            get_spec(case.abbrev), base.with_num_sms(config.num_sms), scale)
        gpu = GPU(config, instance.kernel, factory, instance.trace_provider,
                  instance.address_model, liveness=instance.liveness)
    result = gpu.run(max_cycles=scale.max_cycles, engine=engine)
    return result, gpu


def build_concurrent_gpu(pool_name: str, policy: str,
                         arbitration: str = "priority") -> GPU:
    """A tiny 2-SM two-kernel run from one of the canned app pools."""
    specs = build_app(APP_POOLS[pool_name], MICRO_CONFIG, TINY)
    return GPU.concurrent(MICRO_CONFIG, specs, POLICIES[policy](),
                          arbitration=arbitration)


# ----------------------------------------------------------------------
# Oracle plumbing
# ----------------------------------------------------------------------
def test_env_switch_selects_dense_engine():
    """``REPRO_DENSE_STEP=1`` must actually reach ``_run_dense``, beating
    any ``REPRO_ENGINE``/auto backend selection."""
    instance = build_workload(get_spec("KM"), MICRO_CONFIG, TINY)
    gpu = GPU(MICRO_CONFIG, instance.kernel, POLICIES["baseline"](),
              instance.trace_provider, instance.address_model,
              liveness=instance.liveness)
    sentinel = object()
    gpu._run_dense = lambda max_cycles: sentinel
    with dense_engine():
        assert gpu.run(max_cycles=10) is sentinel
    gpu._run_event = lambda max_cycles, force_reference=False: sentinel
    assert gpu.run(max_cycles=10, engine="fused") is sentinel


def test_uninstrumented_run_binds_the_fast_path():
    """Hook-free SMs must take the fused step (guards eligibility drift)."""
    instance = build_workload(get_spec("KM"), MICRO_CONFIG, TINY)
    gpu = GPU(MICRO_CONFIG, instance.kernel, POLICIES["baseline"](),
              instance.trace_provider, instance.address_model,
              liveness=instance.liveness)
    gpu.run(max_cycles=TINY.max_cycles, engine="fused")
    assert all(sm._fast_consts is not None for sm in gpu.sms), (
        "fast_step_eligible() stopped admitting a plain uninstrumented run")


@needs_extension
def test_uninstrumented_baseline_run_takes_the_compiled_path():
    """The C core must actually engage for a plain baseline run (guards
    compiled_run_eligible drift)."""
    gpu = build_micro_gpu("baseline", "KM", 0)
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "compiled", (
        "compiled_run_eligible() stopped admitting a plain uninstrumented "
        f"baseline run (engine_used={gpu.engine_used!r})")


# ----------------------------------------------------------------------
# Golden corpus, all engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
def test_golden_case_bit_identical_across_engines(case):
    """Instrumented replay (tracer attached, as goldens are recorded):
    the event engine vs. the dense oracle."""
    with dense_engine():
        dense, _, _ = run_case(case, sanitize=False)
    event, _, _ = run_case(case, sanitize=False)
    assert result_bytes(dense) == result_bytes(event), (
        f"event engine diverged from the dense oracle on {case.name}")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
def test_golden_case_bare_three_way_differential(case, engine):
    """Uninstrumented replay: every backend byte-identical to the oracle."""
    with dense_engine():
        dense, _ = simulate_case_bare(case)
    current, _ = simulate_case_bare(case, engine=engine)
    assert result_bytes(dense) == result_bytes(current), (
        f"{engine} engine diverged from the dense oracle on {case.name}")


# ----------------------------------------------------------------------
# Concurrent kernels: arbiter-aware runs stay on the differential wall
# ----------------------------------------------------------------------
def test_run_eligible_rejects_concurrent_runs():
    """Multi-launch GPUs must be conservatively routed away from the C
    core (which models one grid per SM)."""
    from repro.sim.compiled import compiled_run_eligible

    single = build_micro_gpu("baseline", "KM", 0)
    assert compiled_run_eligible(single)
    concurrent = build_concurrent_gpu("st+km", "baseline")
    assert not compiled_run_eligible(concurrent)


@needs_extension
@pytest.mark.parametrize("policy", ("baseline", "finereg"))
def test_concurrent_decoupled_request_falls_back_to_fused(policy):
    """An explicit ``engine="compiled"`` request on a concurrent run must
    land on the arbiter-aware event engine -- and still be byte-identical
    to the dense oracle."""
    with dense_engine():
        dense = build_concurrent_gpu("st+km", policy).run(
            max_cycles=TINY.max_cycles)
    gpu = build_concurrent_gpu("st+km", policy)
    current = gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "fused", (
        f"concurrent run must fall back to the fused event engine, "
        f"got {gpu.engine_used!r}")
    assert result_bytes(dense) == result_bytes(current)


@pytest.mark.parametrize("instrument", ("bare", "sanitized", "traced",
                                        "traced+sanitized"))
def test_concurrent_identity_survives_instrumentation(instrument):
    """Dense-vs-fused byte identity for a concurrent run must hold with the
    sanitizer and/or tracer attached (acceptance: sanitizer on/off,
    traced/untraced)."""
    def run_one(engine=None):
        gpu = build_concurrent_gpu("hs+lb", "finereg",
                                   arbitration="round_robin")
        if "traced" in instrument:
            attach_tracer(gpu)
        if "sanitized" in instrument:
            attach_sanitizer(gpu)
        return gpu.run(max_cycles=TINY.max_cycles, engine=engine)

    with dense_engine():
        dense = run_one()
    assert result_bytes(dense) == result_bytes(run_one(engine="fused"))


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_concurrent_runs_bit_identical(policy, data):
    """Hypothesis-chosen (pool, arbitration) concurrent runs, every policy:
    the fused event engine must match the dense oracle byte for byte."""
    pool = data.draw(st.sampled_from(sorted(APP_POOLS)), label="pool")
    arbitration = data.draw(st.sampled_from(("priority", "round_robin")),
                            label="arbitration")
    with dense_engine():
        dense = build_concurrent_gpu(pool, policy, arbitration).run(
            max_cycles=TINY.max_cycles)
    current = build_concurrent_gpu(pool, policy, arbitration).run(
        max_cycles=TINY.max_cycles)
    assert result_bytes(dense) == result_bytes(current), (
        f"fused engine diverged from the dense oracle "
        f"({policy}, {pool}, {arbitration})")


# ----------------------------------------------------------------------
# Random micro-workloads, every policy, every engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_micro_workloads_bit_identical(policy, data):
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16 - 1),
                     label="spec seed")
    app = data.draw(st.sampled_from(APPS), label="app")
    with dense_engine():
        dense = simulate_micro(policy, app, seed)
    for engine in ENGINES:
        current = simulate_micro(policy, app, seed, engine=engine)
        assert result_bytes(dense) == result_bytes(current), (
            f"{engine} engine diverged from the dense oracle "
            f"({policy}, {app}, seed={seed})")


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_four_sm_runs_bit_identical(policy, app):
    """Four SMs: the settle / tick / idle ops of several SMs interleave
    within one cycle, and every backend must match the dense oracle."""
    with dense_engine():
        dense = simulate_micro(policy, app, 0, config=QUAD_CONFIG)
    for engine in ENGINES:
        current = simulate_micro(policy, app, 0, engine=engine,
                                 config=QUAD_CONFIG)
        assert result_bytes(dense) == result_bytes(current), (
            f"{engine} engine diverged from the dense oracle "
            f"({policy}, {app}, 4 SMs)")
