"""Engine backend selection, fallback routing and graceful degradation.

The ``EngineBackend`` seam (``repro.sim.backend``) decides which
observably-identical driver executes a run; these tests pin the selection
contract itself:

* ``REPRO_ENGINE`` / ``engine=`` parsing, precedence and loud failure on
  typos (a silently-wrong backend would invalidate a benchmark),
* ``auto`` resolution and graceful degradation (compiled -> reference)
  when the C extension is missing, recorded as the refusal
  ``extension-missing``; an *explicit* request for an unavailable
  backend raises ``EngineUnavailableError``,
* run-level compiled eligibility: instrumented runs (sanitizer,
  telemetry, tracers), Fig 5 usage sampling, non-GTO scheduling, a
  subclassed address model, policies overriding the surface the C core
  runs itself with a body it does not transcribe (a RegMutexPolicy
  subclass or instance wrapping its issue hook), a memory hierarchy
  other than the stock classes, and instance-level wrappers on the
  surface the C core inlines must all be refused, and
  ``compiled_refusal`` names the first check that refused; every
  registered policy -- hooks served as ops, RegMutex's lease and idle
  attribution run in the core -- must be admitted.  The gate is pure
  Python, so those checks run without the extension; with it built,
  refused runs must degrade to ``reference`` rather than take the C
  core — ``gpu.engine_used`` records what actually executed and
  ``gpu.engine_refusal`` why,
* the requested engine is recoverable from ``(engine_used,
  engine_refusal)`` alone.

Bit-identity of the backends themselves is pinned separately by
tests/test_engine_differential.py.
"""

from __future__ import annotations

import pytest

from repro.config import SCALES, GPUConfig
from repro.experiments.runner import POLICIES
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies.base import RegisterFilePolicy
from repro.policies.regmutex import RegMutexPolicy
from repro.sim import backend
from repro.sim.backend import (EngineUnavailableError, parse_engine,
                               select_backend)
from repro.sim.compiled import (_BYPASSED_SM_ATTRS, compiled_refusal,
                                core_bodies, policy_refusal)
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec
from repro.workloads.traces import AddressModel

TINY = SCALES["tiny"]
MICRO_CONFIG = GPUConfig(num_sms=2)


def build_gpu(policy: str = "baseline", config: GPUConfig = MICRO_CONFIG,
              sample_usage: bool = False, **policy_kwargs) -> GPU:
    instance = build_workload(get_spec("KM"), config, TINY)
    return GPU(config, instance.kernel, POLICIES[policy](**policy_kwargs),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness, sample_usage=sample_usage)


# ----------------------------------------------------------------------
# parse_engine / select_backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("raw, expected", [
    (None, "auto"),
    ("", "auto"),
    ("auto", "auto"),
    (" Reference \n", "reference"),
    ("REFERENCE", "reference"),
    ("Compiled", "compiled"),
])
def test_parse_engine_normalizes(raw, expected):
    assert parse_engine(raw) == expected


@pytest.mark.parametrize("raw", ["fast", "dense", "vector", "vectorized",
                                 "fused", "fused,"])
def test_parse_engine_rejects_unknown_names(raw):
    with pytest.raises(ValueError, match="unknown engine"):
        parse_engine(raw)


def test_select_backend_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", True)
    monkeypatch.setenv(backend.ENGINE_ENV, "reference")
    assert select_backend("compiled") == "compiled"
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


def test_select_backend_auto_degrades_to_reference_without_extension(
        monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    assert select_backend() == "reference"
    assert select_backend("auto") == "reference"


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


# ----------------------------------------------------------------------
# Run-level compiled eligibility (pure Python: no extension needed)
# ----------------------------------------------------------------------
#: Why ``compiled_refusal`` refuses a run, and where an explicit
#: ``engine="compiled"`` request then lands.
INELIGIBLE_RUNS = [
    ("sanitizer", "reference"),
    ("cta_tracer", "reference"),
    ("telemetry", "reference"),
    ("lrr", "reference"),          # the C scan is GTO's
    ("usage_sampling", "reference"),
    ("address_model", "reference"),
    ("step_wrapper", "reference"),
    ("try_issue_wrapper", "reference"),
]
#: The first failed check ``compiled_refusal`` reports for each.
REFUSAL_REASONS = {"sanitizer": "sanitizer", "cta_tracer": "tracer",
                   "telemetry": "telemetry", "lrr": "scheduler:LRRScheduler",
                   "usage_sampling": "usage-sampling",
                   "address_model": "address-model:CustomAddressModel",
                   "step_wrapper": "sm-override:step",
                   "try_issue_wrapper": "sm-override:_try_issue"}


def build_ineligible_gpu(reason: str) -> GPU:
    if reason == "lrr":
        return build_gpu(config=GPUConfig(num_sms=2, warp_scheduling="lrr"))
    if reason == "usage_sampling":
        return build_gpu(sample_usage=True)
    gpu = build_gpu()
    if reason == "sanitizer":
        from repro.validate.sanitizer import attach_sanitizer
        attach_sanitizer(gpu)
    elif reason == "cta_tracer":
        # A CTA-level tracer only observes launch/retire, but tracers are
        # refused by the C core as a whole.
        from repro.sim.tracing import attach_tracer
        attach_tracer(gpu, level="cta")
    elif reason == "telemetry":
        from repro.obs.telemetry import attach_telemetry
        attach_telemetry(gpu)
    elif reason == "address_model":
        gpu.address_model.__class__ = type("CustomAddressModel",
                                           (AddressModel,), {})
    else:
        # Pass-through instance wrappers, as the mutation self-test
        # installs: the reference step calls them, the C core could not.
        sm = gpu.sms[1]
        name = "step" if reason == "step_wrapper" else "_try_issue"
        setattr(sm, name, getattr(sm, name))
    return gpu


@pytest.mark.parametrize("reason", [r for r, __ in INELIGIBLE_RUNS])
def test_compiled_gate_refuses_ineligible_runs(reason):
    gpu = build_ineligible_gpu(reason)
    assert compiled_refusal(gpu) == REFUSAL_REASONS[reason]


def test_concurrent_launches_are_refused_with_their_reason():
    from repro.workloads.apps import APP_POOLS, build_app
    specs = build_app(APP_POOLS["st+km"], MICRO_CONFIG, TINY)
    gpu = GPU.concurrent(MICRO_CONFIG, specs, POLICIES["baseline"]())
    assert compiled_refusal(gpu) == "concurrent-launches"


@pytest.mark.parametrize("policy", ["vt_regmutex"])
def test_compiled_gate_refuses_non_inert_policies(policy):
    """The C core transcribes RegMutexPolicy's own issue hook and idle
    attribution: a subclass or an instance wrapping either is refused."""
    gpu = build_gpu(policy)
    regmutex = gpu.sms[0]._policy
    assert policy_refusal(regmutex) is None
    for name in ("on_issue", "classify_idle"):
        body = getattr(RegMutexPolicy, name)
        regmutex.__class__ = type(f"Wrapped{name}", (RegMutexPolicy,), {
            name: lambda self, *args, body=body: body(self, *args)})
        assert policy_refusal(regmutex) == f"policy-hook:{name}"
        assert compiled_refusal(gpu) == f"policy-hook:{name}"
        regmutex.__class__ = RegMutexPolicy
        setattr(regmutex, name, getattr(regmutex, name))
        assert compiled_refusal(gpu) == f"policy-hook:{name}"
        delattr(regmutex, name)
    assert compiled_refusal(gpu) is None


def test_issue_hook_needs_regmutex_body():
    """``needs_issue_hook`` is admitted only with RegMutexPolicy.on_issue:
    the base body (or another policy's) would be skipped by the core."""
    gpu = build_gpu()
    policy = gpu.sms[0]._policy
    policy.__class__ = type("Hooked", (type(policy),),
                            {"needs_issue_hook": True})
    assert compiled_refusal(gpu) == "policy-hook:on_issue"


def test_regmutex_bodies_follow_the_class_not_the_name():
    """``core_bodies`` keys off the class objects: a renamed RegMutex runs
    both bodies, one routing ``on_issue`` back to the base body runs only
    the idle attribution, and a mixin whose ``classify_idle`` the
    RegMutex body's ``super()`` call would reach is refused."""
    gpu = build_gpu("vt_regmutex")
    policy = gpu.sms[0]._policy
    assert core_bodies(policy) == (True, True)
    policy.name = "renamed"
    assert core_bodies(policy) == (True, True)
    policy.__class__ = type("IdleOnly", (RegMutexPolicy,), {
        "needs_issue_hook": False,
        "on_issue": RegisterFilePolicy.on_issue})
    assert core_bodies(policy) == (False, True)
    # The SM caches its issue hook when the policy is assigned.
    assert compiled_refusal(gpu) == "policy-hook:on_issue"
    gpu.sms[0].policy = policy
    assert compiled_refusal(gpu) is None

    class Mixin(RegisterFilePolicy):
        def classify_idle(self, dt):
            return "other"

    policy.__class__ = type("Mixed", (RegMutexPolicy, Mixin), {})
    assert core_bodies(policy) == (True, False)
    assert compiled_refusal(gpu) == "policy-hook:classify_idle"


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_compiled_gate_admits_served_policies(policy):
    """Launch/finish/tick/idle hooks and transit settles are served as
    ops through the real policy, and the core runs vt_regmutex's issue
    hook and idle attribution itself, so every registered policy
    qualifies."""
    gpu = build_gpu(policy)
    assert policy_refusal(gpu.sms[0]._policy) is None
    assert compiled_refusal(gpu) is None


def test_instance_policy_override_defeats_inertness():
    gpu = build_gpu()
    policy = gpu.sms[0]._policy
    assert policy_refusal(policy) is None
    policy.classify_idle = lambda dt: "other"
    assert policy_refusal(policy) == "policy-hook:classify_idle"
    assert compiled_refusal(gpu) == "policy-hook:classify_idle"


def test_instance_override_of_a_served_hook_stays_eligible():
    """A wrapper on a served hook is honored: the driver calls it."""
    gpu = build_gpu("virtual_thread")
    policy = gpu.sms[0]._policy
    original = policy.on_tick
    policy.on_tick = lambda now: original(now)
    assert compiled_refusal(gpu) is None


def test_instance_sm_override_defeats_run_eligibility():
    """Mutation-style instance wrappers on any SM method the C core
    bypasses, or on the stats flush it inlines, must disqualify: the
    Python engines would honor them, the C core would not."""
    gpu = build_gpu()
    assert compiled_refusal(gpu) is None
    sm = gpu.sms[0]
    for name in _BYPASSED_SM_ATTRS:
        setattr(sm, name, getattr(sm, name))
        assert compiled_refusal(gpu) == f"sm-override:{name}", name
        delattr(sm, name)
    sm.stats.accumulate = sm.stats.accumulate
    assert compiled_refusal(gpu) == "stats-override:accumulate"


#: A method of each hierarchy part, and where that part lives on the GPU.
HIERARCHY_PARTS = {
    "hierarchy": (lambda gpu: gpu.hierarchy, MemoryHierarchy, "load"),
    "dram": (lambda gpu: gpu.hierarchy.dram, DRAM, "request"),
    "l2": (lambda gpu: gpu.hierarchy.l2, Cache, "access_line"),
    "l1": (lambda gpu: gpu.hierarchy.l1s[1], Cache, "access_line"),
}


@pytest.mark.parametrize("part", sorted(HIERARCHY_PARTS))
def test_hierarchy_instance_override_refuses_both_fast_engines(part):
    """The C core transcribes the whole hierarchy, so an instance wrapper
    anywhere on it refuses the run."""
    gpu = build_gpu()
    get, __, method = HIERARCHY_PARTS[part]
    obj = get(gpu)
    setattr(obj, method, getattr(obj, method))
    assert compiled_refusal(gpu) == f"hierarchy-override:{method}"


@pytest.mark.parametrize("part", sorted(HIERARCHY_PARTS))
def test_hierarchy_subclass_refuses_both_fast_engines(part):
    gpu = build_gpu()
    get, cls, __ = HIERARCHY_PARTS[part]
    obj = get(gpu)
    obj.__class__ = type(f"Custom{cls.__name__}", (cls,), {})
    assert compiled_refusal(gpu) == f"hierarchy-override:Custom{cls.__name__}"


@pytest.mark.parametrize("engine", ["reference"] + (
    ["compiled"] if backend.compiled_available() else []))
def test_wrapped_hierarchy_load_runs_on_reference(engine):
    """A counting wrapper on ``hierarchy.load`` is honored: the run falls
    back to the reference step, which calls it for every load, and the
    compiled request records why."""
    gpu = build_gpu()
    hier = gpu.hierarchy
    calls = []
    original = hier.load

    def counting_load(sm_id, address, now):
        calls.append(now)
        return original(sm_id, address, now)

    hier.load = counting_load
    result = gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    assert gpu.engine_used == "reference"
    assert gpu.engine_refusal == (
        "hierarchy-override:load" if engine == "compiled" else None)
    assert len(calls) == hier.stats.loads > 0
    plain = build_gpu().run(max_cycles=TINY.max_cycles, engine=engine)
    assert result.to_json() == plain.to_json()


def test_auto_without_extension_records_extension_missing(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    gpu = build_gpu()
    result = gpu.run(max_cycles=TINY.max_cycles)
    assert gpu.engine_used == "reference"
    assert gpu.engine_refusal == "extension-missing"
    assert "engine_refusal" not in result.to_json()
    assert "extension-missing" not in str(result.to_json())


#: What the artifacts read, ``(engine_used, engine_refusal)``, for each
#: (requested engine, C extension importable, run admitted by the gate);
#: the refused runs use Fig 5 usage sampling, and ``dense`` is the oracle
#: switch ``REPRO_DENSE_STEP=1``.  An explicit ``compiled`` request
#: without the extension raises instead of running.  Only ``auto`` and
#: ``compiled`` share pairs, and they run the same way whenever both run,
#: so the pair identifies the request.
ENGINE_PAIRS = {
    ("auto", True, True): ("compiled", None),
    ("auto", True, False): ("reference", "usage-sampling"),
    ("auto", False, True): ("reference", "extension-missing"),
    ("auto", False, False): ("reference", "extension-missing"),
    ("compiled", True, True): ("compiled", None),
    ("compiled", True, False): ("reference", "usage-sampling"),
    ("compiled", False, True): EngineUnavailableError,
    ("compiled", False, False): EngineUnavailableError,
    ("reference", True, True): ("reference", None),
    ("reference", True, False): ("reference", None),
    ("reference", False, True): ("reference", None),
    ("reference", False, False): ("reference", None),
    ("dense", True, True): ("dense", None),
    ("dense", False, False): ("dense", None),
}


@pytest.mark.parametrize("requested, extension, admitted",
                         sorted(ENGINE_PAIRS))
def test_requested_engine_is_recoverable_from_the_pair(
        monkeypatch, requested, extension, admitted):
    if extension and not backend.compiled_available():
        pytest.skip("repro.sim._ckernel extension not built")
    if not extension:
        monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    if requested == "dense":
        monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    gpu = build_gpu(sample_usage=not admitted)
    expected = ENGINE_PAIRS[requested, extension, admitted]
    engine = None if requested == "dense" else requested
    if not isinstance(expected, tuple):
        with pytest.raises(expected):
            gpu.run(max_cycles=TINY.max_cycles, engine=engine)
        return
    gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    assert (gpu.engine_used, gpu.engine_refusal) == expected


@pytest.mark.parametrize("engine", ["reference"])
def test_explicit_python_engine_records_no_refusal(monkeypatch, engine):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    assert gpu.engine_used == engine
    assert gpu.engine_refusal is None


def test_scheduler_surface_cannot_be_wrapped_per_instance():
    """The scheduler surface the C core inlines (bucket scan, barrier
    wake, sleep fold) needs no instance gate: GTOScheduler declares
    __slots__, and compiled_refusal pins the exact type."""
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
    assert compiled_refusal(gpu) is None
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "compiled"
    assert gpu.engine_refusal is None


@needs_extension
@pytest.mark.parametrize("reason, expect_used", INELIGIBLE_RUNS)
def test_compiled_falls_back_per_run_eligibility_reason(
        monkeypatch, reason, expect_used):
    """Every refused run must route compiled to reference -- never
    error -- record why, and keep the dense oracle's bytes on the same
    surface."""
    gpu = build_ineligible_gpu(reason)
    result = gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == expect_used
    assert gpu.engine_refusal == REFUSAL_REASONS[reason]
    monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    dense = build_ineligible_gpu(reason).run(max_cycles=TINY.max_cycles)
    assert result.to_json() == dense.to_json()


@needs_extension
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_paper_policies_run_on_compiled(policy):
    """Every registered policy finishes a micro run on the C core,
    vt_regmutex included; a RegMutex whose issue hook is wrapped per
    instance drops to the reference step with its reason recorded."""
    gpu = build_gpu(policy)
    result = gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert not result.timed_out
    assert gpu.engine_used == "compiled"
    assert gpu.engine_refusal is None
    assert "engine_refusal" not in result.to_json()
    if policy == "vt_regmutex":
        wrapped = build_gpu(policy)
        for sm in wrapped.sms:
            sm._policy.on_issue = sm._policy.on_issue
        again = wrapped.run(max_cycles=TINY.max_cycles, engine="compiled")
        assert wrapped.engine_used == "reference"
        assert wrapped.engine_refusal == "policy-hook:on_issue"
        assert again.to_json() == result.to_json()


@needs_extension
@pytest.mark.parametrize("surface", ["sm", "stats"])
def test_compiled_only_overrides_fall_back_to_reference(surface):
    """Instance wrappers on the surface only the C core inlines route the
    run to the reference engine, which still honors them dynamically."""
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
    assert gpu.engine_used == "reference"
    assert gpu.engine_refusal == ("sm-override:_on_long_block"
                                  if surface == "sm"
                                  else "stats-override:accumulate")
