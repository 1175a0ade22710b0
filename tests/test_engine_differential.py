"""Engine differential tests (dense × reference × compiled).

Every engine backend is a pure performance transformation: for every
workload, policy and seed it must produce a ``SimResult`` that is
*byte-identical* (as sorted JSON) to the dense per-cycle oracle retained
behind ``REPRO_DENSE_STEP=1``.  These tests pin that contract over the
full golden corpus and over hypothesis-chosen (app, seed) micro-workloads
for every registered policy, for the reference event engine and (when
the ``repro.sim._ckernel`` extension is built) the compiled backend, so
any divergence introduced in the wakeup computation, the C core's issue
loop, global clock and idle accounting, its policy-hook ops (settle /
tick / idle), or its lowering/write-back protocol fails loudly with a
payload diff instead of silently drifting the science.

The golden replays run *bare* (no tracer/sanitizer) for the engine
comparison so the compiled backend actually engages on the baseline
case -- ``run_case`` attaches a CTA tracer, which conservatively routes a
run back to the reference engine (tests/test_engine_backend.py covers
that fallback routing itself).

The C core owns the memory hierarchy during a run and writes it back at
the end, so beyond ``SimResult`` bytes the tests compare the hierarchy's
full end state with the oracle's (``memory_state``): every cache set in
MRU order, the dirty keys, the merge tables, every counter and the DRAM
channel, plus the unsorted result JSON (the key order of
``dram_traffic_by_class``).  It owns RegMutex's shared register pool
(SRP) the same way, so the tests also compare every SM's pool
(``srp_state``): the free count, the lease table in dict order, the
acquire/denial counters, the pending denial flag and the SRP stall
cycles.

The engines skip the policy hooks whose call cannot change anything
(``wake_time`` for ticks, ``idle_wake`` for idle checks), and FineReg's
``blocked_restores`` counts skipped ticks in closed form, so the tests
also compare every SM's policy end state (``policy_state``), which
``SimResult`` does not carry: the switching counters and flags, the idle
cooldown, the live entries of every readiness heap, reg_dram's
DRAM-parked footprint and finereg_adaptive's epoch state.

FineReg's register file is compared the same way on every FineReg SM
(``register_file_state``): the ACRF's allocations and capacity, the PCRF's
capacity, free count and free-space monitor, each resident chain with the
tag of every slot, the RMU's pointer table and counters, the bit-vector
cache's resident PCs and hit/miss counts and the CTA status monitor.  One
leg runs it over the register-file parameters the campaign sweeps (Fig 17's
end splits, the bit-vector cache ablation's end sizes, a PCRF latency and a
finereg_adaptive run that repartitions).

The C core finishes a warp whose EXIT does not retire its CTA and settles
transits itself (on an SM whose policy has a tick or idle hook, unless the
finish or the settle batch flips ``scheduler_slots_free``) and writes the
warp, CTA and scheduler state back or through, so the tests compare that
end state too (``sm_state``): the warp and thread counts, the incoming
footprint, the earliest transit, the round-robin cursor, shared memory,
the active, pending and transit CTAs with each one's state, transit
target and times, every scheduler's members in attach order with their
``sched_seq``, its ``_seq``, sleep cache and current warp, and each
resident warp's state and trace position.  Legs cut runs of every
switching policy while transits toward both targets are in flight, and
others run cells whose finishes and settle batches flip the scheduler
slots, which the core must serve as ops.  A
warp's ``blocked_until`` is left out: the core makes the attempt where
``_try_issue`` peeks ahead, so a run cut by its cycle limit can leave a
short stall unrecorded that the Python engines recorded one attempt
early.  A hypothesis property lowers a cut reference run into a core and
writes it straight back: the identity on that state.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SCALES, GPUConfig, default_config
from repro.experiments.ablation_bitvector_cache import \
    SIZES as BITVECTOR_CACHE_SIZES
from repro.experiments.ablation_pcrf_latency import LATENCIES
from repro.experiments.common import SRP_RATIOS
from repro.experiments.fig17_rf_sensitivity import SPLITS
from repro.experiments.runner import POLICIES
from repro.isa.assembler import assemble
from repro.isa.kernel import Kernel, LaunchGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies import base as policy_base
from repro.policies.base import (IDLE_COOLDOWN, PendingTracker,
                                 idle_wake_trusted)
from repro.policies.regmutex import SRP_BLOCK, SRP_RETRY_INTERVAL
from repro.policies.unified_memory import apply_unified_memory
from repro.policies.virtual_thread import VirtualThreadPolicy
from repro.sim.cta import CTASim, CTAState
from repro.sim.gpu import GPU
from repro.sim.tracing import attach_tracer
from repro.sim.warp import WarpSim
from repro.validate.golden import CORPUS, run_case
from repro.validate.invariants import check_policy, check_sm
from repro.validate.sanitizer import attach_sanitizer
from repro.workloads.apps import APP_POOLS, AppPool, StreamSpec, build_app
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec
from repro.workloads.traces import AddressModel

TINY = SCALES["tiny"]
SMALL = SCALES["small"]
#: Two SMs keep the micro-workloads fast while still exercising the
#: cross-SM parts of the engines (shared L2/DRAM, global cycle advance,
#: the compiled core's cross-SM op ordering).
MICRO_CONFIG = GPUConfig(num_sms=2)
#: Four SMs, so the hook ops of more than two SMs interleave in a cycle.
QUAD_CONFIG = GPUConfig(num_sms=4)
#: A 32-line, 2-way L2: every run evicts dirty L2 lines (and charges their
#: DRAM write-back) and merges misses.
PRESSURE_CONFIG = replace(MICRO_CONFIG, l2_size_bytes=16 * 128 * 2,
                          l2_assoc=2)
APPS = ("KM", "HS", "LB")

#: The production backends differentially pinned to the dense oracle.
#: The compiled leg joins the matrix whenever its extension is importable
#: (built best-effort at install; the extension-absent CI job runs the
#: suite without it, so the conditional is part of the contract).
from repro.sim.backend import compiled_available  # noqa: E402

ENGINES = ("reference",) + (("compiled",) if compiled_available() else ())
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


def memory_state(hier) -> dict:
    """The hierarchy state the C core lowers and writes back, and the DRAM
    channel it shares with served ops."""
    dram = hier.dram
    return {
        "caches": [(cache.name, cache.num_sets,
                    [list(ways) for ways in cache._sets], set(cache._dirty),
                    asdict(cache.stats), cache.last_evicted_dirty)
                   for cache in hier.l1s + [hier.l2]],
        "outstanding": [dict(table) for table in hier._outstanding],
        "hierarchy_stats": asdict(hier.stats),
        "dram_stats": asdict(dram.stats),
        "dram_class_order": list(dram.stats.bytes_by_class),
        "channel_free": repr(dram._channel_free),
    }


def srp_pool(policy) -> dict:
    """A RegMutex pool as the C core lowers and writes it back (the lease
    table in dict order)."""
    return {"srp_free": policy.srp_free,
            "leases": list(policy._leases.items()),
            "srp_acquires": policy.srp_acquires,
            "srp_denials": policy.srp_denials,
            "srp_blocked": policy._srp_blocked}


def srp_state(gpu) -> list:
    """Every SM's pool and SRP stall cycles (empty for policies without a
    pool)."""
    return [dict(srp_pool(sm._policy),
                 srp_stall_cycles=sm.stats.srp_stall_cycles)
            for sm in gpu.sms if hasattr(sm._policy, "srp_capacity")]


#: Policy counters and flags beyond ``SimResult``, each compared on the
#: SMs whose policy has it: the switching counters, reg_dram's DRAM-parked
#: footprint and finereg_adaptive's epoch state.
POLICY_FIELDS = ("rf_used_entries", "_blocked_on_rf", "blocked_restores",
                 "failed_spills", "switch_pairs", "_dram_count",
                 "_dram_regs", "_next_epoch", "_epoch_failed_spills",
                 "_epoch_acrf_blocked", "_seen_blocked_restores",
                 "repartitions_to_acrf", "repartitions_to_pcrf")


def tracker_state(tracker: PendingTracker) -> tuple:
    """A readiness heap's live entries: sorted ``(ready_time, cta_id)`` of
    heap entries still PENDING or TRANSIT, and the sorted ids of ready
    CTAs still PENDING (entries that left those states are dropped lazily,
    whenever a drain or a read gets to them)."""
    live = (CTAState.PENDING, CTAState.TRANSIT)
    return (sorted((ready, cta_id) for ready, cta_id, cta in tracker._heap
                   if cta.state in live),
            sorted(cta.cta_id for cta in tracker._ready
                   if cta.state is CTAState.PENDING))


def register_file_state(policy) -> dict:
    """A FineReg SM's register file: the ACRF's allocations and capacity,
    the PCRF's capacity, free count and free-space monitor, each resident
    chain as ``(slot, tag)`` in link order, the RMU's pointer-table rows
    and counters, the bit-vector cache's resident PCs and counters and the
    status monitor's statuses (in tracking order)."""
    acrf, pcrf, rmu = policy.acrf, policy.pcrf, policy.rmu
    cache = rmu.bitvector_cache
    return {
        "acrf": (acrf.allocations(), acrf.capacity),
        "pcrf": (pcrf.capacity, pcrf.free_entries, pcrf.occupancy_flags()),
        "chains": {cta_id: [(slot, pcrf.tag_at(slot))
                            for slot in pcrf.peek_chain(cta_id)]
                   for cta_id in sorted(pcrf.resident_cta_ids())},
        "pointer_table": [(cta_id, row.head_slot, row.live_count)
                          for cta_id, row in rmu._pointer_table.items()],
        "rmu_stats": asdict(rmu.stats),
        "bitvector_cache": ([None if line is None else line.pc
                             for line in cache._lines],
                            asdict(cache.stats)),
        "statuses": [(cta_id, policy.monitor.status_of(cta_id))
                     for cta_id in policy.monitor.tracked()],
    }


def policy_state(gpu) -> list:
    """Every SM's policy end state: ``POLICY_FIELDS``, every
    ``PendingTracker``, where ``on_idle`` can act the idle cooldown (the
    base cooldown nothing reads is left to each engine) and on a FineReg
    SM its register file."""
    states = []
    for sm in gpu.sms:
        policy = sm._policy
        state = {name: getattr(policy, name) for name in POLICY_FIELDS
                 if hasattr(policy, name)}
        if sm._needs_idle:
            state["_next_idle_check"] = policy._next_idle_check
        state["trackers"] = {
            name: tracker_state(value)
            for name, value in vars(policy).items()
            if isinstance(value, PendingTracker)}
        if hasattr(policy, "pcrf"):
            state["register_file"] = register_file_state(policy)
        states.append(state)
    return states


def sm_state(gpu) -> list:
    """Every SM's warp, CTA and scheduler end state: the counts the warp
    finishes lower and the settles move, the incoming footprint, the
    earliest transit and the round-robin cursor, the CTA lists with each
    CTA's ``(cta_id, state, transit_until, transit_target,
    pending_since)``, each scheduler's members (``(global warp id,
    sched_seq)`` in attach order), ``_seq``, sleep cache and current warp,
    and each resident warp's ``(state, pos)``."""
    states = []
    for sm in gpu.sms:
        lists = (sm.active_ctas, sm.pending_ctas, sm.transit_ctas)
        states.append({
            "active_warps": sm._active_warps,
            "active_threads": sm._active_threads,
            "incoming": (sm._incoming_ctas, sm._incoming_warps,
                         sm._incoming_threads),
            "transit_min": sm._transit_min,
            "next_sched": sm._next_sched,
            "shmem_used": sm.shmem_used,
            "ctas": [[(cta.cta_id, cta.state, cta.transit_until,
                       cta.transit_target, cta.pending_since)
                      for cta in ctas] for ctas in lists],
            "schedulers": [([(warp.global_warp_id, warp.sched_seq)
                             for warp in sched.warps],
                            sched._seq, sched._sleep_until,
                            getattr(sched._current, "global_warp_id", None))
                           for sched in sm.schedulers],
            "sched_sleep": sm._sched_sleep,
            "warps": [(warp.global_warp_id, warp.state, warp.pos)
                      for ctas in lists for cta in ctas
                      for warp in cta.warps],
        })
    return states


def assert_same_end_state(dense_gpu, dense, gpu, result, label: str):
    """Result bytes (unsorted: the key order counts too), the full memory
    end state, the SRP state, the policy state and the warp, CTA and
    scheduler state of ``gpu`` equal the dense oracle's."""
    assert json.dumps(dense.to_json()) == json.dumps(result.to_json()), (
        f"{label}: result diverged from the dense oracle")
    expected = memory_state(dense_gpu.hierarchy)
    actual = memory_state(gpu.hierarchy)
    for key, value in expected.items():
        assert actual[key] == value, (
            f"{label}: {key} diverged from the dense oracle")
    assert srp_state(gpu) == srp_state(dense_gpu), (
        f"{label}: SRP state diverged from the dense oracle")
    expected = policy_state(dense_gpu)
    for sm_id, (actual, wanted) in enumerate(zip(policy_state(gpu),
                                                 expected)):
        assert actual == wanted, (
            f"{label}: SM {sm_id} policy state diverged from the dense "
            f"oracle")
    for sm_id, (actual, wanted) in enumerate(zip(sm_state(gpu),
                                                 sm_state(dense_gpu))):
        for key, value in wanted.items():
            assert actual[key] == value, (
                f"{label}: SM {sm_id} {key} diverged from the dense oracle")


def end_state_differential(build, max_cycles: int, label: str):
    """Run ``build()``'s GPU on the dense oracle and on every engine and
    compare full end states; returns the dense GPU, its result and, by
    engine, the GPUs they ran."""
    with dense_engine():
        dense_gpu = build()
        dense = dense_gpu.run(max_cycles=max_cycles)
    gpus = {}
    for engine in ENGINES:
        gpu = gpus[engine] = build()
        result = gpu.run(max_cycles=max_cycles, engine=engine)
        assert_same_end_state(dense_gpu, dense, gpu, result,
                              f"{engine} ({label})")
    return dense_gpu, dense, gpus


def build_micro_gpu(policy: str, app: str, seed: int,
                    config: GPUConfig = MICRO_CONFIG,
                    **policy_kwargs) -> GPU:
    spec = replace(get_spec(app), seed=seed)
    instance = build_workload(spec, config, TINY)
    return GPU(config, instance.kernel, POLICIES[policy](**policy_kwargs),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


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
    gpu._run_event = lambda max_cycles: sentinel
    assert gpu.run(max_cycles=10, engine="reference") is sentinel


@needs_extension
def test_uninstrumented_baseline_run_takes_the_compiled_path():
    """The C core must actually engage for a plain baseline run (guards
    compiled_refusal drift)."""
    gpu = build_micro_gpu("baseline", "KM", 0)
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "compiled", (
        "compiled_refusal() stopped admitting a plain uninstrumented "
        f"baseline run (engine_used={gpu.engine_used!r}, "
        f"engine_refusal={gpu.engine_refusal!r})")


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
    """Uninstrumented replay: every backend byte-identical to the oracle,
    memory end state included."""
    with dense_engine():
        dense, dense_gpu = simulate_case_bare(case)
    current, gpu = simulate_case_bare(case, engine=engine)
    assert_same_end_state(dense_gpu, dense, gpu, current,
                          f"{engine} on {case.name}")


# ----------------------------------------------------------------------
# Concurrent kernels: arbiter-aware runs stay on the differential wall
# ----------------------------------------------------------------------
def test_run_eligible_rejects_concurrent_runs():
    """Multi-launch GPUs must be conservatively routed away from the C
    core (which models one grid per SM)."""
    from repro.sim.compiled import compiled_refusal

    single = build_micro_gpu("baseline", "KM", 0)
    assert compiled_refusal(single) is None
    concurrent = build_concurrent_gpu("st+km", "baseline")
    assert compiled_refusal(concurrent) == "concurrent-launches"


@needs_extension
@pytest.mark.parametrize("policy", ("baseline", "finereg"))
def test_concurrent_decoupled_request_falls_back_to_reference(policy):
    """An explicit ``engine="compiled"`` request on a concurrent run must
    land on the arbiter-aware event engine -- and still be byte-identical
    to the dense oracle."""
    with dense_engine():
        dense = build_concurrent_gpu("st+km", policy).run(
            max_cycles=TINY.max_cycles)
    gpu = build_concurrent_gpu("st+km", policy)
    current = gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "reference", (
        f"concurrent run must fall back to the reference event engine, "
        f"got {gpu.engine_used!r}")
    assert result_bytes(dense) == result_bytes(current)


@pytest.mark.parametrize("instrument", ("bare", "sanitized", "traced",
                                        "traced+sanitized"))
def test_concurrent_identity_survives_instrumentation(instrument):
    """Dense-vs-reference byte identity for a concurrent run must hold
    with the sanitizer and/or tracer attached (acceptance: sanitizer
    on/off, traced/untraced)."""
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
    assert result_bytes(dense) == result_bytes(run_one(engine="reference"))


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_concurrent_runs_bit_identical(policy, data):
    """Hypothesis-chosen (pool, arbitration) concurrent runs, every policy:
    the event engine must match the dense oracle byte for byte."""
    pool = data.draw(st.sampled_from(sorted(APP_POOLS)), label="pool")
    arbitration = data.draw(st.sampled_from(("priority", "round_robin")),
                            label="arbitration")
    with dense_engine():
        dense = build_concurrent_gpu(pool, policy, arbitration).run(
            max_cycles=TINY.max_cycles)
    current = build_concurrent_gpu(pool, policy, arbitration).run(
        max_cycles=TINY.max_cycles)
    assert result_bytes(dense) == result_bytes(current), (
        f"event engine diverged from the dense oracle "
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
    kwargs = {}
    if policy == "vt_regmutex":
        kwargs["srp_ratio"] = data.draw(st.sampled_from(SRP_RATIOS),
                                        label="SRP ratio")
    end_state_differential(
        lambda: build_micro_gpu(policy, app, seed, **kwargs),
        TINY.max_cycles, f"{policy}, {app}, seed={seed}, {kwargs}")


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_four_sm_runs_bit_identical(policy, app):
    """Four SMs: the settle / tick / idle ops of several SMs interleave
    within one cycle, and every backend must match the dense oracle,
    memory end state included."""
    end_state_differential(
        lambda: build_micro_gpu(policy, app, 0, QUAD_CONFIG),
        TINY.max_cycles, f"{policy}, {app}, 4 SMs")


# ----------------------------------------------------------------------
# Policy timers: the ticks every engine but the dense oracle skips
# ----------------------------------------------------------------------
#: The policies that override ``on_tick``.
TIMER_POLICIES = ("finereg", "finereg_adaptive", "reg_dram",
                  "virtual_thread", "vt_regmutex")


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy", TIMER_POLICIES)
def test_timer_policy_end_state(policy, app):
    """Seed 3 on 2 SMs: ready CTAs wait for scheduler slots, registers or
    ACRF space, so the skipped ticks and the closed-form
    ``blocked_restores`` must leave the oracle's policy state."""
    dense, __, __ = end_state_differential(
        lambda: build_micro_gpu(policy, app, 3), TINY.max_cycles,
        f"{policy}, {app}, seed 3")
    assert all(sm._needs_tick for sm in dense.sms)
    if policy.startswith("finereg") and app == "HS":
        assert dense.sms[0]._policy.blocked_restores > 0


# ----------------------------------------------------------------------
# The idle gate: on_idle calls every engine but the dense oracle skips
# ----------------------------------------------------------------------
def park_anyway_policy():
    """A Virtual Thread subclass that also parks a stalled CTA when nothing
    can take its place: it widens ``_act_on_idle`` and inherits the
    ``idle_wake`` written for the narrower body, so the engines must not
    trust it.  Built per test, like the other test-only policy classes,
    so that the registered family a module import sees stays the six."""

    class ParkAnywayPolicy(VirtualThreadPolicy):
        name = "vt_park_anyway"

        def _act_on_idle(self, now: int, stalled) -> bool:
            if super()._act_on_idle(now, stalled):
                return True
            self._park(stalled[0], now)
            return True
    return ParkAnywayPolicy


@pytest.mark.parametrize("app", ("KM", "HS", "LB", "SR"))
def test_widened_idle_hook_is_not_gated(app):
    """A subclass that widens ``_act_on_idle`` but inherits ``idle_wake``
    acts where the inherited bound says nothing can: its gate stays open,
    so every engine, the C core included, matches the dense oracle."""
    policy = park_anyway_policy()
    instance = build_workload(replace(get_spec(app), seed=3), MICRO_CONFIG,
                              TINY)

    def build():
        return GPU(MICRO_CONFIG, instance.kernel, policy,
                   instance.trace_provider, instance.address_model,
                   liveness=instance.liveness)
    __, __, gpus = end_state_differential(
        build, TINY.max_cycles, f"{policy.name}, {app}, seed 3")
    compiled = gpus.get("compiled")
    if compiled is not None:
        assert compiled.engine_refusal is None
        assert compiled.engine_used == "compiled"


def test_idle_wake_is_trusted_only_beside_its_act_on_idle():
    """Every registered policy's gate is trusted; a widened subclass's is
    not, nor one whose ``on_idle``, ``idle_wake`` or ``_act_on_idle`` the
    instance dict shadows."""
    gpu = build_micro_gpu("reg_dram", "KM", 0)
    for name, factory in POLICIES.items():
        assert idle_wake_trusted(factory()(gpu.sms[0])), name
    assert not idle_wake_trusted(park_anyway_policy()(gpu.sms[0]))
    for name in ("on_idle", "idle_wake", "_act_on_idle"):
        policy = VirtualThreadPolicy(gpu.sms[0])
        setattr(policy, name, getattr(policy, name))
        assert not idle_wake_trusted(policy), name


@pytest.mark.parametrize("policy", ("finereg", "reg_dram"))
def test_idle_cooldown_is_one_constant(policy, monkeypatch):
    """The engines and the C core take the cooldown from
    ``policies.base.IDLE_COOLDOWN`` at run time: patched, every engine
    still matches the oracle, whose cooldown moved with it."""
    def build():
        return build_micro_gpu(policy, "KM", 3)
    with dense_engine():
        default = build()
        default.run(max_cycles=TINY.max_cycles)
    monkeypatch.setattr(policy_base, "IDLE_COOLDOWN", 5)
    dense, __, __ = end_state_differential(
        build, TINY.max_cycles, f"{policy}, KM, seed 3, cooldown 5")
    assert policy_state(dense) != policy_state(default)


@pytest.mark.parametrize("app", ("HS", "LB"))
@pytest.mark.parametrize("max_cycles", (1500, 2000))
def test_blocked_span_open_at_a_timeout(app, max_cycles):
    """A finereg run cut while ready CTAs wait on ACRF space: the span is
    still open at the end, so ``blocked_restores`` reads ``count - mark``,
    which must be the oracle's per-cycle count."""
    dense, result, gpus = end_state_differential(
        lambda: build_micro_gpu("finereg", app, 3), max_cycles,
        f"finereg, {app}, seed 3, max_cycles={max_cycles}")
    assert result.timed_out
    for gpu in gpus.values():
        assert any(sm._policy._blocked_mark is not None for sm in gpu.sms)
    compiled = gpus.get("compiled")
    if compiled is not None:
        # The compiled engine skipped the ticks since the span opened.
        assert any(sm._policy._blocked_mark is not None
                   and sm._policy._blocked_mark < compiled.executed_cycles
                   for sm in compiled.sms)


# ----------------------------------------------------------------------
# FineReg's register file over the parameters the campaign sweeps
# ----------------------------------------------------------------------
#: Fig 17's end splits, the bit-vector cache ablation's smallest and
#: largest cache and the PCRF latency ablation's longest latency.
RF_SWEEP = {
    "rf_split=64/192": MICRO_CONFIG.with_rf_split(*SPLITS[0]),
    "rf_split=192/64": MICRO_CONFIG.with_rf_split(*SPLITS[-1]),
    f"bitvector_cache={BITVECTOR_CACHE_SIZES[0]}": replace(
        MICRO_CONFIG, bitvector_cache_entries=BITVECTOR_CACHE_SIZES[0]),
    f"bitvector_cache={BITVECTOR_CACHE_SIZES[-1]}": replace(
        MICRO_CONFIG, bitvector_cache_entries=BITVECTOR_CACHE_SIZES[-1]),
    f"pcrf_latency={LATENCIES[-1]}": replace(
        MICRO_CONFIG, pcrf_access_latency=LATENCIES[-1]),
}


#: A cut at 2,000 cycles leaves chains in every swept PCRF on HS and LB
#: (seed 3), so the chains, their slots and tags are compared mid-run too.
RF_CUT = 2000


def resident_chains(gpu) -> int:
    return sum(sm._policy.pcrf.resident_ctas for sm in gpu.sms)


@pytest.mark.parametrize("max_cycles", (RF_CUT, TINY.max_cycles))
@pytest.mark.parametrize("app", ("HS", "LB"))
@pytest.mark.parametrize("sweep", sorted(RF_SWEEP))
def test_finereg_register_file_end_state_over_swept_parameters(
        sweep, app, max_cycles):
    """Every engine leaves the oracle's ACRF, PCRF chains and tags, RMU
    and bit-vector cache at each swept register-file parameter, at the end
    of the grid and cut mid-run."""
    config = RF_SWEEP[sweep]
    dense, result, __ = end_state_differential(
        lambda: build_micro_gpu("finereg", app, 3, config), max_cycles,
        f"finereg, {app}, seed 3, {sweep}, max_cycles={max_cycles}")
    policies = [sm._policy for sm in dense.sms]
    assert sum(p.rmu.stats.spills for p in policies) > 0
    assert all(p.pcrf.capacity == min(config.pcrf_entries, 1024)
               for p in policies)
    assert all(p.rmu.bitvector_cache.num_entries
               == config.bitvector_cache_entries for p in policies)
    assert result.timed_out == (resident_chains(dense) > 0)


@pytest.mark.parametrize("max_cycles", (2500, TINY.max_cycles))
def test_finereg_adaptive_register_file_end_state_across_repartitions(
        max_cycles):
    """HS, seed 3: both SMs move the boundary toward the ACRF, so the PCRF
    shrinks only while its top slots are free, which depends on which slots
    each spill took.  Cut at 2,500 cycles, both have shrunk and still hold
    chains."""
    dense, result, __ = end_state_differential(
        lambda: build_micro_gpu("finereg_adaptive", "HS", 3), max_cycles,
        f"finereg_adaptive, HS, seed 3, max_cycles={max_cycles}")
    for sm in dense.sms:
        policy = sm._policy
        assert policy.repartitions_to_acrf + policy.repartitions_to_pcrf > 0
        assert policy.pcrf.capacity < MICRO_CONFIG.pcrf_entries
    assert result.timed_out == (resident_chains(dense) > 0)


# ----------------------------------------------------------------------
# Warp EXITs the C core finishes itself
# ----------------------------------------------------------------------
def mixed_ctas(gpu) -> int:
    """Resident CTAs with both finished and unfinished warps."""
    return sum(1 for sm in gpu.sms
               for ctas in (sm.active_ctas, sm.pending_ctas, sm.transit_ctas)
               for cta in ctas
               if 0 < cta.unfinished_warps() < len(cta.warps))


@pytest.mark.parametrize("app, max_cycles", [
    ("KM", 3000), ("KM", 5100), ("SR", 4300)])
def test_baseline_end_state_of_a_timed_out_run(app, max_cycles):
    """A baseline run cut mid-grid: warps the core finished sit beside
    unfinished siblings, and the timeout credits only the issued prefix of
    the unfinished ones (``SimResult``'s counters), with the counts,
    scheduler members and warp states written back (``sm_state``)."""
    dense, result, gpus = end_state_differential(
        lambda: build_micro_gpu("baseline", app, 3), max_cycles,
        f"baseline, {app}, seed 3, max_cycles={max_cycles}")
    assert result.timed_out
    assert mixed_ctas(dense) > 0
    compiled = gpus.get("compiled")
    if compiled is not None:
        assert compiled.engine_ops["exit"] == result.completed_ctas


#: Warp 0 loads, waits on the load and exits; its siblings go straight to
#: the barrier, so warp 0's EXIT completes it and releases them.
BARRIER_EXIT_KERNEL = """
.block entry
    ldg   R1, R0 @stream
    ialu  R2, R1
    bar
    ialu  R3, R2
    exit
.endblock
"""


class ExitBesideBarrier:
    """Traces for ``BARRIER_EXIT_KERNEL``: warp 0 skips the barrier."""

    def trace_for(self, cta_id: int, warp_id: int) -> list:
        return [0, 1, 4] if warp_id == 0 else [2, 3, 4]


def build_barrier_exit_gpu(policy: str) -> GPU:
    kernel = Kernel("barrier_exit", assemble(BARRIER_EXIT_KERNEL),
                    LaunchGeometry(threads_per_cta=128, grid_ctas=64),
                    regs_per_thread=8)
    return GPU(MICRO_CONFIG, kernel, POLICIES[policy](), ExitBesideBarrier(),
               AddressModel())


def slots_flipped(sm, finish):
    """Run ``finish()`` on ``sm``; True when it made
    ``scheduler_slots_free`` true for the run's launch on an SM whose
    policy has a tick or idle hook (the finishes the C core serves as
    ops)."""
    launch = sm.gpu.launches[0]
    before = sm.scheduler_slots_free(launch)
    finish()
    return ((sm._needs_tick or sm._needs_idle) and not before
            and sm.scheduler_slots_free(launch))


@pytest.mark.parametrize("policy", ("baseline", "virtual_thread"))
def test_exit_that_releases_a_barrier(policy):
    """No suite app has an EXIT that completes a barrier.  Here every CTA
    has one, and it leaves unfinished siblings, so the core releases the
    barrier in its own finish on both policies, unless on
    virtual_thread's SMs the finish frees the scheduler slots its tick
    reads (then it is an op); both match the oracle."""
    releases, flips = [0], [0]

    def build():
        gpu = build_barrier_exit_gpu(policy)
        if os.environ.get("REPRO_DENSE_STEP") == "1":
            for sm in gpu.sms:
                def counting_finish(warp, now, _sm=sm,
                                    _inner=sm._finish_warp):
                    waiting = warp.cta.barrier_arrived
                    flipped = slots_flipped(_sm, lambda: _inner(warp, now))
                    if waiting and not warp.cta.barrier_arrived:
                        releases[0] += 1
                    if flipped and not warp.cta.finished:
                        flips[0] += 1
                sm._finish_warp = counting_finish
        return gpu
    dense, result, gpus = end_state_differential(
        build, TINY.max_cycles, f"{policy}, an EXIT releases a barrier")
    assert not result.timed_out
    assert releases[0] == result.completed_ctas == 64
    compiled = gpus.get("compiled")
    if compiled is not None:
        assert compiled.engine_used == "compiled"
        assert compiled.engine_ops["exit"] == 64 + flips[0]


# ----------------------------------------------------------------------
# Transits the C core settles itself
# ----------------------------------------------------------------------
#: (app, spec seed, cycle limit): on 2 SMs each cut leaves transits toward
#: ACTIVE and toward PENDING in flight under every switching policy.
TRANSIT_CUTS = (("KM", 3, 1000), ("ST", 0, 1010), ("BF", 0, 764))


@pytest.mark.parametrize("app, seed, max_cycles", TRANSIT_CUTS)
@pytest.mark.parametrize("policy", TIMER_POLICIES)
def test_end_state_with_transits_in_flight(policy, app, seed, max_cycles):
    """A run cut while switches are in flight: the transit list, each
    CTA's state, target and times, the incoming footprint, the earliest
    transit and the schedulers the settles attached warps to must be the
    oracle's."""
    dense, result, __ = end_state_differential(
        lambda: build_micro_gpu(policy, app, seed), max_cycles,
        f"{policy}, {app}, seed {seed}, max_cycles={max_cycles}")
    assert result.timed_out
    assert {cta.transit_target for sm in dense.sms
            for cta in sm.transit_ctas} == {CTAState.ACTIVE,
                                             CTAState.PENDING}


@pytest.mark.parametrize("policy, app", [
    (policy, "BF") for policy in TIMER_POLICIES] + [("vt_regmutex", "SR")])
def test_end_state_where_finishes_and_settles_flip_the_slots(policy, app):
    """Seed 3 on 2 SMs: BF's settle batches and vt_regmutex's finishes on
    SR free the scheduler slots a tick reads, so the C core serves them as
    ops (the only way they can move ``wake_time``) and finishes and
    settles the rest itself; every engine leaves the oracle's state."""
    dense, result, gpus = end_state_differential(
        lambda: build_micro_gpu(policy, app, 3), TINY.max_cycles,
        f"{policy}, {app}, seed 3")
    assert not result.timed_out
    compiled = gpus.get("compiled")
    if compiled is not None:
        ops = compiled.engine_ops
        if app == "BF":
            assert 0 < ops["settle"] < result.cta_switch_events
        else:
            assert ops["exit"] > result.completed_ctas


#: Every policy but vt_regmutex, whose SRP pool is lowered only before
#: any warp holds a lease.
LOWERABLE_POLICIES = tuple(sorted(set(POLICIES) - {"vt_regmutex"}))


def warp_blocks(gpu) -> list:
    """Each resident warp's ``blocked_until`` (written back on active
    CTAs; ``sm_state`` leaves it out for the peek it cannot see)."""
    return [warp.blocked_until for sm in gpu.sms
            for ctas in (sm.active_ctas, sm.pending_ctas, sm.transit_ctas)
            for cta in ctas for warp in cta.warps]


@needs_extension
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(policy=st.sampled_from(LOWERABLE_POLICIES),
       app=st.sampled_from(("KM", "HS", "LB", "ST")),
       seed=st.integers(0, 3), cycles=st.integers(1, 6000))
def test_lowering_then_writing_back_is_the_identity(policy, app, seed,
                                                    cycles):
    """A ``reference`` run stopped at a drawn cycle, lowered into a core
    and written straight back with no ``resume``: the warp, CTA,
    scheduler and transit state, the warps' ``blocked_until`` and the
    memory hierarchy are unchanged."""
    from repro.sim.compiled import _Run, compiled_refusal

    gpu = build_micro_gpu(policy, app, seed)
    gpu.run(max_cycles=cycles, engine="reference")
    assert compiled_refusal(gpu) is None
    before = (sm_state(gpu), warp_blocks(gpu), memory_state(gpu.hierarchy))
    _Run(gpu, cycles).write_back()
    assert (sm_state(gpu), warp_blocks(gpu),
            memory_state(gpu.hierarchy)) == before


# ----------------------------------------------------------------------
# Full end state of the memory hierarchy the C core owns during a run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_memory_end_state_under_l2_pressure(policy):
    """A tiny L2: dirty evictions, their DRAM write charges and merged
    misses on every run."""
    dense, __, __ = end_state_differential(
        lambda: build_micro_gpu(policy, "KM", 0, PRESSURE_CONFIG),
        TINY.max_cycles, f"{policy}, KM, tiny L2")
    assert dense.hierarchy.l2.stats.dirty_evictions > 0
    assert dense.hierarchy.stats.merged_misses > 0


@pytest.mark.parametrize("policy", ("baseline", "finereg"))
def test_memory_end_state_after_unified_memory_resize(policy):
    """Fig 19 resizes every L1 before the run: the core lowers the resized
    geometry from the objects, not from the config."""
    def build():
        gpu = build_micro_gpu(policy, "KM", 0)
        apply_unified_memory(gpu, reserve_pcrf=policy == "finereg")
        return gpu

    dense, __, __ = end_state_differential(
        build, TINY.max_cycles, f"{policy}, KM, unified memory")
    assert dense.hierarchy.l1s[0].size_bytes != MICRO_CONFIG.l1_size_bytes


class PruneCountingTable(dict):
    """An outstanding-miss table counting the stores that push it past the
    hierarchy's 256-entry prune bound."""

    prunes = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if len(self) > 256:
            self.prunes += 1


@pytest.mark.parametrize("policy", ("baseline", "reg_dram"))
def test_memory_end_state_on_small_cell_with_merge_table_prunes(policy):
    """TR at small scale on 2 SMs prunes its merge tables; reg_dram adds
    context spills that queue on the DRAM channel the core hands over."""
    config = default_config(SMALL)
    instance = build_workload(get_spec("TR"), config, SMALL)

    def build():
        gpu = GPU(config, instance.kernel, POLICIES[policy](),
                  instance.trace_provider, instance.address_model,
                  liveness=instance.liveness)
        hier = gpu.hierarchy
        hier._outstanding = [PruneCountingTable() for _ in hier._outstanding]
        return gpu

    dense, __, __ = end_state_differential(
        build, SMALL.max_cycles, f"{policy}, TR, small")
    assert config.num_sms == 2
    assert sum(table.prunes for table in dense.hierarchy._outstanding) > 0


# ----------------------------------------------------------------------
# RegMutex's shared register pool, which the C core owns during a run
# ----------------------------------------------------------------------
#: Every SRP ratio the campaign sweeps, plus one at which the pool runs
#: dry on every app.
SRP_LEG_RATIOS = SRP_RATIOS + (0.05,)
#: Above the ~17k cycles LB needs at 0.05; KM and HS livelock on the pool
#: at that ratio (every warp denied every 20 cycles) until the cap, so
#: those legs are timed-out runs.
SRP_MAX_CYCLES = 20_000


def tiny_config(num_sms: int) -> GPUConfig:
    """The tiny campaign's config on ``num_sms`` SMs (DRAM bandwidth
    scales with the SM count): with the suite's own workloads, the SRP
    ratios contend as in the sweep."""
    return default_config(TINY).with_num_sms(num_sms)


def assert_invariants_hold(gpu, now: int, label: str) -> None:
    """The sanitizer's structural and policy invariants (srp-conservation
    among them) on ``gpu``'s written-back end state."""
    for sm in gpu.sms:
        violations = check_sm(sm, now) + check_policy(sm._policy, sm, now)
        assert not violations, f"{label}, SM {sm.sm_id}: {violations}"


@pytest.mark.parametrize("num_sms", (2, 4))
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("ratio", SRP_LEG_RATIOS)
def test_regmutex_srp_end_state_at_every_swept_ratio(ratio, app, num_sms):
    config = tiny_config(num_sms)
    label = f"vt_regmutex srp_ratio={ratio}, {app}, {num_sms} SMs"
    dense, result, gpus = end_state_differential(
        lambda: build_micro_gpu("vt_regmutex", app, get_spec(app).seed,
                                config, srp_ratio=ratio),
        SRP_MAX_CYCLES, label)
    for engine, gpu in gpus.items():
        assert_invariants_hold(gpu, result.cycles, f"{engine} ({label})")
    if ratio <= 0.2:
        assert sum(sm._policy.srp_denials for sm in dense.sms) > 0


@pytest.mark.parametrize("app, max_cycles", [
    ("HS", 777), ("LB", 777), ("KM", 5000), ("LB", 5000)])
def test_regmutex_srp_end_state_of_a_timed_out_run(app, max_cycles):
    """A run cut mid-grid: warps still hold leases (at 5000 cycles KM also
    has a denial its SM has not yet attributed), and the pool's lease
    table, counters and denial flag are written back as they stand."""
    label = f"vt_regmutex, {app}, max_cycles={max_cycles}"
    dense, result, gpus = end_state_differential(
        lambda: build_micro_gpu("vt_regmutex", app, get_spec(app).seed,
                                tiny_config(2), srp_ratio=0.2),
        max_cycles, label)
    # An idle jump may carry the clock past the limit before it is seen.
    assert result.timed_out and result.cycles >= max_cycles
    assert any(sm._policy._leases for sm in dense.sms)
    for engine, gpu in gpus.items():
        assert_invariants_hold(gpu, result.cycles, f"{engine} ({label})")


#: A demand table over twelve static instructions: zero (a release),
#: exact SRP_BLOCK multiples and values that round up to one.
SRP_DEMANDS = st.lists(st.sampled_from((0, 1, 7, 8, 9, 16, 17, 24)),
                       min_size=12, max_size=12)
#: (warp, static index, cycles since the previous call).
SRP_CALLS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 11),
                               st.integers(0, 30)),
                     min_size=1, max_size=80)
#: Deterministic coverage of every branch: warp 0 acquires a block,
#: re-issues an instruction its lease covers (demand <= held), warp 1
#: takes the last block (need == srp_free), warp 2 is denied, warp 0
#: releases, warp 2 acquires after its retry interval, warp 1 is denied
#: growing its lease into the exhausted pool and then issues within it.
SRP_BRANCHES = dict(
    demand=[0, 8, 7, 16, 9, 24, 1, 17, 0, 8, 16, 24], capacity=16,
    calls=[(0, 1, 0), (0, 2, 1), (1, 1, 1), (2, 6, 1), (0, 0, 1),
           (2, 6, 25), (1, 3, 1), (1, 9, 3)])


class Lowerable:
    """A stand-in SM for ``Core.lower_new``: the CTA lists it reads,
    keyed by identity like the real object."""

    def __init__(self, **attrs) -> None:
        vars(self).update(attrs)


@needs_extension
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(**SRP_BRANCHES)
@given(demand=SRP_DEMANDS, capacity=st.integers(0, 48), calls=SRP_CALLS)
def test_core_srp_lease_replays_on_issue(demand, capacity, calls):
    """Random (warp, static index, now) calls through ``Core.issue_srp``
    and through ``RegMutexPolicy.on_issue``: the verdict, the denied
    warp's ``blocked_until`` and the written-back pool agree after every
    call."""
    from repro.sim import _ckernel
    from repro.sim.compiled import _STATES

    gpu = build_micro_gpu("vt_regmutex", "KM", 0)
    spec, lowered = (sm._policy for sm in gpu.sms)
    for policy in (spec, lowered):
        policy._extra_demand = tuple(demand)
        policy.srp_capacity = policy.srp_free = capacity
    noop = (0, -1, -1, 5, 0, (), 0)
    core = _ckernel.Core(1, 1, 1, 1, 1, 1, 1, 0, 1, 0, IDLE_COOLDOWN,
                         [noop] * len(demand), _STATES)
    spec_warps = [SimpleNamespace(global_warp_id=gid, blocked_until=0)
                  for gid in range(6)]
    core_warps = [WarpSim(0, gid, 0, [0], nregs=1) for gid in range(6)]
    sm = Lowerable(active_ctas=[CTASim(0, core_warps)], pending_ctas=[],
                   transit_ctas=[])
    core.set_policy(0, sm, [object()], False, False, True, True)
    core.lower_new(0)
    core.lower_srp(0, lowered, lowered._extra_demand, SRP_BLOCK,
                   SRP_RETRY_INTERVAL)
    now = 0
    for step, (warp, index, gap) in enumerate(calls):
        now += gap
        issued = spec.on_issue(spec_warps[warp], index, now)
        assert core.issue_srp(0, core_warps[warp], index, now) == (
            issued, spec_warps[warp].blocked_until), (
                f"call {step} {(warp, index, now)}: verdict diverged")
        core.write_back_srp(0)
        assert srp_pool(lowered) == srp_pool(spec), (
            f"call {step} {(warp, index, now)}: SRP state diverged")


@needs_extension
def test_core_srp_lowering_refuses_held_leases():
    """The pool is lowered before any warp issues: a lease already in
    ``_leases`` would be owned twice, so lowering refuses it."""
    from repro.sim import _ckernel
    from repro.sim.compiled import _STATES

    policy = build_micro_gpu("vt_regmutex", "KM", 0).sms[0]._policy
    core = _ckernel.Core(1, 1, 1, 1, 1, 1, 1, 0, 1, 0, IDLE_COOLDOWN,
                         [(0, -1, -1, 5, 0, (), 0)]
                         * len(policy._extra_demand), _STATES)
    core.set_policy(0, object(), [object()], False, False, True, True)
    policy._leases[0] = SRP_BLOCK
    with pytest.raises(ValueError, match="empty _leases"):
        core.lower_srp(0, policy, policy._extra_demand, SRP_BLOCK,
                       SRP_RETRY_INTERVAL)


# ----------------------------------------------------------------------
# The C hierarchy alone: access sequences through Core.access vs _access
# ----------------------------------------------------------------------
#: 2-set, 2-way L1s and L2: with ten lines and ops a few dozen cycles
#: apart (a DRAM round trip is ~900), short sequences reach every branch
#: of _access, down to merged misses that evict a dirty L1 line.
TINY_CACHES = replace(MICRO_CONFIG, l1_size_bytes=2 * 2 * 128, l1_assoc=2,
                      l2_size_bytes=2 * 2 * 128, l2_assoc=2)
#: (sm_id, line, cycles since the previous op, kind): kind 0 reads, 1
#: writes, 2 queues a context spill on the shared DRAM channel.
ACCESS_OPS = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9),
                                st.integers(0, 60), st.integers(0, 2)),
                      min_size=60, max_size=120)
#: 900 reads of distinct lines on one SM: its merge table passes the
#: 256-entry bound before anything expires, then expires as time runs on.
PRUNE_STREAM = [(0, line, 1 if line < 600 else 7, 0) for line in range(900)]


def apply_op(hier, op, now, core=None):
    """One op at ``now`` on ``hier`` (its access through ``core`` when
    given); returns the completion cycle."""
    sm_id, line, __, kind = op
    if kind == 2:
        return hier.bulk_transfer(now, 4096, "context_spill")
    access = hier._access if core is None else core.access
    return access(sm_id, line * 128 + now % 128, now, kind == 1)


def core_replay_differential(warm, ops, spec):
    """Warm ``spec`` and a twin up with ``warm``, lower the twin into a C
    core, then replay ``ops`` on both.  After every op the completion
    cycle and the written-back state (write-back is incremental) must be
    the spec's."""
    from repro.sim import _ckernel
    from repro.sim.compiled import _STATES, lower_memory, write_back_memory

    lowered = MemoryHierarchy(spec._config)
    now = 0
    for op in warm:
        now += op[2]
        apply_op(spec, op, now)
        apply_op(lowered, op, now)
    core = _ckernel.Core(spec._config.num_sms, 1, 1, 1, 1, 1, 1, 0, 1, 0,
                         IDLE_COOLDOWN, [], _STATES)
    lower_memory(core, lowered)
    for step, op in enumerate(ops):
        now += op[2]
        assert apply_op(lowered, op, now, core) == apply_op(spec, op, now), (
            f"op {step} {op}: completion cycle diverged")
        write_back_memory(core, lowered)
        assert memory_state(lowered) == memory_state(spec), (
            f"op {step} {op}: hierarchy state diverged")


@needs_extension
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(warm=ACCESS_OPS, ops=ACCESS_OPS)
def test_core_hierarchy_replays_access_sequences(warm, ops):
    core_replay_differential(warm, ops, MemoryHierarchy(TINY_CACHES))


@needs_extension
def test_core_hierarchy_prunes_merge_tables_like_python():
    spec = MemoryHierarchy(TINY_CACHES)
    spec._outstanding = [PruneCountingTable() for _ in spec._outstanding]
    core_replay_differential([], PRUNE_STREAM, spec)
    assert spec._outstanding[0].prunes > 0
