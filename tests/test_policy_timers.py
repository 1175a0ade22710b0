"""Policy timers fire only when something can change.

A timer policy (one overriding ``on_tick``) names in ``wake_time`` the
earliest executed cycle at which its tick can change anything, and the
event engines skip the tick until then.  A tick acts only when a readiness
heap comes due, when an op frees what a ready CTA waits for, or when
FineReg's recorded blocked span stops matching the state, so on the
compiled engine the TICK ops a run serves are bounded by those causes:
heap pushes, SETTLE and EXIT ops, IDLE and TICK ops that moved a CTA, and
finereg_adaptive's epochs.  A policy that ticks on every executed cycle
while any ready CTA exists, fitting or not, serves about three times that
bound on this cell.

Idle checks follow the same rule.  A switching policy parks a stalled CTA
only so that something else can use its space, and ``idle_wake`` names the
earliest executed cycle at which that can happen, so the event engines
call it (the compiled core serves an IDLE op) only when the policy can
act.  The idle calls that reach the policy are then bounded by the ones
that moved a CTA or counted a failed spill, plus a small slack
(``IDLE_SLACK``).  An engine that calls it at every idle check past the
cooldown with a park candidate makes about three times that bound on KM,
and on HS, where Virtual Thread never acts, over a hundred calls that
move nothing.

The skipped ticks and idle checks change nothing the dense oracle would
compute: the differential suite (``tests/test_engine_differential.py``)
compares ``SimResult`` bytes and every policy's end state, idle cooldown
included.
"""

import heapq
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.config import TINY, GPUConfig
from repro.experiments.runner import POLICIES
from repro.policies import base
from repro.sim.backend import compiled_available
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

TIMER_POLICIES = ("finereg", "finereg_adaptive", "reg_dram",
                  "virtual_thread", "vt_regmutex")

needs_extension = pytest.mark.skipif(
    not compiled_available(),
    reason="repro.sim._ckernel extension not built")


def build_gpu(policy: str, app: str = "KM", seed: int = 3) -> GPU:
    """A tiny 2-SM cell."""
    config = GPUConfig(num_sms=2)
    instance = build_workload(replace(get_spec(app), seed=seed), config,
                              TINY)
    return GPU(config, instance.kernel, POLICIES[policy](),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


def count_moves(sm, hook, moved):
    """Wrap ``hook`` so that each call that launched or switched a CTA on
    ``sm`` counts one in ``moved``."""
    stats = sm.stats

    def wrapper(*args):
        before = stats.cta_switch_events + stats.cta_launches
        result = hook(*args)
        if stats.cta_switch_events + stats.cta_launches != before:
            moved[0] += 1
        return result
    return wrapper


def count_calls(hook, calls):
    def wrapper(*args):
        calls[0] += 1
        return hook(*args)
    return wrapper


@needs_extension
@pytest.mark.parametrize("policy", TIMER_POLICIES)
def test_tick_ops_are_bounded_by_their_causes(policy, monkeypatch):
    pushes, moved, epochs = [0], [0], [0]

    def heappush(heap, item):
        pushes[0] += 1
        heapq.heappush(heap, item)
    # Every readiness-heap push: PendingTracker.add and the drain's
    # re-push of a CTA still on its way out.
    monkeypatch.setattr(base, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop))
    gpu = build_gpu(policy)
    for sm in gpu.sms:
        hooks = sm._policy
        # Served hooks, so instance wrappers keep the run on the core.
        hooks.on_tick = count_moves(sm, hooks.on_tick, moved)
        hooks._act_on_idle = count_moves(sm, hooks._act_on_idle, moved)
        if hasattr(hooks, "_maybe_repartition"):
            hooks._maybe_repartition = count_calls(
                hooks._maybe_repartition, epochs)
    result = gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "compiled", gpu.engine_refusal
    assert not result.timed_out
    ops = gpu.engine_ops
    bound = (pushes[0] + ops["settle"] + ops["exit"] + moved[0]
             + epochs[0])
    assert 0 < ops["tick"] <= bound, (
        f"{policy}: {ops['tick']} TICK ops against a bound of {bound} "
        f"({pushes[0]} heap pushes, {ops['settle']} SETTLE, "
        f"{ops['exit']} EXIT, {moved[0]} IDLE/TICK ops that moved a CTA, "
        f"{epochs[0]} epochs)")


#: Idle calls a run may make beyond the ones that act: the gate is open
#: while any ready pending CTA exists, also one the stalled CTA's slots
#: cannot take (a partly retired CTA frees fewer warp slots), and a gate
#: opened while the grid had CTAs stays open when another SM drains it.
IDLE_SLACK = 2


@pytest.mark.parametrize("engine", ("reference",) + (
    ("compiled",) if compiled_available() else ()))
@pytest.mark.parametrize("app", ("KM", "HS"))
@pytest.mark.parametrize("policy", TIMER_POLICIES)
def test_idle_ops_are_bounded_by_the_ones_that_act(policy, app, engine,
                                                   monkeypatch):
    """The idle calls that reach ``_act_on_idle`` (past the cooldown, with
    a park candidate) are bounded by the ones that moved a CTA or counted
    a failed spill, on the reference engine and on the C core, where they
    are its IDLE ops."""
    # Counted through the base on_idle at class level: an instance-level
    # wrapper would make the engines distrust idle_wake and open the gate.
    due, acted = [0], [0]
    on_idle = base.RegisterFilePolicy.on_idle

    def counting(hooks, now):
        stats = hooks.sm.stats

        def moves():
            return (stats.cta_switch_events, stats.cta_launches,
                    getattr(hooks, "failed_spills", 0))
        reaches = (now >= hooks._next_idle_check
                   and bool(hooks.stalled_active_ctas(now)))
        before = moves()
        on_idle(hooks, now)
        if reaches:
            due[0] += 1
            acted[0] += moves() != before
    monkeypatch.setattr(base.RegisterFilePolicy, "on_idle", counting)
    gpu = build_gpu(policy, app)
    result = gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    assert gpu.engine_used == engine, gpu.engine_refusal
    assert not result.timed_out
    if engine == "compiled":
        assert gpu.engine_ops["idle"] == due[0]
    assert due[0] <= acted[0] + IDLE_SLACK, (
        f"{policy}, {app}, {engine}: {due[0]} idle calls reached "
        f"_act_on_idle, {acted[0]} of them moved a CTA or counted a failed "
        f"spill")


@needs_extension
def test_engine_ops_count_every_served_op():
    """``gpu.engine_ops`` names every op kind the driver serves; a run on
    another engine leaves it None."""
    gpu = build_gpu("finereg")
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert set(gpu.engine_ops) == {"exit", "settle", "tick", "idle"}
    warps = sum(sm.stats.cta_launches for sm in gpu.sms) \
        * gpu.launches[0].warps_per_cta
    assert gpu.engine_ops["exit"] == warps
    reference = build_gpu("finereg")
    reference.run(max_cycles=TINY.max_cycles, engine="reference")
    assert reference.engine_ops is None


@pytest.mark.parametrize("engine", ("reference",) + (
    ("compiled",) if compiled_available() else ()))
def test_every_engine_counts_the_same_executed_cycles(engine, monkeypatch):
    """The executed-cycle count FineReg's closed form folds over is the
    same on every engine, the dense oracle's included."""
    gpu = build_gpu("finereg", "HS")
    gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    dense = build_gpu("finereg", "HS")
    dense.run(max_cycles=TINY.max_cycles)
    assert gpu.executed_cycles == dense.executed_cycles > 0
