"""Mutation self-test: prove the sanitizer detects what it claims to.

Each :class:`Mutation` deliberately corrupts exactly one invariant class in
a live GPU -- through the test-only fault hooks on the core structures
(``fault_leak_on_release`` and friends) or by wrapping an SM method -- and
the harness asserts the sanitizer reports a violation carrying that
mutation's invariant tag.  A sanitizer that passes the golden corpus but
fails this self-test is a checker that checks nothing.

Mutations are applied *before* :func:`attach_sanitizer` so the sanitizer's
issue wrapper sits outermost and observes pre-mutation state (this is what
lets the scoreboard bypass be caught).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.config import SCALES, default_config
from repro.sim.gpu import GPU
from repro.sim.scheduler import GTOScheduler
from repro.sim.tracing import EventKind
from repro.sim.warp import FOREVER
from repro.validate.sanitizer import SanitizerError, attach_sanitizer
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


@dataclass(frozen=True)
class Mutation:
    """One deliberate invariant corruption."""

    name: str
    invariant: str        # tag the sanitizer must report
    policy: str           # policy the corruption is meaningful under
    description: str
    apply: Callable[[GPU], None]
    abbrev: str = "KM"
    concurrent: bool = False   # corrupt a two-kernel run (st+km pool)


# ----------------------------------------------------------------------
# Corruptions
# ----------------------------------------------------------------------
def _acrf_leak(gpu: GPU) -> None:
    for sm in gpu.sms:
        sm.policy.acrf.fault_leak_on_release = 1


def _pcrf_free_count(gpu: GPU) -> None:
    for sm in gpu.sms:
        sm.policy.pcrf.fault_leak_on_restore = True


def _rmu_pointer_drop(gpu: GPU) -> None:
    for sm in gpu.sms:
        sm.policy.rmu.fault_drop_pointer = True


def _shmem_leak(gpu: GPU) -> None:
    for sm in gpu.sms:
        def leaky_retire(cta, now, _sm=sm, _inner=sm.retire_cta):
            _inner(cta, now)
            _sm.shmem_used += 128
        sm.retire_cta = leaky_retire


def _warp_leak(gpu: GPU) -> None:
    for sm in gpu.sms:
        def leaky_finish(warp, now, _sm=sm, _inner=sm._finish_warp):
            _inner(warp, now)
            _sm._active_warps += 1
        sm._finish_warp = leaky_finish


class _OversleepScheduler(GTOScheduler):
    """Sleeps 97 cycles past the earliest legal wake-up."""

    __slots__ = ()

    def _note_sleep(self, now: int, earliest: int) -> None:
        GTOScheduler._note_sleep(self, now, earliest)
        if now < self._sleep_until < FOREVER:
            self._sleep_until += 97


def _oversleep(gpu: GPU) -> None:
    for sm in gpu.sms:
        for scheduler in sm.schedulers:
            if type(scheduler) is GTOScheduler:
                scheduler.__class__ = _OversleepScheduler


def _scoreboard_bypass(gpu: GPU) -> None:
    for sm in gpu.sms:
        def bypass(warp, now, _sm=sm, _inner=sm._try_issue):
            srcs = _sm._instrs[warp.trace[warp.pos]].srcs
            for reg in srcs:
                warp.ready_at[reg] = 0
            return _inner(warp, now)
        sm._try_issue = bypass


def _double_retire(gpu: GPU) -> None:
    for sm in gpu.sms:
        def retire_twice(cta, now, _sm=sm, _inner=sm.retire_cta):
            _inner(cta, now)
            _sm.gpu.tracer.record(now, _sm.sm_id, EventKind.RETIRE,
                                  cta.cta_id)
        sm.retire_cta = retire_twice


def _budget_overshoot(gpu: GPU) -> None:
    """Per-SM shared budgets stop binding: every slot check passes."""
    for sm in gpu.sms:
        sm.scheduler_slots_free = lambda launch: True


def _double_dispatch(gpu: GPU) -> None:
    """The first CTA id of launch 0 is dispatched twice."""
    launch = gpu.launches[0]
    launch.grid.appendleft(launch.grid[0])


def _stat_rollback(gpu: GPU) -> None:
    for sm in gpu.sms:
        def rolled_step(now, _sm=sm, _inner=sm.step):
            issued = _inner(now)
            _sm.stats.instructions -= 5
            return issued
        sm.step = rolled_step


#: The registry: at least one mutation per major invariant class.
MUTATIONS: Tuple[Mutation, ...] = (
    Mutation("acrf_leak", "register-conservation", "finereg",
             "ACRF release leaks a phantom allocation", _acrf_leak),
    Mutation("pcrf_free_count", "pcrf-occupancy", "finereg",
             "PCRF restore under-credits the free-space monitor",
             _pcrf_free_count),
    Mutation("rmu_pointer_drop", "pointer-table", "finereg",
             "RMU spill skips its pointer-table row", _rmu_pointer_drop),
    Mutation("shmem_leak", "shmem-conservation", "virtual_thread",
             "CTA retirement leaks 128 B of shared memory", _shmem_leak),
    Mutation("warp_leak", "warp-accounting", "baseline",
             "finished warps stay in the active-warp counter", _warp_leak),
    Mutation("oversleep", "sleep-soundness", "baseline",
             "scheduler sleep cache overshoots by 97 cycles", _oversleep),
    Mutation("scoreboard_bypass", "scoreboard", "baseline",
             "operand ready times are zeroed before issue",
             _scoreboard_bypass),
    Mutation("double_retire", "lifecycle", "baseline",
             "every CTA retirement is traced twice", _double_retire),
    Mutation("stat_rollback", "monotonic-stats", "baseline",
             "the instruction counter rolls back 5 per step",
             _stat_rollback),
    Mutation("budget_overshoot", "cta-slots", "baseline",
             "scheduler slot checks always pass under concurrent fill",
             _budget_overshoot, concurrent=True),
    Mutation("double_dispatch", "lifecycle", "baseline",
             "one CTA id is dispatched twice from a concurrent grid",
             _double_dispatch, concurrent=True),
)


@dataclass(frozen=True)
class MutationReport:
    """Did the sanitizer catch one mutation?"""

    mutation: Mutation
    detected: bool
    tags: Tuple[str, ...] = ()
    error: Optional[str] = None


def run_mutation(mutation: Mutation, scale_name: str = "tiny"
                 ) -> MutationReport:
    """Build a tiny GPU, corrupt it, and expect a SanitizerError."""
    from repro.experiments.runner import POLICIES

    scale = SCALES[scale_name]
    config = default_config(scale)
    factory = POLICIES[mutation.policy]()
    if mutation.concurrent:
        from repro.workloads.apps import APP_POOLS, build_app

        specs = build_app(APP_POOLS["st+km"], config, scale)
        gpu = GPU.concurrent(config, specs, factory)
    else:
        instance = build_workload(get_spec(mutation.abbrev), config, scale)
        gpu = GPU(config, instance.kernel, factory, instance.trace_provider,
                  instance.address_model, liveness=instance.liveness)
    mutation.apply(gpu)
    attach_sanitizer(gpu)  # after the mutation: its wrappers sit outermost
    try:
        gpu.run(max_cycles=scale.max_cycles)
    except SanitizerError as exc:
        tags = tuple(sorted({v.invariant for v in exc.violations}))
        return MutationReport(mutation, detected=mutation.invariant in tags,
                              tags=tags)
    except Exception as exc:  # crash before detection = not detected
        return MutationReport(mutation, detected=False,
                              error=f"{type(exc).__name__}: {exc}")
    return MutationReport(mutation, detected=False,
                          error="run completed with no violation")


def run_all_mutations(scale_name: str = "tiny") -> List[MutationReport]:
    return [run_mutation(m, scale_name) for m in MUTATIONS]
