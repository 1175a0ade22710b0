"""Top-level GPU: SMs + shared memory hierarchy + the simulation loop.

Two observably identical engines drive the simulation:

* The **event-driven engine** (default): on top of the global idle-jump,
  each SM carries a wake-up cycle — the earliest cycle at which stepping it
  could have any observable effect (scheduler sleep expiry, CTA transit
  settling, a policy ``wake_time`` such as a pending-CTA readiness heap, or
  the idle-switch cooldown).  SMs are skipped, not stepped, until their
  wake-up arrives.  The global clock rule is untouched, so the set of
  executed cycles — and with it every per-cycle observable (sanitizer
  checks, telemetry samples, stall attribution) — is bit-identical to the
  dense engine's.
* The **dense engine** (``REPRO_DENSE_STEP=1``): steps every SM on every
  executed cycle.  Retained as the differential-testing oracle.

Both jump over globally dead time: when no SM issues anything, the clock
advances to the earliest future event (warp wake-up, switch completion,
pending-CTA readiness) in one step.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.config import GPUConfig
from repro.core.liveness import LivenessAnalysis, LivenessTable
from repro.isa.kernel import Kernel
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.backend import select_backend
from repro.sim.launch import (DispatchArbiter, GridView, KernelLaunch,
                              LaunchSpec, build_launches, combined_liveness,
                              shared_address_model)
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import KernelStats, SimResult
from repro.sim.warp import FOREVER

#: A policy factory builds one policy instance for a given SM.
PolicyFactory = Callable[[StreamingMultiprocessor], "object"]


class GPU:
    """A simulated GPU executing one or more co-resident kernel launches.

    The classic single-kernel construction is unchanged.  Concurrent runs
    pass ``launches`` (a sequence of :class:`~repro.sim.launch.LaunchSpec`)
    — usually via :meth:`GPU.concurrent` — and CTA dispatch then goes
    through a :class:`~repro.sim.launch.DispatchArbiter` with Table-I
    limits enforced as per-SM *shared* budgets across the resident grids.
    """

    def __init__(self, config: GPUConfig, kernel: Optional[Kernel] = None,
                 policy_factory: Optional[PolicyFactory] = None,
                 trace_provider=None, address_model=None,
                 liveness: Optional[LivenessTable] = None,
                 sample_usage: bool = False, *,
                 launches=None, arbitration: str = "priority") -> None:
        if policy_factory is None:
            raise TypeError("policy_factory is required")
        self.config = config
        if launches is not None:
            specs = list(launches)
            built = build_launches(specs)
            self.launches = built
            self.kernel = built[0].kernel
            self.trace_provider = built[0].trace_provider
            self.address_model = (address_model if address_model is not None
                                  else shared_address_model(specs))
            self.liveness = combined_liveness(built)
            if len(built) > 1:
                self.arbiter = DispatchArbiter(built, arbitration)
                self._grid = GridView(built)
            else:
                self.arbiter = None
                self._grid = built[0].grid
        else:
            if kernel is None or trace_provider is None \
                    or address_model is None:
                raise TypeError("kernel, trace_provider and address_model "
                                "are required without launches")
            self.kernel = kernel
            self.trace_provider = trace_provider
            self.address_model = address_model
            self.liveness = liveness if liveness is not None else \
                LivenessAnalysis(kernel.cfg).run(kernel.regs_per_thread)
            self._grid = deque(range(kernel.geometry.grid_ctas))
            # The single launch's queue IS the GPU grid deque, so the
            # single-kernel dispatch path is byte-for-byte unchanged.
            self.launches = [KernelLaunch(0, kernel, trace_provider,
                                          self.liveness, grid=self._grid)]
            self.arbiter = None
        self.hierarchy = MemoryHierarchy(config)
        self.tracer = None  # set by sim.tracing.attach_tracer
        self.warp_tracer = None  # set by attach_tracer(level="warp")
        self.sanitizer = None  # set by validate.sanitizer.attach_sanitizer
        self.telemetry = None  # set by telemetry.session.attach_telemetry
        # Backend that actually drove the last run() ("dense", "reference",
        # "fused" or "compiled"); None before the first run.
        self.engine_used = None
        if hasattr(self.address_model, "warm_l2"):
            self.address_model.warm_l2(self.hierarchy.l2)
        self.completed_ctas = 0
        self.sms: List[StreamingMultiprocessor] = []
        for sm_id in range(config.num_sms):
            sm = StreamingMultiprocessor(sm_id, config, self.kernel, self,
                                         sample_usage=sample_usage)
            sm.policy = policy_factory(sm)
            self.sms.append(sm)

    @classmethod
    def concurrent(cls, config: GPUConfig, specs,
                   policy_factory: PolicyFactory, *,
                   arbitration: str = "priority",
                   sample_usage: bool = False) -> "GPU":
        """Build a GPU with several co-resident grids (one per spec)."""
        return cls(config, policy_factory=policy_factory,
                   sample_usage=sample_usage,
                   launches=specs, arbitration=arbitration)

    # ------------------------------------------------------------------
    # Grid dispatch
    # ------------------------------------------------------------------
    def next_cta(self) -> Optional[int]:
        if not self._grid:
            return None
        return self._grid.popleft()

    @property
    def ctas_remaining(self) -> int:
        return len(self._grid)

    def launch_for_cta(self, cta_id: int) -> KernelLaunch:
        for launch in self.launches:
            if launch.owns_cta(cta_id):
                return launch
        raise ValueError(f"CTA {cta_id} outside every launch's grid")

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 10_000_000,
            engine: Optional[str] = None) -> SimResult:
        """Simulate until the grid drains; returns the aggregate result.

        ``engine`` picks the backend explicitly (``auto`` / ``reference``
        / ``fused`` / ``compiled``); ``None`` defers to ``REPRO_ENGINE``
        and then ``auto`` resolution (see :mod:`repro.sim.backend`).  The
        dense oracle override ``REPRO_DENSE_STEP=1`` beats everything.
        Every backend is observably identical; ``engine_used`` records
        which driver actually ran (``compiled`` falls back to the event
        engine when the run is not decoupling-eligible).
        """
        # The hot loop allocates heavily (heap entries, scoreboard cycle
        # ints) but retains almost none of it, so generational GC passes
        # during the run are pure overhead; pause collection for the span.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            if os.environ.get("REPRO_DENSE_STEP") == "1":
                self.engine_used = "dense"
                return self._run_dense(max_cycles)
            backend = select_backend(engine)
            if backend == "compiled":
                from repro.sim.compiled import run_compiled
                return run_compiled(self, max_cycles)
            if backend == "reference":
                return self._run_event(max_cycles, force_reference=True)
            return self._run_event(max_cycles)
        finally:
            if was_enabled:
                gc.enable()

    def _run_dense(self, max_cycles: int) -> SimResult:
        """The dense oracle: step every SM on every executed cycle."""
        now = 0
        # Initial fill.
        for sm in self.sms:
            sm.policy.fill(now)
        timed_out = False
        sms = self.sms
        sanitizer = self.sanitizer
        telemetry = self.telemetry
        while True:
            if not self._grid and all(not sm.busy for sm in sms):
                break
            if now >= max_cycles:
                timed_out = True
                break
            issued = 0
            for sm in sms:
                sm_issued = sm.step(now)
                if not sm_issued and sm.busy:
                    # This SM starves: let its policy switch CTAs.
                    sm.policy.on_idle(now)
                issued += sm_issued
            if sanitizer is not None:
                sanitizer.on_cycle(now)
            if issued:
                dt = 1
                idle = False
            else:
                nxt = self._next_event(now)
                if nxt >= FOREVER:
                    self._raise_deadlock(now)
                dt = max(1, nxt - now)
                idle = True
            for sm in sms:
                sm.accumulate(dt, idle)
            if telemetry is not None:
                # Sample the same post-step levels accumulate() just
                # integrated over [now, now + dt).
                telemetry.on_advance(now, dt)
            now += dt
        return self._finish_run(now, timed_out)

    def _run_event(self, max_cycles: int,
                   force_reference: bool = False) -> SimResult:
        """Event-driven engine: skip SMs until their wake-up cycle.

        An SM is skipped at an executed cycle only while stepping it would
        provably be a no-op: its schedulers sleep (``_sched_sleep``), no CTA
        transit settles, the policy's ``on_tick`` cannot act before its
        declared ``wake_time``, and — for policies that switch CTAs from
        ``on_idle`` — the idle-check cooldown has not expired.  A skipped
        SM's state is frozen (nothing cross-SM mutates it), so its
        ``next_event``/``accumulate``/telemetry observables are exactly the
        dense engine's.
        """
        now = 0
        for sm in self.sms:
            sm.policy.fill(now)
        timed_out = False
        sms = self.sms
        sanitizer = self.sanitizer
        telemetry = self.telemetry
        grid = self._grid
        wake = [0] * len(sms)
        # (sm, step-callable) pairs: hook-free SMs run the fused fast step;
        # anything wrapped or instrumented runs the reference sm.step.  The
        # same split picks the next-event flavour (the fused step maintains
        # the _sched_sleep cache next_event_fast reads).
        steppers = []
        nextevs = []
        all_fast = True
        for sm in sms:
            if not force_reference and sm.fast_step_eligible():
                sm._bind_fast_path()
                steppers.append((sm, sm._step_fast))
                nextevs.append(sm.next_event_fast)
            else:
                all_fast = False
                steppers.append((sm, sm.step))
                nextevs.append(sm.next_event)
        self.engine_used = "fused" if all_fast else "reference"
        if sanitizer is None and telemetry is None and all_fast:
            # Dedicated copy of the cycle loop for the uninstrumented
            # common case: the per-cycle sanitizer/telemetry None checks
            # disappear and the skipped-SM accumulate fold is inlined.
            # Logic is otherwise identical to the general loop below.
            while True:
                if not grid:
                    for sm in sms:
                        if (sm.active_ctas or sm.pending_ctas
                                or sm.transit_ctas):
                            break
                    else:
                        break
                if now >= max_cycles:
                    timed_out = True
                    break
                issued = 0
                index = -1
                for sm, step in steppers:
                    index += 1
                    if now < wake[index]:
                        continue
                    if step(now):
                        issued = 1
                        wake[index] = 0
                        continue
                    # bool(), not the first truthy list: on_idle below may
                    # swap the last active CTA out, emptying the very list
                    # a bare `or` chain would have bound -- which silently
                    # falsified the idle-cooldown wake reduction.
                    busy = bool(sm.active_ctas or sm.pending_ctas
                                or sm.transit_ctas)
                    if busy and sm._needs_idle:
                        sm._policy.on_idle(now)
                    w = sm._sched_sleep
                    if w > now + 1:
                        for cta in sm.transit_ctas:
                            if cta.transit_until < w:
                                w = cta.transit_until
                        if sm._needs_tick:
                            t = sm._policy.wake_time(now)
                            if t < w:
                                w = t
                        if busy and sm._needs_idle:
                            t = sm._policy._next_idle_check
                            if t < w:
                                w = t
                    wake[index] = w
                if issued:
                    for sm in sms:
                        if not sm._last_step_issued:
                            if sm._lvl_dirty:
                                sm.accumulate(1, False)
                                continue
                            sm._lvl_dt += 1
                            if (sm.active_ctas or sm.pending_ctas
                                    or sm.transit_ctas):
                                st = sm.stats
                                st.idle_cycles += 1
                                policy = sm._policy
                                if policy is not None:
                                    reason = policy.classify_idle(1)
                                    if reason == "rf":
                                        st.rf_depletion_cycles += 1
                                    elif reason == "srp":
                                        st.srp_stall_cycles += 1
                    now += 1
                    continue
                nxt = FOREVER
                for ne in nextevs:
                    t = ne(now)
                    if t < nxt:
                        nxt = t
                if nxt >= FOREVER:
                    self._raise_deadlock(now)
                dt = max(1, nxt - now)
                for sm in sms:
                    sm.accumulate(dt, True)
                now += dt
            return self._finish_run(now, timed_out)
        while True:
            if not grid:
                for sm in sms:
                    if sm.active_ctas or sm.pending_ctas or sm.transit_ctas:
                        break
                else:
                    break
            if now >= max_cycles:
                timed_out = True
                break
            issued = 0
            index = -1
            for sm, step in steppers:
                index += 1
                if now < wake[index]:
                    continue
                sm_issued = step(now)
                if sm_issued:
                    issued += sm_issued
                    wake[index] = 0
                    continue
                # bool() snapshot: on_idle may empty the bound list (see
                # the fast loop above).
                busy = bool(sm.active_ctas or sm.pending_ctas
                            or sm.transit_ctas)
                if busy and sm._needs_idle:
                    # Policies without an _act_on_idle override get no call:
                    # the base on_idle only arms its own cooldown, which
                    # nothing else reads.
                    sm._policy.on_idle(now)
                # Earliest cycle at which stepping this SM could matter
                # again, from post-step/post-on_idle state.
                w = sm._sched_sleep
                if w > now + 1:
                    for cta in sm.transit_ctas:
                        if cta.transit_until < w:
                            w = cta.transit_until
                    if sm._needs_tick:
                        t = sm._policy.wake_time(now)
                        if t < w:
                            w = t
                    if busy and sm._needs_idle:
                        t = sm._policy._next_idle_check
                        if t < w:
                            w = t
                wake[index] = w
            if sanitizer is not None:
                sanitizer.on_cycle(now)
            if issued:
                # Busy span, levels clean: accumulate() would only buffer
                # the cycle; do it inline.  Fast-path SMs that issued have
                # already folded their cycle in at the end of _step_fast.
                if all_fast:
                    for sm in sms:
                        if not sm._last_step_issued:
                            if sm._lvl_dirty:
                                sm.accumulate(1, False)
                                continue
                            # accumulate(1, False) with clean levels, open
                            # coded: buffer the span cycle, then the exact
                            # per-cycle idle taxonomy (classify_idle may be
                            # stateful, so the call cadence must not change).
                            sm._lvl_dt += 1
                            if (sm.active_ctas or sm.pending_ctas
                                    or sm.transit_ctas):
                                st = sm.stats
                                st.idle_cycles += 1
                                policy = sm._policy
                                if policy is not None:
                                    reason = policy.classify_idle(1)
                                    if reason == "rf":
                                        st.rf_depletion_cycles += 1
                                    elif reason == "srp":
                                        st.srp_stall_cycles += 1
                else:
                    for sm in sms:
                        if sm._last_step_issued and sm._defer_stats:
                            continue
                        if sm._lvl_dirty or not sm._last_step_issued:
                            sm.accumulate(1, False)
                        else:
                            sm._lvl_dt += 1
                if telemetry is not None:
                    telemetry.on_advance(now, 1)
                now += 1
                continue
            nxt = FOREVER
            for ne in nextevs:
                t = ne(now)
                if t < nxt:
                    nxt = t
            if nxt >= FOREVER:
                self._raise_deadlock(now)
            dt = max(1, nxt - now)
            for sm in sms:
                sm.accumulate(dt, True)
            if telemetry is not None:
                telemetry.on_advance(now, dt)
            now += dt
        return self._finish_run(now, timed_out)

    def _finish_run(self, now: int, timed_out: bool) -> SimResult:
        for sm in self.sms:
            if sm._defer_stats:
                sm._flush_deferred_stats()
            sm.flush_levels()
        if self.sanitizer is not None:
            self.sanitizer.on_run_end(now, timed_out)
        if self.telemetry is not None:
            self.telemetry.on_run_end(now)
        return self._build_result(now, timed_out)

    def _next_event(self, now: int) -> int:
        earliest = FOREVER
        for sm in self.sms:
            t = sm.next_event(now)
            if t < earliest:
                earliest = t
        return earliest

    def _raise_deadlock(self, now: int) -> None:
        detail = []
        for sm in self.sms:
            detail.append(
                f"SM{sm.sm_id}: active={len(sm.active_ctas)} "
                f"pending={len(sm.pending_ctas)} transit={len(sm.transit_ctas)}"
            )
        raise RuntimeError(
            f"simulation deadlock at cycle {now} "
            f"(grid remaining={len(self._grid)}): " + "; ".join(detail)
        )

    # ------------------------------------------------------------------
    def _build_result(self, cycles: int, timed_out: bool) -> SimResult:
        cycles = max(1, cycles)
        num_sms = len(self.sms)
        instructions = sum(sm.stats.instructions for sm in self.sms)
        active_cta = sum(sm.stats.active_cta_cycles for sm in self.sms)
        pending_cta = sum(sm.stats.pending_cta_cycles for sm in self.sms)
        warp_cycles = sum(sm.stats.active_warp_cycles for sm in self.sms)
        l1_acc = sum(l1.stats.accesses for l1 in self.hierarchy.l1s)
        l1_hits = sum(l1.stats.read_hits + l1.stats.write_hits
                      for l1 in self.hierarchy.l1s)
        l2 = self.hierarchy.l2.stats
        stall_latencies = [lat for sm in self.sms
                           for lat in sm.stats.stall_latencies]
        window = [u for sm in self.sms for u in sm.stats.window_usage]
        extras: Dict[str, float] = {}
        for sm in self.sms:
            for key, value in sm.policy.extras().items():
                extras[key] = extras.get(key, 0) + value
        bv_hits = extras.get("bitvector_hits")
        bv_misses = extras.get("bitvector_misses")
        bv_rate = None
        if bv_hits is not None and (bv_hits + bv_misses):
            bv_rate = bv_hits / (bv_hits + bv_misses)
        completed = sum(sm.stats.cta_launches for sm in self.sms) \
            - sum(sm.resident_ctas for sm in self.sms)
        per_kernel = None
        workload = self.kernel.name
        if len(self.launches) > 1:
            workload = "+".join(l.kernel.name for l in self.launches)
            per_kernel = {}
            for launch in self.launches:
                totals = KernelStats()
                resident = 0
                for sm in self.sms:
                    ks = sm._kstats[launch.index]
                    totals.instructions += ks.instructions
                    totals.cta_launches += ks.cta_launches
                    totals.cta_switch_events += ks.cta_switch_events
                    totals.stall_events += ks.stall_events
                    totals.stall_cycles += ks.stall_cycles
                    totals.active_cta_cycles += ks.active_cta_cycles
                    totals.active_warp_cycles += ks.active_warp_cycles
                    for cta in (sm.active_ctas + sm.pending_ctas
                                + sm.transit_ctas):
                        if cta.launch is launch:
                            resident += 1
                entry = totals.as_dict()
                entry["completed_ctas"] = totals.cta_launches - resident
                entry["grid_ctas"] = launch.grid_ctas
                entry["avg_active_ctas_per_sm"] = \
                    totals.active_cta_cycles / cycles / num_sms
                entry["avg_active_warps_per_sm"] = \
                    totals.active_warp_cycles / cycles / num_sms
                per_kernel[launch.label] = entry
        return SimResult(
            policy=self.sms[0].policy.name,
            workload=workload,
            cycles=cycles,
            instructions=instructions,
            num_sms=num_sms,
            avg_active_ctas_per_sm=active_cta / cycles / num_sms,
            avg_pending_ctas_per_sm=pending_cta / cycles / num_sms,
            max_resident_ctas=max(sm.stats.max_resident_ctas
                                  for sm in self.sms),
            avg_active_threads_per_sm=warp_cycles * 32 / cycles / num_sms,
            dram_traffic_bytes=self.hierarchy.dram_traffic_bytes,
            dram_traffic_by_class=self.hierarchy.traffic_by_class(),
            l1_hit_rate=l1_hits / l1_acc if l1_acc else 0.0,
            l2_hit_rate=l2.hit_rate,
            idle_cycles=sum(sm.stats.idle_cycles for sm in self.sms),
            rf_depletion_cycles=sum(sm.stats.rf_depletion_cycles
                                    for sm in self.sms),
            srp_stall_cycles=sum(sm.stats.srp_stall_cycles
                                 for sm in self.sms),
            cta_switch_events=sum(sm.stats.cta_switch_events
                                  for sm in self.sms),
            rf_reads=sum(sm.stats.rf_reads for sm in self.sms),
            rf_writes=sum(sm.stats.rf_writes for sm in self.sms),
            pcrf_reads=sum(sm.stats.pcrf_reads for sm in self.sms),
            pcrf_writes=sum(sm.stats.pcrf_writes for sm in self.sms),
            shmem_accesses=sum(sm.stats.shmem_accesses for sm in self.sms),
            l1_accesses=l1_acc,
            l2_accesses=l2.accesses,
            mean_stall_latency=(sum(stall_latencies) / len(stall_latencies)
                                if stall_latencies else None),
            window_usage_bounds=((min(window), sum(window) / len(window),
                                  max(window)) if window else None),
            bitvector_hit_rate=bv_rate,
            completed_ctas=completed,
            timed_out=timed_out,
            switch_out_overhead_cycles=sum(
                sm.stats.switch_out_overhead_cycles for sm in self.sms),
            switch_in_overhead_cycles=sum(
                sm.stats.switch_in_overhead_cycles for sm in self.sms),
            per_kernel=per_kernel,
        )


def run_kernel(config: GPUConfig, kernel: Kernel,
               policy_factory: PolicyFactory, trace_provider, address_model,
               liveness: Optional[LivenessTable] = None,
               sample_usage: bool = False,
               max_cycles: int = 10_000_000,
               post_setup: Optional[Callable[[GPU], None]] = None,
               engine: Optional[str] = None) -> SimResult:
    """Convenience wrapper: build a GPU, optionally tweak it, and run."""
    gpu = GPU(config, kernel, policy_factory, trace_provider, address_model,
              liveness=liveness, sample_usage=sample_usage)
    if post_setup is not None:
        post_setup(gpu)
    return gpu.run(max_cycles=max_cycles, engine=engine)

