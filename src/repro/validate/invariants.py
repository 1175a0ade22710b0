"""The invariant catalogue (see docs/VALIDATION.md for prose).

Every function takes live simulator objects and returns a list of
``(invariant_tag, message)`` pairs -- empty when the state is consistent.
The :class:`~repro.validate.sanitizer.Sanitizer` drives these once per GPU
loop iteration; they must never mutate simulator state.

Tags (one per invariant class; the mutation self-test keys off them):

``cta-state``            resident CTA lists agree with per-CTA state enums
``cta-slots``            Table-I active-region limits (CTAs/warps/threads)
``warp-accounting``      warp/thread counters match scheduler contents
``shmem-conservation``   shared-memory accounting matches resident CTAs
``transit``              in-flight switch bookkeeping (incoming counter)
``sleep-soundness``      no runnable warp hidden behind a sleep cache
``barrier``              barrier arrival counts match waiting warps
``register-conservation``RF/ACRF accounting conserves capacity exactly
``pcrf-occupancy``       PCRF free-space monitor and chains are consistent
``pointer-table``        RMU pointer table mirrors PCRF residency
``srp-conservation``     RegMutex shared-register-pool leases balance
``monotonic-stats``      cumulative counters never decrease / over-issue
``scoreboard``           no instruction issues before its operands are ready
``issue-legality``       issued warps were runnable, active, and advanced
``lifecycle``            LAUNCH (SWITCH_OUT SWITCH_IN)* RETIRE per CTA
``completion``           every launched CTA retired by the end of the run
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.cta import CTAState
from repro.sim.warp import WarpState

Violation = Tuple[str, str]

#: SMStats counters that must be non-decreasing over the whole run.
MONOTONIC_FIELDS = (
    "instructions",
    "cta_launches",
    "cta_switch_events",
    "rf_reads",
    "rf_writes",
    "pcrf_reads",
    "pcrf_writes",
    "shmem_accesses",
    "idle_cycles",
    "rf_depletion_cycles",
    "srp_stall_cycles",
    "max_resident_ctas",
)


# ----------------------------------------------------------------------
# Per-SM structural checks
# ----------------------------------------------------------------------
def check_sm(sm, now: int) -> List[Violation]:
    """CTA-list/state agreement, slot limits, warp/shmem conservation."""
    out: List[Violation] = []
    config = sm.config

    for cta in sm.active_ctas:
        if cta.state is not CTAState.ACTIVE:
            out.append(("cta-state",
                        f"CTA {cta.cta_id} in active list has state "
                        f"{cta.state.value}"))
    for cta in sm.pending_ctas:
        if cta.state is not CTAState.PENDING:
            out.append(("cta-state",
                        f"CTA {cta.cta_id} in pending list has state "
                        f"{cta.state.value}"))
    incoming = 0
    incoming_warps = 0
    incoming_threads = 0
    for cta in sm.transit_ctas:
        if cta.state is not CTAState.TRANSIT:
            out.append(("cta-state",
                        f"CTA {cta.cta_id} in transit list has state "
                        f"{cta.state.value}"))
        elif cta.transit_target is CTAState.ACTIVE:
            incoming += 1
            incoming_warps += cta.launch.warps_per_cta
            incoming_threads += cta.launch.threads_per_cta
    if sm._incoming_ctas != incoming:
        out.append(("transit",
                    f"incoming-CTA counter {sm._incoming_ctas} != "
                    f"{incoming} transits targeting ACTIVE"))
    if sm._incoming_warps != incoming_warps:
        out.append(("transit",
                    f"incoming-warp counter {sm._incoming_warps} != "
                    f"{incoming_warps} declared by transits targeting "
                    f"ACTIVE"))
    if sm._incoming_threads != incoming_threads:
        out.append(("transit",
                    f"incoming-thread counter {sm._incoming_threads} != "
                    f"{incoming_threads} declared by transits targeting "
                    f"ACTIVE"))

    # Table-I active-region limits; in-flight switch-ins own their slots.
    # The warp/thread budgets are shared across every co-resident kernel,
    # so the declared footprints are summed per launch, not per kernel.
    ctas_eff = len(sm.active_ctas) + incoming
    warps_eff = sm._active_warps + incoming_warps
    threads_eff = sm._active_threads + incoming_threads
    if ctas_eff > config.max_ctas_per_sm:
        out.append(("cta-slots",
                    f"{ctas_eff} active(+incoming) CTAs exceed the "
                    f"{config.max_ctas_per_sm}-CTA limit"))
    if warps_eff > config.max_warps_per_sm:
        out.append(("cta-slots",
                    f"{warps_eff} active(+incoming) warps exceed the "
                    f"{config.max_warps_per_sm}-warp limit"))
    if threads_eff > config.max_threads_per_sm:
        out.append(("cta-slots",
                    f"{threads_eff} active(+incoming) threads exceed the "
                    f"{config.max_threads_per_sm}-thread limit"))

    # Warp/thread accounting vs. the authoritative CTA/scheduler contents.
    expected_warps = sum(c.unfinished_warps() for c in sm.active_ctas)
    if sm._active_warps != expected_warps:
        out.append(("warp-accounting",
                    f"active-warp counter {sm._active_warps} != "
                    f"{expected_warps} unfinished warps of active CTAs"))
    if sm._active_threads != 32 * expected_warps:
        out.append(("warp-accounting",
                    f"active-thread counter {sm._active_threads} != "
                    f"{32 * expected_warps}"))
    active_ids = {c.cta_id for c in sm.active_ctas}
    attached = 0
    seen = set()
    for scheduler in sm.schedulers:
        for warp in scheduler.warps:
            attached += 1
            if id(warp) in seen:
                out.append(("warp-accounting",
                            f"warp {warp.global_warp_id} attached to two "
                            f"schedulers"))
            seen.add(id(warp))
            if warp.finished:
                out.append(("warp-accounting",
                            f"finished warp {warp.global_warp_id} still "
                            f"attached to scheduler "
                            f"{scheduler.scheduler_id}"))
            elif warp.cta.cta_id not in active_ids:
                out.append(("warp-accounting",
                            f"warp {warp.global_warp_id} of non-active CTA "
                            f"{warp.cta.cta_id} attached to scheduler "
                            f"{scheduler.scheduler_id}"))
    if attached != expected_warps:
        out.append(("warp-accounting",
                    f"{attached} warps on schedulers != {expected_warps} "
                    f"unfinished warps of active CTAs"))

    # Shared-memory conservation over all resident CTAs.
    resident = sm.active_ctas + sm.pending_ctas + sm.transit_ctas
    expected_shmem = sum(c.shmem_bytes for c in resident)
    if sm.shmem_used != expected_shmem:
        out.append(("shmem-conservation",
                    f"shmem_used {sm.shmem_used} != {expected_shmem} held "
                    f"by {len(resident)} resident CTAs"))
    if not 0 <= sm.shmem_used <= config.shared_memory_bytes:
        out.append(("shmem-conservation",
                    f"shmem_used {sm.shmem_used} outside "
                    f"[0, {config.shared_memory_bytes}]"))

    # Barrier balance: the arrival count is exactly the waiting warps, and
    # a releasable barrier must already have been released.
    for cta in resident:
        waiting = sum(1 for w in cta.warps
                      if w.state is WarpState.AT_BARRIER)
        if cta.barrier_arrived != waiting:
            out.append(("barrier",
                        f"CTA {cta.cta_id} barrier count "
                        f"{cta.barrier_arrived} != {waiting} warps at "
                        f"barrier"))
        elif cta.barrier_arrived and \
                cta.barrier_arrived >= cta.unfinished_warps():
            out.append(("barrier",
                        f"CTA {cta.cta_id} barrier releasable "
                        f"({cta.barrier_arrived}/{cta.unfinished_warps()}) "
                        f"but not released"))
    return out


def check_schedulers(sm, now: int) -> List[Violation]:
    """Sleep soundness: a sleeping scheduler may not hide a runnable warp.

    The PR-1 sleep caches are pure optimizations -- observable behaviour
    must be identical to rescanning every cycle, which holds iff no warp is
    runnable while its scheduler (or the whole SM) claims to sleep.
    """
    out: List[Violation] = []
    sm_asleep = sm._sched_sleep > now
    for scheduler in sm.schedulers:
        if not (sm_asleep or scheduler.sleeping(now)):
            continue
        for warp in scheduler.warps:
            if warp.state is WarpState.RUNNABLE and \
                    warp.blocked_until <= now:
                where = "SM" if sm_asleep else \
                    f"scheduler {scheduler.scheduler_id}"
                out.append(("sleep-soundness",
                            f"warp {warp.global_warp_id} runnable at cycle "
                            f"{now} while {where} sleeps until "
                            f"{max(sm._sched_sleep, scheduler._sleep_until)}"
                            ))
    return out


# ----------------------------------------------------------------------
# Policy-level register accounting
# ----------------------------------------------------------------------
def check_policy(policy, sm, now: int) -> List[Violation]:
    """Dispatch on the policy's structure (duck-typed, no policy imports)."""
    out: List[Violation] = []
    if not 0 <= policy.rf_used_entries <= policy.rf_capacity_entries:
        out.append(("register-conservation",
                    f"rf_used_entries {policy.rf_used_entries} outside "
                    f"[0, {policy.rf_capacity_entries}]"))
    # Expected RF usage is the per-CTA declared footprint of each CTA's
    # launch, summed over the resident set.
    resident = sm.active_ctas + sm.pending_ctas + sm.transit_ctas

    def declared(cta):
        return policy._launch_regs(cta.launch)

    if hasattr(policy, "acrf"):                 # FineReg family
        out += check_finereg(policy, sm)
    elif hasattr(policy, "dram_pending"):       # Reg+DRAM
        expected = sum(declared(c) for c in resident) - policy._dram_regs
        if policy.rf_used_entries != expected:
            out.append(("register-conservation",
                        f"rf_used_entries {policy.rf_used_entries} != "
                        f"{expected} ({sm.resident_ctas} resident CTAs - "
                        f"{policy._dram_count} DRAM-parked)"))
    else:                                       # baseline / VT / RegMutex
        expected = sum(declared(c) for c in resident)
        if policy.rf_used_entries != expected:
            out.append(("register-conservation",
                        f"rf_used_entries {policy.rf_used_entries} != "
                        f"{expected} for {sm.resident_ctas} resident CTAs"))
    if hasattr(policy, "srp_capacity"):         # RegMutex SRP leases
        leased = sum(policy._leases.values())
        if policy.srp_free + leased != policy.srp_capacity:
            out.append(("srp-conservation",
                        f"SRP free {policy.srp_free} + leased {leased} != "
                        f"capacity {policy.srp_capacity}"))
        if not 0 <= policy.srp_free <= policy.srp_capacity:
            out.append(("srp-conservation",
                        f"SRP free count {policy.srp_free} outside "
                        f"[0, {policy.srp_capacity}]"))
    return out


def check_finereg(policy, sm) -> List[Violation]:
    """ACRF/PCRF/RMU cross-structure conservation (paper Table I + V-C)."""
    out: List[Violation] = []
    acrf, pcrf, rmu = policy.acrf, policy.pcrf, policy.rmu
    config = sm.config

    # ACRF holds exactly the active CTAs plus in-flight switch-ins.
    expected_acrf = {c.cta_id for c in sm.active_ctas}
    expected_pcrf = {c.cta_id for c in sm.pending_ctas}
    for cta in sm.transit_ctas:
        if cta.transit_target is CTAState.ACTIVE:
            expected_acrf.add(cta.cta_id)
        else:
            expected_pcrf.add(cta.cta_id)
    allocations = acrf.allocations()
    if set(allocations) != expected_acrf:
        out.append(("register-conservation",
                    f"ACRF holds CTAs {sorted(allocations)} but the SM's "
                    f"active(+incoming) set is {sorted(expected_acrf)}"))
    by_id = {c.cta_id: c for c in
             sm.active_ctas + sm.pending_ctas + sm.transit_ctas}
    for cta_id, entries in allocations.items():
        cta = by_id.get(cta_id)
        if cta is None:
            continue  # reported by the set comparison above
        static = policy._launch_regs(cta.launch)
        if entries != static:
            out.append(("register-conservation",
                        f"ACRF allocation for CTA {cta_id} is {entries} "
                        f"entries, not the static {static}"))
    if acrf.used > acrf.capacity:
        out.append(("register-conservation",
                    f"ACRF used {acrf.used} exceeds capacity "
                    f"{acrf.capacity}"))
    if policy.rf_used_entries != acrf.used:
        out.append(("register-conservation",
                    f"rf_used_entries {policy.rf_used_entries} != ACRF "
                    f"used {acrf.used}"))
    # Repartitioning conserves total register-file capacity.
    expected_total = config.acrf_entries + min(config.pcrf_entries, 1024)
    if acrf.capacity + pcrf.capacity != expected_total:
        out.append(("register-conservation",
                    f"ACRF {acrf.capacity} + PCRF {pcrf.capacity} != "
                    f"{expected_total} total warp-registers"))

    # PCRF residency, free-space monitor, and chain integrity.
    pcrf_ids = pcrf.resident_cta_ids()
    if pcrf_ids != expected_pcrf:
        out.append(("pcrf-occupancy",
                    f"PCRF holds CTAs {sorted(pcrf_ids)} but the SM's "
                    f"pending(+outgoing) set is {sorted(expected_pcrf)}"))
    occupied = pcrf.occupied_count()
    if pcrf.free_entries != pcrf.capacity - occupied:
        out.append(("pcrf-occupancy",
                    f"PCRF free-count {pcrf.free_entries} != capacity "
                    f"{pcrf.capacity} - {occupied} occupied slots"))
    live_total = 0
    claimed: set = set()
    for cta_id in pcrf_ids:
        expected_len = pcrf.live_count_of(cta_id)
        live_total += expected_len
        try:
            chain = pcrf.peek_chain(cta_id)
        except RuntimeError as exc:
            out.append(("pcrf-occupancy", f"CTA {cta_id}: {exc}"))
            continue
        if len(chain) != expected_len:
            out.append(("pcrf-occupancy",
                        f"CTA {cta_id} chain length {len(chain)} != "
                        f"recorded live count {expected_len}"))
        overlap = claimed.intersection(chain)
        if overlap:
            out.append(("pcrf-occupancy",
                        f"CTA {cta_id} chain reuses slots "
                        f"{sorted(overlap)}"))
        claimed.update(chain)
    if pcrf.used_entries != live_total:
        out.append(("pcrf-occupancy",
                    f"PCRF used {pcrf.used_entries} != {live_total} live "
                    f"registers across resident chains"))

    # RMU pointer table mirrors the PCRF exactly.
    table = rmu.pointer_table_ctas()
    if table != pcrf_ids:
        out.append(("pointer-table",
                    f"pointer table holds CTAs {sorted(table)} but PCRF "
                    f"holds {sorted(pcrf_ids)}"))
    else:
        for cta_id in table:
            if rmu.pending_live_count(cta_id) != pcrf.live_count_of(cta_id):
                out.append(("pointer-table",
                            f"pointer table live count "
                            f"{rmu.pending_live_count(cta_id)} != PCRF "
                            f"{pcrf.live_count_of(cta_id)} for CTA "
                            f"{cta_id}"))
    return out


# ----------------------------------------------------------------------
# Counter monotonicity
# ----------------------------------------------------------------------
def check_monotonic(sm, snapshot: Dict[str, int],
                    iterations: int) -> List[Violation]:
    """Cumulative counters only grow, and issue stays within machine width.

    ``snapshot`` is updated in place with the current values; ``iterations``
    is the number of GPU loop iterations since the previous check (bounds
    the legal instruction delta at ``iterations x num_warp_schedulers``).
    """
    out: List[Violation] = []
    stats = sm.stats
    for name in MONOTONIC_FIELDS:
        current = getattr(stats, name)
        previous = snapshot.get(name, 0)
        if current < previous:
            out.append(("monotonic-stats",
                        f"counter {name} decreased from {previous} to "
                        f"{current}"))
        snapshot[name] = current
    previous_stalls = snapshot.get("stall_samples", 0)
    if len(stats.stall_latencies) < previous_stalls:
        out.append(("monotonic-stats",
                    f"stall-latency samples shrank from {previous_stalls} "
                    f"to {len(stats.stall_latencies)}"))
    snapshot["stall_samples"] = len(stats.stall_latencies)

    issue_budget = iterations * sm.config.num_warp_schedulers
    issued = snapshot["instructions"] - snapshot.get("_last_instructions",
                                                     snapshot["instructions"])
    if issued > issue_budget:
        out.append(("monotonic-stats",
                    f"{issued} instructions issued over {iterations} "
                    f"iterations exceeds the machine width "
                    f"({sm.config.num_warp_schedulers}/cycle)"))
    snapshot["_last_instructions"] = snapshot["instructions"]
    return out
