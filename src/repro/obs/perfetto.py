"""Chrome trace-event / Perfetto JSON export.

Both trace layouts share one event builder and one validator
(:func:`repro.obs.schema.check_trace_payload`); load either file in
https://ui.perfetto.dev or ``chrome://tracing``.

**A simulation** (:func:`perfetto_trace`) converts a recorded
:class:`~repro.sim.tracing.EventTracer` log (plus an optional timeline):

* each **SM is a process** (``pid = sm_id + 1``) named via metadata events;
* each **CTA is a track** (``tid = (cta_id + 1) << 6``) carrying complete
  ("X") slices for its residency phases -- ``active``, ``switch-out`` /
  ``switch-in`` (with their Table-IV overhead-cycle durations), and
  ``pending``;
* each **warp is a sub-track** (``tid = cta_track + warp_id + 1``) carrying
  instant events (barrier arrivals, divergence forks/joins);
* a per-SM **policy track** (``tid = 1``) carries RF-depletion stall slices
  and PCRF spill/fill slices with their register counts;
* per-SM **counter tracks** ("C" events) plot the timeline series
  (active/pending CTAs and the policy's RF occupancy levels).

Timestamps are simulated cycles used directly as microseconds -- relative
durations are what matter in the viewer.

**A campaign** (:func:`perfetto_from_events`) converts a validated event
log's spans:

* the **campaign is one process** (``pid = 1``), named after the campaign
  span;
* the **orchestrator is track 1** and carries the campaign span, the
  sequential orchestration phases, and serial request spans;
* each **worker process is its own track** (``tid = 2 + rank``, ranked by
  pid) carrying its request spans and the worker-side phases grafted
  under them;
* **stall events** appear as instants on the stalled worker's track.

Monotonic-second timestamps are rebased to the earliest span and scaled
to microseconds (the trace-event unit), so the viewer opens at t=0.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.events import events_of, spans_from_events
from repro.sim.tracing import EventKind, EventTracer

#: CTA tracks start here; tids 1..63 are reserved (1 = policy track).
_CTA_TRACK_SHIFT = 6
_POLICY_TID = 1

#: Counter events are downsampled to at most this many points per series so
#: cycle-resolution timelines don't balloon the JSON.
MAX_COUNTER_POINTS = 2000


def _cta_tid(cta_id: int) -> int:
    return (cta_id + 1) << _CTA_TRACK_SHIFT


def _warp_tid(cta_id: int, warp_id: int) -> int:
    return _cta_tid(cta_id) + warp_id + 1


class _TraceBuilder:
    def __init__(self) -> None:
        self.events: List[Dict] = []
        self._named_pids: set = set()
        self._named_tids: set = set()

    # -- metadata ------------------------------------------------------
    def name_process(self, pid: int, name: str) -> None:
        if pid in self._named_pids:
            return
        self._named_pids.add(pid)
        self.events.append({"ph": "M", "pid": pid, "tid": 0,
                            "name": "process_name", "args": {"name": name}})

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        if (pid, tid) in self._named_tids:
            return
        self._named_tids.add((pid, tid))
        self.events.append({"ph": "M", "pid": pid, "tid": tid,
                            "name": "thread_name", "args": {"name": name}})

    # -- payload events ------------------------------------------------
    def slice(self, pid: int, tid: int, name: str, start: int, dur: int,
              args: Optional[Dict] = None) -> None:
        event = {"ph": "X", "pid": pid, "tid": tid, "name": name,
                 "ts": start, "dur": max(dur, 0), "cat": "sim"}
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, pid: int, tid: int, name: str, ts: int,
                args: Optional[Dict] = None) -> None:
        event = {"ph": "i", "pid": pid, "tid": tid, "name": name,
                 "ts": ts, "s": "t", "cat": "sim"}
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, pid: int, name: str, ts: int, values: Dict) -> None:
        self.events.append({"ph": "C", "pid": pid, "tid": 0, "name": name,
                            "ts": ts, "args": values})


def perfetto_trace(tracer: EventTracer, timeline=None,
                   label: str = "") -> Dict:
    """Build the trace-event payload from a recorded run."""
    builder = _TraceBuilder()
    end_cycle = max((e.cycle + e.dur for e in tracer.events), default=0)

    # Per-(sm, cta) residency state machines over the lifecycle events.
    active_since: Dict[tuple, int] = {}
    pending_since: Dict[tuple, int] = {}
    stall_since: Dict[int, int] = {}

    for event in tracer.events:
        pid = event.sm_id + 1
        key = (event.sm_id, event.cta_id)
        builder.name_process(pid, f"SM {event.sm_id}")
        kind = event.kind

        if kind is EventKind.LAUNCH:
            builder.name_thread(pid, _cta_tid(event.cta_id),
                                f"CTA {event.cta_id}")
            active_since[key] = event.cycle
        elif kind is EventKind.SWITCH_OUT:
            tid = _cta_tid(event.cta_id)
            start = active_since.pop(key, None)
            if start is not None:
                builder.slice(pid, tid, "active", start,
                              event.cycle - start)
            builder.slice(pid, tid, "switch-out", event.cycle, event.dur,
                          args={"overhead_cycles": event.dur})
            pending_since[key] = event.cycle + event.dur
        elif kind is EventKind.SWITCH_IN:
            tid = _cta_tid(event.cta_id)
            start = pending_since.pop(key, None)
            if start is not None:
                builder.slice(pid, tid, "pending", start,
                              event.cycle - start)
            builder.slice(pid, tid, "switch-in", event.cycle, event.dur,
                          args={"overhead_cycles": event.dur})
            active_since[key] = event.cycle + event.dur
        elif kind is EventKind.RETIRE:
            tid = _cta_tid(event.cta_id)
            start = active_since.pop(key, None)
            if start is not None:
                builder.slice(pid, tid, "active", start,
                              event.cycle - start)
            builder.instant(pid, tid, "retire", event.cycle)
        elif kind in (EventKind.BARRIER_ARRIVE, EventKind.DIVERGE_FORK,
                      EventKind.DIVERGE_JOIN):
            warp = event.warp if event.warp is not None else 0
            tid = _warp_tid(event.cta_id, warp)
            builder.name_thread(pid, tid,
                                f"CTA {event.cta_id} / warp {warp}")
            builder.instant(pid, tid, kind.value, event.cycle)
        elif kind is EventKind.BARRIER_RELEASE:
            builder.instant(pid, _cta_tid(event.cta_id), "barrier_release",
                            event.cycle)
        elif kind is EventKind.RF_STALL_BEGIN:
            builder.name_thread(pid, _POLICY_TID, "RF policy")
            stall_since.setdefault(event.sm_id, event.cycle)
        elif kind is EventKind.RF_STALL_END:
            start = stall_since.pop(event.sm_id, None)
            if start is not None:
                builder.name_thread(pid, _POLICY_TID, "RF policy")
                builder.slice(pid, _POLICY_TID, "rf-depletion stall",
                              start, event.cycle - start)
        elif kind in (EventKind.PCRF_SPILL, EventKind.PCRF_FILL):
            builder.name_thread(pid, _POLICY_TID, "RF policy")
            builder.slice(pid, _POLICY_TID, kind.value, event.cycle,
                          event.dur, args={"registers": event.value})

    # Close any slices left open at the end of the trace (timeouts, or
    # drop-oldest losing the closing event).
    for (sm_id, cta_id), start in sorted(active_since.items()):
        builder.slice(sm_id + 1, _cta_tid(cta_id), "active", start,
                      end_cycle - start)
    for (sm_id, cta_id), start in sorted(pending_since.items()):
        builder.slice(sm_id + 1, _cta_tid(cta_id), "pending", start,
                      end_cycle - start)
    for sm_id, start in sorted(stall_since.items()):
        builder.slice(sm_id + 1, _POLICY_TID, "rf-depletion stall", start,
                      end_cycle - start)

    if timeline is not None:
        _emit_counters(builder, timeline)

    other: Dict[str, object] = {"dropped_events": tracer.dropped}
    if label:
        other["label"] = label
    return {
        "traceEvents": builder.events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


#: Timeline series plotted as counter tracks, grouped per counter name.
_COUNTER_GROUPS = {
    "ctas": ("active_ctas", "pending_ctas"),
    "warps": ("active_warps",),
    "rf": ("rf_free", "acrf_free", "pcrf_free"),
}


def _emit_counters(builder: _TraceBuilder, timeline) -> None:
    cycles = timeline.cycles
    if not cycles:
        return
    stride = max(1, -(-len(cycles) // MAX_COUNTER_POINTS))
    for sm_id in range(len(timeline.gpu.sms)):
        series = timeline.series_for(sm_id)
        pid = sm_id + 1
        builder.name_process(pid, f"SM {sm_id}")
        for counter, names in _COUNTER_GROUPS.items():
            present = [n for n in names if n in series]
            if not present:
                continue
            for index in range(0, len(cycles), stride):
                builder.counter(
                    pid, counter, cycles[index],
                    {n: series[n][index] for n in present})


# ----------------------------------------------------------------------
_CAMPAIGN_PID = 1
_ORCHESTRATOR_TID = 1
_FIRST_WORKER_TID = 2


def perfetto_from_events(events: Sequence[Dict]) -> Dict:
    """Build the trace-event payload of a validated campaign event log."""
    events = list(events)
    starts = events_of(events, "campaign_start")
    label = str(starts[0]["label"]) if starts else "campaign"
    spans = spans_from_events(events)

    builder = _TraceBuilder()
    builder.name_process(_CAMPAIGN_PID, f"campaign: {label}")
    builder.name_thread(_CAMPAIGN_PID, _ORCHESTRATOR_TID, "orchestrator")

    workers = sorted({span["worker"] for span in spans
                      if span.get("worker") is not None})
    worker_tid = {worker: _FIRST_WORKER_TID + rank
                  for rank, worker in enumerate(workers)}
    for worker, tid in worker_tid.items():
        builder.name_thread(_CAMPAIGN_PID, tid, f"worker {worker}")

    t0 = min((float(span["t_start"]) for span in spans), default=0.0)

    def to_us(seconds: float) -> int:
        return int(round((seconds - t0) * 1e6))

    for span in spans:
        worker = span.get("worker")
        tid = worker_tid.get(worker, _ORCHESTRATOR_TID)
        args: Dict[str, object] = {"kind": span["kind"]}
        if worker is not None:
            args["worker"] = worker
        builder.slice(_CAMPAIGN_PID, tid, str(span["name"]),
                      to_us(float(span["t_start"])),
                      max(1, int(round(float(span["dur_s"]) * 1e6))),
                      args=args)

    for stall in events_of(events, "stall"):
        tid = worker_tid.get(stall["worker"], _ORCHESTRATOR_TID)
        builder.instant(_CAMPAIGN_PID, tid, "stall",
                        to_us(float(stall["t"])),
                        args={"idle_s": stall["idle_s"]})

    return {
        "traceEvents": builder.events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "spans": len(spans)},
    }


def write_perfetto(path: str, payload: Dict) -> None:
    """Write a built trace payload as compact JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
