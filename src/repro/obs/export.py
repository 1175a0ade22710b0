"""Export campaign spans to Chrome trace-event / Perfetto JSON.

Reuses the telemetry tier's ``_TraceBuilder`` so the campaign trace and
the per-run simulator traces share one event dialect (and one validator,
``repro.telemetry.schema.check_trace_payload``).  Layout:

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

from repro.obs.events import events_of
from repro.telemetry.perfetto import _TraceBuilder

_CAMPAIGN_PID = 1
_ORCHESTRATOR_TID = 1
_FIRST_WORKER_TID = 2


def spans_from_events(events: Sequence[Dict]) -> List[Dict]:
    """Closed-span dicts from a validated event stream (log order)."""
    spans: List[Dict] = []
    for event in events_of(list(events), "span_close"):
        span = {"span": event["span"], "parent": event.get("parent"),
                "name": event["name"], "kind": event["kind"],
                "t_start": event["t_start"], "dur_s": event["dur_s"]}
        if "worker" in event:
            span["worker"] = event["worker"]
        if "attrs" in event:
            span["attrs"] = event["attrs"]
        spans.append(span)
    return spans


def perfetto_from_spans(spans: Sequence[Dict],
                        stalls: Optional[Sequence[Dict]] = None,
                        label: str = "campaign") -> Dict:
    """Build the trace-event payload for a campaign span set."""
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
        if span.get("dur_s") is None:
            continue
        worker = span.get("worker")
        tid = worker_tid.get(worker, _ORCHESTRATOR_TID)
        args: Dict[str, object] = {"kind": span["kind"]}
        if worker is not None:
            args["worker"] = worker
        builder.slice(_CAMPAIGN_PID, tid, str(span["name"]),
                      to_us(float(span["t_start"])),
                      max(1, int(round(float(span["dur_s"]) * 1e6))),
                      args=args)

    for stall in stalls or ():
        worker = stall.get("worker")
        tid = worker_tid.get(worker, _ORCHESTRATOR_TID)
        builder.instant(_CAMPAIGN_PID, tid, "stall",
                        to_us(float(stall.get("t", t0))),
                        args={"idle_s": stall.get("idle_s")})

    return {
        "traceEvents": builder.events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "spans": len(spans)},
    }


def perfetto_from_events(events: Sequence[Dict]) -> Dict:
    """Trace payload straight from a validated campaign event stream."""
    starts = events_of(list(events), "campaign_start")
    label = str(starts[0]["label"]) if starts else "campaign"
    return perfetto_from_spans(spans_from_events(events),
                               stalls=events_of(list(events), "stall"),
                               label=label)


def write_campaign_perfetto(path: str, events: Sequence[Dict]) -> Dict:
    """Render and write the campaign trace; returns the payload."""
    payload = perfetto_from_events(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return payload
