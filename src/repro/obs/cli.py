"""``repro obs`` -- inspect campaign observability artifacts.

Actions:

* ``summarize <log>``: cache hit-rate, worker utilization, per-phase
  wall-clock breakdown, the engine mix (requests and engine-run wall per
  policy, engine and refusal) and reconciliation status of a campaign
  JSONL log;
* ``tail <log>``: the last N events, one line each, with invalid lines
  marked rather than crashing (a live log may be mid-write);
* ``perfetto <log> --out trace.json``: export the span tree to
  Chrome-trace/Perfetto JSON (validated before writing).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.events import ObsLogError, events_of, load_log
from repro.obs.export import spans_from_events, write_campaign_perfetto
from repro.obs.schema import check_obs_event
from repro.obs.spans import Span, reconcile_spans


def _span_objects(span_dicts: Sequence[Dict]) -> List[Span]:
    spans: List[Span] = []
    for entry in span_dicts:
        span = Span(int(entry["span"]), entry.get("parent"),
                    str(entry["name"]), str(entry["kind"]),
                    float(entry["t_start"]), worker=entry.get("worker"))
        if entry.get("dur_s") is not None:
            span.t_end = span.t_start + float(entry["dur_s"])
        spans.append(span)
    return spans


def engine_rows(span_dicts: Sequence[Dict],
                completions: Sequence[Dict] = ()) -> List[Dict]:
    """Requests and summed engine-run wall per (policy, engine, refusal).

    Each tagged ``engine-run`` phase span is one simulated request, its
    policy read from the enclosing ``req:<app>/<policy>`` request span
    (serial and pooled runs alike); each ``run_complete`` marked
    ``cached`` counts as engine ``cached``.
    """
    by_id = {span["span"]: span for span in span_dicts}
    table: Dict[tuple, List] = {}
    for span in span_dicts:
        attrs = span.get("attrs") or {}
        if span["name"] != "engine-run" or "engine" not in attrs:
            continue
        parent = by_id.get(span.get("parent"))
        policy = (str(parent["name"]).rpartition("/")[2]
                  if parent is not None and parent["kind"] == "request"
                  else "-")
        row = table.setdefault(
            (policy, str(attrs["engine"]), attrs.get("refusal")), [0, 0.0])
        row[0] += 1
        row[1] += float(span["dur_s"])
    for event in completions:
        if event.get("cached"):
            table.setdefault((event["policy"], "cached", None),
                             [0, 0.0])[0] += 1
    rows = [{"policy": policy, "engine": engine, "refusal": refusal,
             "requests": count, "wall_s": round(wall, 6)}
            for (policy, engine, refusal), (count, wall) in table.items()]
    rows.sort(key=lambda row: (row["policy"], row["engine"],
                               row["refusal"] or ""))
    return rows


def summarize_events(events: Sequence[Dict]) -> Dict:
    """Campaign summary computed purely from a validated event stream."""
    events = list(events)
    starts = events_of(events, "campaign_start")
    ends = events_of(events, "campaign_end")
    lookups = events_of(events, "cache_lookup")
    stores = events_of(events, "cache_store")
    completions = events_of(events, "run_complete")
    runs = [event for event in completions if not event.get("cached")]
    stalls = events_of(events, "stall")
    hits = sum(1 for event in lookups if event["hit"])

    span_dicts = spans_from_events(events)
    spans = _span_objects(span_dicts)
    kind_of = {span.span_id: span.kind for span in spans}
    campaign_span = next((s for s in spans if s.kind == "campaign"), None)
    if campaign_span is not None:
        wall = campaign_span.duration
    elif events:
        wall = float(events[-1]["t"]) - float(events[0]["t"])
    else:
        wall = 0.0

    phases: List[Dict] = []
    for span in spans:
        if span.kind != "phase":
            continue
        if span.parent_id is not None \
                and kind_of.get(span.parent_id) == "request":
            continue
        phases.append({"phase": span.name,
                       "wall_s": round(span.duration, 6)})

    workers: Dict[str, int] = {}
    busy = 0.0
    for event in runs:
        worker = event.get("worker")
        if worker is not None:
            workers[str(worker)] = workers.get(str(worker), 0) + 1
        busy += float(event["dur_s"])
    jobs = int(starts[0]["jobs"]) if starts else 1
    utilization = round(busy / (jobs * wall), 6) if wall > 0 else None

    return {
        "campaign": {
            "label": starts[0]["label"] if starts else None,
            "total": int(starts[0]["total"]) if starts else None,
            "jobs": jobs,
            "completed": (int(ends[-1]["completed"]) if ends
                          else len(runs)),
            "wall_s": round(wall, 6),
        },
        "cache": {
            "lookups": len(lookups),
            "hits": hits,
            "misses": len(lookups) - hits,
            "hit_rate": (round(hits / len(lookups), 6)
                         if lookups else None),
            "stores": len(stores),
            "stored_bytes": sum(int(e["bytes"]) for e in stores),
        },
        "runs": {
            "completed": len(runs),
            "busy_s": round(busy, 6),
            "mean_s": round(busy / len(runs), 6) if runs else None,
        },
        "workers": {
            "seen": len(workers),
            "runs_by_worker": {w: workers[w] for w in sorted(workers)},
            "utilization": utilization,
            "stall_events": len(stalls),
        },
        "phases": phases,
        "engines": engine_rows(span_dicts, completions),
        "reconcile": reconcile_spans(spans),
    }


def format_summary(summary: Dict) -> str:
    campaign = summary["campaign"]
    cache = summary["cache"]
    workers = summary["workers"]
    lines = [
        f"campaign: {campaign['label'] or '-'} "
        f"({campaign['completed']}/{campaign['total'] or '?'} runs, "
        f"jobs={campaign['jobs']}, wall {campaign['wall_s']:.3f}s)",
        f"cache: {cache['lookups']} lookups, {cache['hits']} hits, "
        f"{cache['misses']} misses"
        + (f" (hit rate {cache['hit_rate']:.1%})"
           if cache['hit_rate'] is not None else "")
        + f"; {cache['stores']} stores "
          f"({cache['stored_bytes']:,} bytes)",
        f"workers: {workers['seen']} seen"
        + (f", utilization {workers['utilization']:.1%}"
           if workers['utilization'] is not None else "")
        + f", {workers['stall_events']} stall events",
    ]
    for worker, count in workers["runs_by_worker"].items():
        lines.append(f"  worker {worker}: {count} runs")
    if summary["phases"]:
        lines.append("phases:")
        for row in summary["phases"]:
            lines.append(f"  {row['phase']}: {row['wall_s']:.3f}s")
    if summary["engines"]:
        lines.append("engines (policy, engine, refusal: requests, "
                     "engine-run wall):")
        for row in summary["engines"]:
            lines.append(f"  {row['policy']:<18} {row['engine']:<10} "
                         f"{row['refusal'] or '-':<24} "
                         f"{row['requests']:>5}  {row['wall_s']:.3f}s")
    problems = summary["reconcile"]
    lines.append("spans reconcile: "
                 + ("ok" if not problems
                    else f"{len(problems)} problems"))
    for problem in problems:
        lines.append(f"  {problem}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _tail(path: str, last: int) -> int:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    shown = [line for line in lines if line.strip()][-max(1, last):]
    for line in shown:
        try:
            event = json.loads(line)
            problems = check_obs_event(event)
        except ValueError:
            problems = ["not valid JSON"]
        if problems:
            print(f"[invalid: {problems[0]}] {line}")
            continue
        t = event["t"]
        extras = {k: v for k, v in event.items()
                  if k not in ("v", "t", "ev")}
        detail = " ".join(f"{k}={v}" for k, v in extras.items())
        print(f"t={t:10.3f}  {event['ev']:<14} {detail}")
    return 0


def run_obs(action: str, log: Optional[str] = None,
            out: Optional[str] = None, last: int = 20,
            strict: bool = False, as_json: bool = False) -> int:
    """Entry point behind ``repro obs`` (also directly testable)."""
    if log is None:
        print(f"error: obs {action} requires a campaign log path")
        return 2
    if action == "tail":
        return _tail(log, last)

    try:
        events = load_log(log)
    except OSError as exc:
        print(f"error: {exc}")
        return 1
    except ObsLogError as exc:
        print(f"error: {exc}")
        for problem in exc.problems[:10]:
            print(f"  {problem}")
        return 1

    if action == "summarize":
        summary = summarize_events(events)
        if as_json:
            print(json.dumps(summary, indent=1, sort_keys=True))
        else:
            print(format_summary(summary))
        return 1 if (strict and summary["reconcile"]) else 0

    if action == "perfetto":
        target = out if out is not None else str(
            Path(log).with_suffix(".perfetto.json"))
        from repro.telemetry.schema import check_trace_payload
        payload = write_campaign_perfetto(target, events)
        problems = check_trace_payload(payload)
        if problems:
            print(f"error: exported trace fails validation: "
                  f"{problems[:3]}")
            return 1
        print(f"wrote {target} ({len(payload['traceEvents'])} events; "
              f"open in ui.perfetto.dev)")
        return 0

    print(f"error: unknown obs action {action!r}")
    return 2
