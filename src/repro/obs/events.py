"""Structured JSONL event log for campaign runs, and its one summary.

One :class:`EventLog` per campaign: events accumulate in memory (for
in-process consumers like the REPORT.md breakdown and tests) and, when a
path is given, stream to disk one JSON object per line, flushed per event
so ``repro obs tail`` can watch a live campaign.

The log is the campaign's only ledger: :func:`summarize_events` derives
every campaign figure (cache hit rate, worker utilization, phase walls,
the engine mix) from the events alone, whether they come from a live
:class:`EventLog` or from :func:`load_log`, so ``BENCH_campaign.json`` and
``repro obs summarize`` cannot disagree.

Timestamps come from the injected ``now`` callable (default: the audited
:mod:`repro.obs.clock`); this module never reads the host clock itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import clock
from repro.obs.schema import SCHEMA_VERSION, check_obs_log_text
from repro.obs.spans import RECONCILE_SLACK_S, Span, reconcile_spans


class ObsLogError(ValueError):
    """A log file failed schema validation; ``problems`` names the lines."""

    def __init__(self, path: str, problems: List[str]) -> None:
        self.path = path
        self.problems = problems
        preview = "; ".join(problems[:3])
        super().__init__(f"{path}: invalid obs log ({len(problems)} "
                         f"problems: {preview} ...)")


class EventLog:
    """Append-only campaign event log (in-memory + optional JSONL file)."""

    def __init__(self, path: Optional[str] = None,
                 now: Optional[Callable[[], float]] = None) -> None:
        self.path = Path(path) if path else None
        self.events: List[Dict] = []
        self._now = now if now is not None else clock.monotonic
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, ev: str, **fields: object) -> Dict:
        event: Dict[str, object] = {"v": SCHEMA_VERSION,
                                    "t": round(self._now(), 6), "ev": ev}
        event.update(fields)
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
            self._fh.flush()
        return event

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
def load_log(path: str) -> List[Dict]:
    """Parse and schema-validate a JSONL log; raises :class:`ObsLogError`.

    Validation-first by design: every downstream consumer (summarize, the
    Perfetto exporter, CI) goes through here, so a malformed log fails
    with named lines instead of corrupting a report.
    """
    text = Path(path).read_text(encoding="utf-8")
    problems = check_obs_log_text(text)
    if problems:
        raise ObsLogError(str(path), problems)
    events: List[Dict] = []
    for line in text.splitlines():
        if line.strip():
            events.append(json.loads(line))
    return events


def events_of(events: List[Dict], ev: str) -> List[Dict]:
    """The sub-list of one event type, in log order."""
    return [event for event in events if event.get("ev") == ev]


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


# ----------------------------------------------------------------------
# The campaign summary
# ----------------------------------------------------------------------
def _span_objects(span_dicts: Sequence[Dict]) -> List[Span]:
    spans: List[Span] = []
    for entry in span_dicts:
        span = Span(int(entry["span"]), entry.get("parent"),
                    str(entry["name"]), str(entry["kind"]),
                    float(entry["t_start"]), worker=entry.get("worker"))
        span.t_end = span.t_start + float(entry["dur_s"])
        spans.append(span)
    return spans


def _phase_breakdown(events: Sequence[Dict],
                     span_dicts: Sequence[Dict]) -> List[Dict]:
    """Closed orchestration phases, in span start order.

    Each row names the phase's parent span (``within``), read from the
    parent's ``span_open`` event, so a still-open campaign span names its
    phases too.  Worker-side phases (whose parents are ``request`` spans)
    are omitted: the campaign breakdown reports orchestration phases, not
    the thousands of per-run repeats.
    """
    opened = events_of(list(events), "span_open")
    open_event = {event["span"]: event for event in opened}
    closed = {span["span"]: span for span in span_dicts}
    rows: List[Dict] = []
    for event in opened:
        span = closed.get(event["span"])
        if span is None or span["kind"] != "phase":
            continue
        parent = open_event.get(span.get("parent"))
        if parent is not None and parent["kind"] == "request":
            continue
        within = parent["name"] if parent is not None else "-"
        rows.append({"within": within, "phase": span["name"],
                     "wall_s": span["dur_s"]})
    return rows


#: Suffix of the span attrs that count a compiled run's served ops by kind
#: (``tick_ops`` and so on).
OPS_SUFFIX = "_ops"
#: Suffix of the span attrs that hold a compiled run's host seconds inside
#: ``Core.resume`` and serving each op kind (``resume_s``, ``tick_s`` and
#: so on).
PART_SUFFIX = "_s"


def engine_rows(span_dicts: Sequence[Dict],
                completions: Sequence[Dict] = ()) -> List[Dict]:
    """Requests, summed engine-run wall, summed served ops (``ops``, by
    kind) and summed op walls (``op_s``: ``resume`` and each served kind)
    per (policy, engine, refusal).

    Each tagged ``engine-run`` phase span is one simulated request, its
    policy read from the enclosing ``req:<app>/<policy>`` request span
    (serial and pooled runs alike); each ``run_complete`` marked
    ``cached`` counts as engine ``cached``.  Only compiled runs carry op
    counts and walls, so other rows read ``ops`` and ``op_s`` empty.
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
            (policy, str(attrs["engine"]), attrs.get("refusal")),
            [0, 0.0, {}, {}])
        row[0] += 1
        row[1] += float(span["dur_s"])
        for key, value in attrs.items():
            if key.endswith(OPS_SUFFIX):
                kind = key[:-len(OPS_SUFFIX)]
                row[2][kind] = row[2].get(kind, 0) + int(value)
            elif key.endswith(PART_SUFFIX):
                part = key[:-len(PART_SUFFIX)]
                row[3][part] = row[3].get(part, 0.0) + float(value)
    for event in completions:
        if event.get("cached"):
            table.setdefault((event["policy"], "cached", None),
                             [0, 0.0, {}, {}])[0] += 1
    rows = [{"policy": policy, "engine": engine, "refusal": refusal,
             "requests": count, "wall_s": round(wall, 6), "ops": ops,
             "op_s": {part: round(seconds, 6)
                      for part, seconds in parts.items()}}
            for (policy, engine, refusal), (count, wall, ops, parts)
            in table.items()]
    rows.sort(key=lambda row: (row["policy"], row["engine"],
                               row["refusal"] or ""))
    return rows


def reconcile_engine_rows(rows: Sequence[Dict],
                          slack_s: float = RECONCILE_SLACK_S) -> List[str]:
    """Engine rows whose op walls add up to more than their engine-run
    wall: the parts are timed inside each span, so they cannot, beyond
    ``slack_s`` per request (the rounding ``reconcile_spans`` allows a
    span's phase children)."""
    problems: List[str] = []
    for row in rows:
        total = sum(row["op_s"].values())
        if total > row["wall_s"] + slack_s * row["requests"]:
            problems.append(
                f"engine row {row['policy']}/{row['engine']}/"
                f"{row['refusal'] or '-'}: op walls sum to {total:.6f}s > "
                f"engine-run wall {row['wall_s']:.6f}s")
    return problems


def summarize_events(events: Sequence[Dict]) -> Dict:
    """The campaign summary, computed purely from its event stream."""
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
    campaign_span = next((s for s in spans if s.kind == "campaign"), None)
    if campaign_span is not None:
        wall = campaign_span.duration
    elif events:
        wall = float(events[-1]["t"]) - float(events[0]["t"])
    else:
        wall = 0.0

    workers: Dict[str, int] = {}
    busy = 0.0
    for event in runs:
        worker = event.get("worker")
        if worker is not None:
            workers[str(worker)] = workers.get(str(worker), 0) + 1
        busy += float(event["dur_s"])
    jobs = int(starts[0]["jobs"]) if starts else 1
    utilization = round(busy / (jobs * wall), 6) if wall > 0 else None

    engines = engine_rows(span_dicts, completions)
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
        "phases": _phase_breakdown(events, span_dicts),
        "engines": engines,
        "reconcile": reconcile_spans(spans) + reconcile_engine_rows(engines),
    }
