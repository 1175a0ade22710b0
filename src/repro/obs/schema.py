"""Shape validation for every observability artifact.

Three artifacts leave this package, and other tools consume all of them:
the campaign JSONL event log (``repro obs summarize``, CI step
summaries), the Chrome trace-event / Perfetto JSON of a simulation or a
campaign, and a simulation's columnar timeline.  A malformed one must
fail with a message naming the broken field, not crash a reader three
layers downstream -- the same philosophy as the golden-file checks.

One :data:`SCHEMA_VERSION` covers them all: it is the event envelope's
``v``, the per-run telemetry artifact's ``schema`` and the timeline
payload's ``schema``.

Every event shares the envelope ``{"v": <schema>, "t": <monotonic s>,
"ev": <type>}`` plus per-type payload fields.  Event field specs below use
``float`` to mean "int or float", and booleans are checked strictly
(``True`` must not satisfy an ``int`` field and vice versa).  This module
imports nothing from the package: the validators stand alone for readers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: Bump when the event-log, telemetry-artifact or timeline layout changes.
SCHEMA_VERSION = 1

#: Validators stop collecting after this many problems.
_MAX_PROBLEMS = 10

# ----------------------------------------------------------------------
# Campaign event log
# ----------------------------------------------------------------------
#: Span kinds the log may carry (mirrors ``repro.obs.spans.SPAN_KINDS``).
_KINDS = ("campaign", "request", "phase")

#: type spec -> checker.  ``"float"`` accepts ints; ``"int"`` rejects bools.
_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int|null": lambda v: v is None
    or (isinstance(v, int) and not isinstance(v, bool)),
    "float|null": lambda v: v is None
    or (isinstance(v, (int, float)) and not isinstance(v, bool)),
    "kind": lambda v: v in _KINDS,
    "attrs": lambda v: isinstance(v, dict) and all(
        isinstance(key, str)
        and (value is None or isinstance(value, (str, int, float, bool)))
        for key, value in v.items()),
}

#: Per-event required and optional payload fields (beyond the envelope).
EVENT_FIELDS: Dict[str, Tuple[Dict[str, str], Dict[str, str]]] = {
    "campaign_start": ({"label": "str", "total": "int", "jobs": "int"}, {}),
    "campaign_end": ({"completed": "int"}, {}),
    "span_open": ({"span": "int", "name": "str", "kind": "kind"},
                  {"parent": "int|null", "worker": "int"}),
    "span_close": ({"span": "int", "name": "str", "kind": "kind",
                    "t_start": "float", "dur_s": "float"},
                   {"parent": "int|null", "worker": "int",
                    "attrs": "attrs"}),
    "cache_lookup": ({"key": "str", "hit": "bool", "latency_s": "float"},
                     {}),
    "cache_store": ({"key": "str", "bytes": "int", "latency_s": "float"},
                    {}),
    "worker_start": ({"worker": "int"}, {}),
    "worker_stop": ({"worker": "int", "runs": "int"}, {}),
    "heartbeat": ({"worker": "int", "completed": "int"}, {}),
    "stall": ({"worker": "int", "idle_s": "float"}, {}),
    "run_complete": ({"index": "int", "abbrev": "str", "policy": "str",
                      "dur_s": "float"},
                     {"worker": "int", "cached": "bool"}),
    "progress": ({"completed": "int", "total": "int"},
                 {"eta_s": "float|null", "followup": "int"}),
}


def check_obs_event(event: object) -> List[str]:
    """Schema problems in one event object (empty list = valid)."""
    if not isinstance(event, dict):
        return [f"event must be a JSON object, got {type(event).__name__}"]
    problems: List[str] = []
    version = event.get("v")
    if version != SCHEMA_VERSION:
        problems.append(f"schema version {version!r} != {SCHEMA_VERSION}")
    if not _CHECKS["float"](event.get("t")):
        problems.append("missing or mistyped envelope field 't' (seconds)")
    ev = event.get("ev")
    if ev not in EVENT_FIELDS:
        problems.append(f"unknown event type {ev!r}")
        return problems
    required, optional = EVENT_FIELDS[ev]
    for field, spec in required.items():
        if field not in event:
            problems.append(f"{ev}: missing required field {field!r}")
        elif not _CHECKS[spec](event[field]):
            problems.append(f"{ev}: field {field!r} must be {spec}, got "
                            f"{event[field]!r}")
    for field, spec in optional.items():
        if field in event and not _CHECKS[spec](event[field]):
            problems.append(f"{ev}: optional field {field!r} must be "
                            f"{spec}, got {event[field]!r}")
    return problems


def check_obs_log_text(text: str) -> List[str]:
    """Schema problems across a whole JSONL log document."""
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if len(problems) >= _MAX_PROBLEMS:
            problems.append("... further problems suppressed")
            break
        try:
            event = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        for problem in check_obs_event(event):
            problems.append(f"line {lineno}: {problem}")
    return problems


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ----------------------------------------------------------------------
#: Trace-event phases the exporters are allowed to emit.
_ALLOWED_PHASES = frozenset({"M", "X", "i", "C", "B", "E"})

#: Required fields per phase (beyond the common ph/pid/name).
_PHASE_FIELDS: Dict[str, Dict[str, type]] = {
    "M": {"tid": int, "args": dict},
    "X": {"tid": int, "ts": int, "dur": int},
    "i": {"tid": int, "ts": int, "s": str},
    "C": {"ts": int, "args": dict},
    "B": {"tid": int, "ts": int},
    "E": {"tid": int, "ts": int},
}


def check_trace_payload(payload: object) -> List[str]:
    """Schema problems in a trace-event document (empty list = valid)."""
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got "
                f"{type(payload).__name__}"]
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or mistyped 'traceEvents' (must be a list)"]
    for index, event in enumerate(events):
        if len(problems) >= _MAX_PROBLEMS:
            problems.append("... further event problems suppressed")
            break
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}] must be an object")
            continue
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            problems.append(f"traceEvents[{index}] has unknown ph "
                            f"{phase!r}")
            continue
        if not isinstance(event.get("pid"), int):
            problems.append(f"traceEvents[{index}] missing int 'pid'")
        if not isinstance(event.get("name"), str):
            problems.append(f"traceEvents[{index}] missing str 'name'")
        for field, expected in _PHASE_FIELDS[phase].items():
            if not isinstance(event.get(field), expected):
                problems.append(
                    f"traceEvents[{index}] ({phase}) field {field!r} must "
                    f"be {expected.__name__}, got "
                    f"{type(event.get(field)).__name__}")
        if phase == "X" and event.get("dur", 0) < 0:
            problems.append(f"traceEvents[{index}] has negative dur")
    return problems


def switch_phase_durations(payload: Dict) -> List[int]:
    """Overhead-cycle durations of all CTA switch phases in a trace.

    CI asserts this is non-empty with nonzero entries for a traced FineReg
    run -- the acceptance check that Table-IV overhead actually reaches the
    exported trace.
    """
    return [event["dur"] for event in payload.get("traceEvents", [])
            if event.get("ph") == "X"
            and event.get("name") in ("switch-out", "switch-in")]


# ----------------------------------------------------------------------
# Timeline artifact
# ----------------------------------------------------------------------
#: Shape of the timeline artifact's top level.
_TIMELINE_SHAPE: Dict[str, type] = {
    "schema": int,
    "interval": int,
    "num_sms": int,
    "truncated": bool,
    "cycles": list,
    "sms": list,
}


def check_timeline_payload(payload: object) -> List[str]:
    """Schema problems in a timeline artifact (empty list = valid)."""
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got "
                f"{type(payload).__name__}"]
    problems: List[str] = []
    for key, expected in _TIMELINE_SHAPE.items():
        if key not in payload:
            problems.append(f"missing required key {key!r}")
        elif not isinstance(payload[key], expected):
            problems.append(f"key {key!r} must be {expected.__name__}, got "
                            f"{type(payload[key]).__name__}")
    if problems:
        return problems
    if payload["schema"] != SCHEMA_VERSION:
        problems.append(f"timeline schema {payload['schema']} != "
                        f"{SCHEMA_VERSION}")
    n = len(payload["cycles"])
    for entry in payload["sms"]:
        if not isinstance(entry, dict) or "series" not in entry:
            problems.append("sms entries must be objects with 'series'")
            break
        for name, column in entry["series"].items():
            if len(column) != n:
                problems.append(
                    f"series {name!r} of SM {entry.get('sm')} has "
                    f"{len(column)} samples, cycles axis has {n}")
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems
