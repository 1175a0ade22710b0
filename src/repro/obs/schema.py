"""Schema validation for the campaign JSONL event log.

Same philosophy as ``repro.telemetry.schema`` and the golden-file checks:
the log is consumed by other tools (``repro obs summarize``, the Perfetto
exporter, CI step summaries), so a malformed line must fail with a message
naming the broken field, not crash a reader three layers downstream.

Every event shares the envelope ``{"v": <schema>, "t": <monotonic s>,
"ev": <type>}`` plus per-type payload fields.  Field specs below use
``float`` to mean "int or float", and booleans are checked strictly
(``True`` must not satisfy an ``int`` field and vice versa).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Bump when the event-log layout changes.
OBS_SCHEMA_VERSION = 1

#: Span kinds the log may carry (mirrors ``repro.obs.spans.SPAN_KINDS``
#: without importing it: the validator must stand alone for log readers).
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
                 {"eta_s": "float|null"}),
}

_MAX_PROBLEMS = 10


def check_obs_event(event: object) -> List[str]:
    """Schema problems in one event object (empty list = valid)."""
    if not isinstance(event, dict):
        return [f"event must be a JSON object, got {type(event).__name__}"]
    problems: List[str] = []
    version = event.get("v")
    if version != OBS_SCHEMA_VERSION:
        problems.append(f"schema version {version!r} != "
                        f"{OBS_SCHEMA_VERSION}")
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
    import json

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
