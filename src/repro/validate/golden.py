"""Golden-trace corpus: differential validation against recorded runs.

A golden case pins one deterministic (config, workload, policy) triple: the
full :class:`~repro.sim.stats.SimResult` plus the complete CTA event
timeline of a tiny run, stored as JSON under ``tests/goldens/``.  Replaying
the case must reproduce both exactly -- trace generation is a pure function
of the workload spec seed, so even float fields compare with ``==``.

Drift fails with a readable field-by-field diff (see :func:`diff_payload`).
Regenerate intentionally with ``python -m repro validate --record`` after
reviewing the diff (workflow: docs/VALIDATION.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SCALES, default_config
from repro.sim.gpu import GPU
from repro.sim.stats import SimResult
from repro.sim.tracing import attach_tracer
from repro.validate.sanitizer import Sanitizer, attach_sanitizer
from repro.workloads.apps import AppPool, StreamSpec, build_app
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

#: v2: concurrent-kernel cases (``launches``/``arbitration`` keys).
GOLDEN_SCHEMA_VERSION = 2

#: Diff lines shown per case before truncating.
MAX_DIFF_LINES = 12

#: Top-level shape of a golden file (key -> required type).
_PAYLOAD_SHAPE: Dict[str, type] = {
    "schema": int,
    "name": str,
    "abbrev": str,
    "policy": str,
    "scale": str,
    "config_overrides": dict,
    "policy_kwargs": dict,
    "launches": list,
    "arbitration": str,
    "result": dict,
    "events": list,
    "dropped_events": int,
}

#: Shape of one tracer event dict.
_EVENT_SHAPE: Dict[str, type] = {"cycle": int, "sm": int, "kind": str,
                                 "cta": int}


def check_golden_payload(payload: object) -> List[str]:
    """Schema problems in a loaded golden document (empty list = valid).

    Goldens are hand-reviewable JSON, which also means they are
    hand-*editable*; a truncated or mis-edited file should fail with a
    message naming the broken field, not a ``KeyError`` deep inside the
    diff machinery.
    """
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got "
                f"{type(payload).__name__}"]
    problems: List[str] = []
    for key, expected in _PAYLOAD_SHAPE.items():
        if key not in payload:
            problems.append(f"missing required key {key!r}")
        elif not isinstance(payload[key], expected):
            problems.append(f"key {key!r} must be {expected.__name__}, got "
                            f"{type(payload[key]).__name__}")
    if problems:
        return problems
    if payload["schema"] != GOLDEN_SCHEMA_VERSION:
        problems.append(f"schema version {payload['schema']} != "
                        f"{GOLDEN_SCHEMA_VERSION} (re-record the corpus)")
    for index, entry in enumerate(payload["launches"]):
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], (int, float))
                or not isinstance(entry[2], int)):
            problems.append(f"launches[{index}] must be "
                            f"[abbrev, weight, priority]")
    try:
        SimResult.from_json(payload["result"])
    except (TypeError, ValueError) as exc:
        problems.append(f"result block does not deserialize: {exc}")
    for index, event in enumerate(payload["events"]):
        if not isinstance(event, dict):
            problems.append(f"events[{index}] must be an object")
        else:
            bad = [key for key, typ in _EVENT_SHAPE.items()
                   if not isinstance(event.get(key), typ)]
            if bad:
                problems.append(f"events[{index}] has missing/mistyped "
                                f"field(s): {', '.join(bad)}")
        if len(problems) >= 5:
            problems.append("... further event problems suppressed")
            break
    return problems


@dataclass(frozen=True)
class GoldenCase:
    """One pinned simulation of the corpus.

    ``launches`` turns the case concurrent: a tuple of
    ``(abbrev, coverage_weight, priority)`` stream descriptors run as
    co-resident grids under ``arbitration`` (``abbrev`` then only names
    the combination).  Empty = the classic single-kernel case.
    """

    name: str
    abbrev: str
    policy: str
    scale: str = "tiny"
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    policy_kwargs: Tuple[Tuple[str, object], ...] = ()
    launches: Tuple[Tuple[str, float, int], ...] = ()
    arbitration: str = "priority"

    @property
    def filename(self) -> str:
        return f"{self.name}.json"


#: Seven single-kernel (config, workload, policy) triples spanning the
#: policy space -- baseline, both FineReg variants (incl. adaptive
#: repartitioning), the related-work configurations (VT, RegDRAM and
#: VT+RegMutex at its most contended swept SRP ratio), and one scheduler
#: ablation (LRR) -- plus three concurrent-kernel cases: a two-stream
#: FineReg run, a priority-skewed pair, and a budget-saturated baseline
#: pair under round-robin arbitration.
CORPUS: Tuple[GoldenCase, ...] = (
    GoldenCase("km-baseline-tiny", "KM", "baseline"),
    GoldenCase("km-finereg-tiny", "KM", "finereg"),
    GoldenCase("lb-adaptive-tiny", "LB", "finereg_adaptive"),
    GoldenCase("st-virtual-thread-tiny", "ST", "virtual_thread"),
    GoldenCase("hs-regdram-tiny", "HS", "reg_dram"),
    GoldenCase("km-regmutex-tiny", "KM", "vt_regmutex",
               policy_kwargs=(("srp_ratio", 0.2),)),
    GoldenCase("km-finereg-lrr-tiny", "KM", "finereg",
               config_overrides=(("warp_scheduling", "lrr"),)),
    GoldenCase("stkm-finereg-concurrent-tiny", "ST+KM", "finereg",
               launches=(("ST", 1.0, 0), ("KM", 1.0, 0))),
    GoldenCase("stkm-finereg-skewed-tiny", "ST+KM", "finereg",
               launches=(("ST", 1.0, 0), ("KM", 1.0, 2))),
    GoldenCase("hslb-baseline-concurrent-tiny", "HS+LB", "baseline",
               launches=(("HS", 1.0, 0), ("LB", 1.0, 0)),
               arbitration="round_robin"),
)


def default_goldens_dir() -> Path:
    """``tests/goldens/`` of the repository checkout."""
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


# ----------------------------------------------------------------------
# Running a case
# ----------------------------------------------------------------------
def run_case(case: GoldenCase, sanitize: bool = True
             ) -> Tuple[SimResult, GPU, Optional[Sanitizer]]:
    """Simulate one corpus case from scratch (no caches involved)."""
    # Imported lazily: golden.py must stay importable without pulling the
    # experiment harness in, but the policy registry lives there.
    from repro.experiments.runner import POLICIES

    scale = SCALES[case.scale]
    base = default_config(scale)
    config = replace(base, **dict(case.config_overrides))
    factory = POLICIES[case.policy](**dict(case.policy_kwargs))
    if case.launches:
        pool = AppPool(case.name, tuple(
            StreamSpec(abbrev, weight=weight, priority=priority)
            for abbrev, weight, priority in case.launches))
        specs = build_app(pool, base.with_num_sms(config.num_sms), scale)
        gpu = GPU.concurrent(config, specs, factory,
                             arbitration=case.arbitration)
    else:
        instance = build_workload(
            get_spec(case.abbrev), base.with_num_sms(config.num_sms), scale)
        gpu = GPU(config, instance.kernel, factory, instance.trace_provider,
                  instance.address_model, liveness=instance.liveness)
    attach_tracer(gpu)
    sanitizer = attach_sanitizer(gpu) if sanitize else None
    result = gpu.run(max_cycles=scale.max_cycles)
    return result, gpu, sanitizer


def case_payload(case: GoldenCase, result: SimResult, gpu: GPU) -> Dict:
    """The JSON document a golden file stores."""
    tracer = gpu.tracer
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "name": case.name,
        "abbrev": case.abbrev,
        "policy": case.policy,
        "scale": case.scale,
        "config_overrides": dict(case.config_overrides),
        "policy_kwargs": dict(case.policy_kwargs),
        "launches": [list(entry) for entry in case.launches],
        "arbitration": case.arbitration,
        "result": result.to_json(),
        "events": tracer.as_dicts(),
        "dropped_events": tracer.dropped,
    }


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_payload(golden: Dict, current: Dict,
                 limit: int = MAX_DIFF_LINES) -> List[str]:
    """Human-readable divergence between a golden file and a fresh run.

    Empty list = identical.  Result fields are compared one by one; event
    timelines report length drift and the first diverging entry, so a
    reader sees *where* behaviour changed, not just that it did.
    """
    lines: List[str] = []
    gold_result = golden.get("result", {})
    cur_result = current.get("result", {})
    for field in sorted(set(gold_result) | set(cur_result)):
        gold_value = gold_result.get(field)
        cur_value = cur_result.get(field)
        if gold_value != cur_value:
            lines.append(f"result.{field}: golden={gold_value!r} "
                         f"current={cur_value!r}")

    gold_events = golden.get("events", [])
    cur_events = current.get("events", [])
    if len(gold_events) != len(cur_events):
        lines.append(f"events: golden has {len(gold_events)}, "
                     f"current has {len(cur_events)}")
    for index, (gold_event, cur_event) in enumerate(
            zip(gold_events, cur_events)):
        if gold_event != cur_event:
            lines.append(f"events[{index}]: golden={gold_event} "
                         f"current={cur_event}")
            break
    if golden.get("dropped_events") != current.get("dropped_events"):
        lines.append(f"dropped_events: "
                     f"golden={golden.get('dropped_events')} "
                     f"current={current.get('dropped_events')}")

    if len(lines) > limit:
        lines = lines[:limit] + [f"... and {len(lines) - limit} more "
                                 f"differing fields"]
    return lines


# ----------------------------------------------------------------------
# Corpus operations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseReport:
    """Outcome of replaying one golden case."""

    case: GoldenCase
    ok: bool
    diff: Tuple[str, ...] = ()
    violations: int = 0
    error: Optional[str] = None


def record_goldens(directory: Optional[Path] = None,
                   cases: Sequence[GoldenCase] = CORPUS) -> List[Path]:
    """(Re)write every golden file from a sanitized fresh run."""
    directory = default_goldens_dir() if directory is None else directory
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for case in cases:
        result, gpu, _ = run_case(case, sanitize=True)
        path = directory / case.filename
        path.write_text(json.dumps(case_payload(case, result, gpu),
                                   indent=1, sort_keys=True) + "\n")
        written.append(path)
    return written


def validate_goldens(directory: Optional[Path] = None,
                     cases: Sequence[GoldenCase] = CORPUS,
                     sanitize: bool = True) -> List[CaseReport]:
    """Replay the corpus and compare against the stored payloads."""
    directory = default_goldens_dir() if directory is None else directory
    reports = []
    for case in cases:
        path = directory / case.filename
        if not path.exists():
            reports.append(CaseReport(
                case, ok=False,
                error=f"golden file missing: {path} "
                      f"(record with `python -m repro validate --record`)"))
            continue
        try:
            golden = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            reports.append(CaseReport(
                case, ok=False,
                error=f"golden file is not valid JSON ({exc}); re-record "
                      f"with `python -m repro validate --record`"))
            continue
        schema_problems = check_golden_payload(golden)
        if schema_problems:
            detail = "; ".join(schema_problems[:4])
            reports.append(CaseReport(
                case, ok=False,
                error=f"golden file fails schema validation: {detail}"))
            continue
        result, gpu, sanitizer = run_case(case, sanitize=sanitize)
        current = case_payload(case, result, gpu)
        diff = diff_payload(golden, current)
        violations = sanitizer.total_violations if sanitizer else 0
        reports.append(CaseReport(case, ok=not diff and not violations,
                                  diff=tuple(diff), violations=violations))
    return reports
