"""``repro trace`` and ``repro obs`` -- produce and inspect artifacts.

``repro trace`` (:func:`run_trace`) runs one traced simulation.  It always
simulates cold (no result cache involved): the point of the command is the
event stream and timelines, which only exist when the simulation actually
runs.  It exports:

* ``--perfetto OUT``: Chrome trace-event / Perfetto JSON (load in
  https://ui.perfetto.dev or ``chrome://tracing``);
* ``--timeline OUT``: the raw columnar per-cycle timeline payload;
* a stall-attribution / switch-overhead summary on stdout either way.

``repro obs`` (:func:`run_obs`) inspects a campaign JSONL log:

* ``summarize <log>``: cache hit-rate, worker utilization, per-phase
  wall-clock breakdown, the engine mix (requests, engine-run wall and,
  for compiled runs, the ops served by kind and the host seconds inside
  ``Core.resume`` and serving each kind, per policy, engine and refusal)
  and reconciliation status (``--strict`` fails on a problem, an engine
  row whose op walls exceed its engine-run wall included);
* ``tail <log>``: the last N events, one line each, with invalid lines
  marked rather than crashing (a live log may be mid-write);
* ``perfetto <log> --out trace.json``: export the span tree to
  Chrome-trace/Perfetto JSON (validated before writing).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro.config import SCALES, default_config
from repro.experiments.report import format_table
from repro.experiments.runner import POLICIES
from repro.obs import clock
from repro.obs.events import ObsLogError, load_log, summarize_events
from repro.obs.perfetto import (perfetto_from_events, perfetto_trace,
                                write_perfetto)
from repro.obs.schema import check_obs_event, check_trace_payload
from repro.obs.telemetry import attach_telemetry
from repro.sim.gpu import GPU
from repro.sim.tracing import attach_tracer
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def run_trace(app: str, policy: str = "finereg", scale_name: str = "tiny",
              perfetto_out: Optional[str] = None,
              timeline_out: Optional[str] = None,
              interval: int = 1, capacity: int = 100_000) -> int:
    """Simulate ``app`` under ``policy`` with full telemetry attached."""
    if policy not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {policy!r}; known: {known}")
    scale = SCALES[scale_name]
    config = default_config(scale)
    spec = get_spec(app.upper())
    instance = build_workload(spec, config, scale)
    gpu = GPU(
        config,
        instance.kernel,
        POLICIES[policy](),
        instance.trace_provider,
        instance.address_model,
        liveness=instance.liveness,
    )
    tracer = attach_tracer(gpu, capacity=capacity, level="warp")
    session = attach_telemetry(gpu, interval=interval)

    started = clock.monotonic()
    result = gpu.run(max_cycles=scale.max_cycles)
    wall_s = clock.monotonic() - started

    if perfetto_out:
        _ensure_parent(perfetto_out)
        write_perfetto(perfetto_out, perfetto_trace(
            tracer, timeline=session.timeline,
            label=f"{spec.abbrev}/{policy}/{scale_name}"))
        print(f"wrote {perfetto_out} "
              f"({len(tracer.events)} events, {tracer.dropped} dropped)")
    if timeline_out:
        _ensure_parent(timeline_out)
        with open(timeline_out, "w", encoding="utf-8") as fh:
            json.dump(session.timeline.as_payload(), fh,
                      separators=(",", ":"))
        print(f"wrote {timeline_out} "
              f"({session.timeline.num_samples} samples/SM)")

    _print_trace_summary(spec.abbrev, policy, scale_name, result, tracer,
                         wall_s)
    return 0


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _print_trace_summary(abbrev: str, policy: str, scale_name: str, result,
                         tracer, wall_s: float) -> None:
    span = max(1, result.cycles * result.num_sms)
    rows = [
        ["cycles", result.cycles],
        ["IPC", f"{result.ipc:.3f}"],
        ["stall fraction", f"{result.idle_cycles / span:.3f}"],
        ["  RF depletion", f"{result.rf_depletion_cycles / span:.3f}"],
        ["  SRP contention", f"{result.srp_stall_cycles / span:.3f}"],
        ["CTA switches", result.cta_switch_events],
        ["switch overhead (cyc)", result.switch_overhead_cycles],
        ["  switch-out", result.switch_out_overhead_cycles],
        ["  switch-in", result.switch_in_overhead_cycles],
    ]
    if wall_s > 0:
        rows.append(["simulator speed",
                     f"{result.instructions / wall_s:,.0f} insts/s"])
    for kind, count in sorted(tracer.counts_by_kind().items()):
        rows.append([f"events: {kind}", count])
    if tracer.dropped:
        rows.append(["events dropped", tracer.dropped])
    print(format_table(
        ["metric", "value"], rows,
        title=f"Trace summary: {abbrev} under {policy} ({scale_name})"))


# ----------------------------------------------------------------------
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
            lines.append(f"  {row['within']} / {row['phase']}: "
                         f"{row['wall_s']:.3f}s")
    if summary["engines"]:
        lines.append("engines (policy, engine, refusal: requests, "
                     "engine-run wall, served ops; op walls):")
        for row in summary["engines"]:
            ops = row.get("ops") or {}
            lines.append(f"  {row['policy']:<18} {row['engine']:<10} "
                         f"{row['refusal'] or '-':<24} "
                         f"{row['requests']:>5}  {row['wall_s']:.3f}s"
                         + "".join(f"  {kind} {count}"
                                   for kind, count in ops.items()))
            parts = row.get("op_s") or {}
            if parts:
                lines.append(" " * 4 + "  ".join(
                    f"{part} {seconds:.3f}s"
                    for part, seconds in parts.items()))
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
        payload = perfetto_from_events(events)
        problems = check_trace_payload(payload)
        if problems:
            print(f"error: exported trace fails validation: "
                  f"{problems[:3]}")
            return 1
        write_perfetto(target, payload)
        print(f"wrote {target} ({len(payload['traceEvents'])} events; "
              f"open in ui.perfetto.dev)")
        return 0

    print(f"error: unknown obs action {action!r}")
    return 2
