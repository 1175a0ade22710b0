"""Perfetto/Chrome trace-event export and its schema validators."""

from __future__ import annotations

import json

import pytest

from repro.config import GPUConfig, TINY
from repro.obs.perfetto import (
    MAX_COUNTER_POINTS,
    perfetto_trace,
    write_perfetto,
)
from repro.obs.schema import (
    check_timeline_payload,
    check_trace_payload,
    switch_phase_durations,
)
from repro.obs.telemetry import attach_telemetry
from repro.policies.baseline import BaselinePolicy
from repro.policies.finereg import FineRegPolicy
from repro.sim.gpu import GPU
from repro.sim.tracing import EventKind, EventTracer, attach_tracer
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def traced_run(app="KM", policy=FineRegPolicy, with_timeline=True):
    config = GPUConfig().with_num_sms(1)
    instance = build_workload(get_spec(app), config, TINY)
    gpu = GPU(config, instance.kernel, policy,
              instance.trace_provider, instance.address_model,
              liveness=instance.liveness)
    tracer = attach_tracer(gpu, level="warp")
    session = attach_telemetry(gpu) if with_timeline else None
    result = gpu.run(max_cycles=TINY.max_cycles)
    timeline = session.timeline if session else None
    return tracer, timeline, result


@pytest.fixture(scope="module")
def km_trace():
    tracer, timeline, result = traced_run()
    payload = perfetto_trace(tracer, timeline=timeline, label="km/finereg")
    return tracer, timeline, result, payload


class TestTraceStructure:
    def test_payload_passes_schema_check(self, km_trace):
        __, __, __, payload = km_trace
        assert check_trace_payload(payload) == []

    def test_sms_are_processes_ctas_are_tracks(self, km_trace):
        __, __, __, payload = km_trace
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {1}  # one SM -> one process, pid = sm_id + 1

    def test_switch_phases_have_table_iv_durations(self, km_trace):
        __, __, result, payload = km_trace
        durs = switch_phase_durations(payload)
        assert len(durs) == result.cta_switch_events
        assert all(d > 0 for d in durs)
        assert sum(durs) == result.switch_overhead_cycles

    def test_active_slices_balance_launch_retire(self, km_trace):
        tracer, __, __, payload = km_trace
        active = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "active"]
        launches = len(tracer.of_kind(EventKind.LAUNCH))
        switch_ins = len(tracer.of_kind(EventKind.SWITCH_IN))
        assert len(active) == launches + switch_ins

    def test_pcrf_slices_carry_register_counts(self, km_trace):
        __, __, result, payload = km_trace
        spills = [e for e in payload["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "pcrf_spill"]
        if result.cta_switch_events:
            assert spills
            assert all(e["args"]["registers"] > 0 for e in spills)

    def test_counter_tracks_emitted_and_bounded(self, km_trace):
        __, __, __, payload = km_trace
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "ctas" in names and "rf" in names
        per_series: dict = {}
        for e in counters:
            per_series[e["name"]] = per_series.get(e["name"], 0) + 1
        assert all(n <= MAX_COUNTER_POINTS for n in per_series.values())

    def test_label_and_drop_count_in_other_data(self, km_trace):
        __, __, __, payload = km_trace
        assert payload["otherData"]["label"] == "km/finereg"
        assert payload["otherData"]["dropped_events"] == 0

    def test_baseline_trace_also_valid(self):
        tracer, timeline, __ = traced_run(policy=BaselinePolicy)
        payload = perfetto_trace(tracer, timeline=timeline)
        assert check_trace_payload(payload) == []

    def test_write_round_trips_through_json(self, km_trace, tmp_path):
        tracer, timeline, __, __ = km_trace
        path = tmp_path / "trace.json"
        write_perfetto(str(path), perfetto_trace(tracer, timeline=timeline))
        loaded = json.loads(path.read_text())
        assert check_trace_payload(loaded) == []


class TestSchemaCheckers:
    def test_rejects_non_dict(self):
        assert check_trace_payload([]) != []

    def test_rejects_missing_trace_events(self):
        assert check_trace_payload({}) != []

    def test_rejects_bad_phase(self):
        payload = {"traceEvents": [
            {"ph": "Z", "pid": 1, "name": "x"}]}
        assert any("ph" in p for p in check_trace_payload(payload))

    def test_rejects_negative_duration(self):
        payload = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0,
             "dur": -5}]}
        assert check_trace_payload(payload) != []

    def test_rejects_missing_required_fields(self):
        payload = {"traceEvents": [{"ph": "X", "pid": 1, "name": "x"}]}
        assert check_trace_payload(payload) != []

    def test_problem_list_is_bounded(self):
        events = [{"ph": "Z", "pid": 1, "name": "x"}] * 100
        problems = check_trace_payload({"traceEvents": events})
        assert len(problems) <= 11  # capped + "... more" marker

    def test_timeline_checker_accepts_real_payload(self, km_trace):
        __, timeline, __, __ = km_trace
        assert check_timeline_payload(timeline.as_payload()) == []

    def test_timeline_checker_rejects_ragged_series(self, km_trace):
        __, timeline, __, __ = km_trace
        payload = json.loads(json.dumps(timeline.as_payload()))
        payload["sms"][0]["series"]["active_ctas"].append(0)
        assert check_timeline_payload(payload) != []

    def test_timeline_checker_rejects_wrong_schema(self, km_trace):
        __, timeline, __, __ = km_trace
        payload = timeline.as_payload()
        payload["schema"] = 999
        assert check_timeline_payload(payload) != []


class TestDroppedEvents:
    def test_saturated_tracer_reports_drops_in_trace(self):
        tracer = EventTracer(capacity=4, level="warp")
        for i in range(10):
            tracer.record(i, 0, EventKind.LAUNCH, i)
        payload = perfetto_trace(tracer)
        assert payload["otherData"]["dropped_events"] == 6
        assert check_trace_payload(payload) == []
