"""Tests for the campaign event log: schema validation, JSONL writing,
and the validation-first reader."""

import json

import pytest

from repro.obs.events import (EventLog, ObsLogError, events_of, load_log)
from repro.obs.schema import (EVENT_FIELDS, SCHEMA_VERSION,
                              check_obs_event, check_obs_log_text)

#: One valid payload per event type -- doubles as living documentation of
#: the schema and keeps this table in sync with EVENT_FIELDS.
VALID_EVENTS = {
    "campaign_start": {"label": "run_all:tiny", "total": 6, "jobs": 4},
    "campaign_end": {"completed": 6},
    "span_open": {"span": 0, "name": "campaign", "kind": "campaign",
                  "parent": None},
    "span_close": {"span": 0, "name": "campaign", "kind": "campaign",
                   "parent": None, "t_start": 1.0, "dur_s": 2.5},
    "cache_lookup": {"key": "abc123def456", "hit": True,
                     "latency_s": 0.001},
    "cache_store": {"key": "abc123def456", "bytes": 2048,
                    "latency_s": 0.002},
    "worker_start": {"worker": 4242},
    "worker_stop": {"worker": 4242, "runs": 3},
    "heartbeat": {"worker": 4242, "completed": 2},
    "stall": {"worker": -1, "idle_s": 7.5},
    "run_complete": {"index": 0, "abbrev": "KM", "policy": "baseline",
                     "dur_s": 0.25},
    "progress": {"completed": 2, "total": 6, "eta_s": 1.5},
}


def make_event(ev, **overrides):
    event = {"v": SCHEMA_VERSION, "t": 1.5, "ev": ev}
    event.update(VALID_EVENTS[ev])
    event.update(overrides)
    return event


class TestEventSchema:
    def test_every_event_type_has_a_valid_example(self):
        assert set(VALID_EVENTS) == set(EVENT_FIELDS)
        for ev in VALID_EVENTS:
            assert check_obs_event(make_event(ev)) == [], ev

    def test_non_dict_rejected(self):
        assert check_obs_event([1, 2]) != []
        assert check_obs_event("heartbeat") != []

    def test_wrong_schema_version_rejected(self):
        problems = check_obs_event(make_event("heartbeat", v=99))
        assert any("schema version" in p for p in problems)

    def test_missing_timestamp_rejected(self):
        event = make_event("heartbeat")
        del event["t"]
        assert any("'t'" in p for p in check_obs_event(event))

    def test_unknown_event_type_rejected(self):
        event = {"v": SCHEMA_VERSION, "t": 0.0, "ev": "frobnicate"}
        assert any("unknown event type" in p
                   for p in check_obs_event(event))

    def test_missing_required_field_rejected(self):
        event = make_event("run_complete")
        del event["policy"]
        problems = check_obs_event(event)
        assert any("missing required field 'policy'" in p
                   for p in problems)

    def test_mistyped_field_rejected(self):
        problems = check_obs_event(
            make_event("cache_store", bytes="lots"))
        assert any("'bytes' must be int" in p for p in problems)

    def test_bool_does_not_satisfy_int(self):
        """True is an int subclass in Python; the schema is stricter."""
        problems = check_obs_event(make_event("worker_start", worker=True))
        assert any("'worker' must be int" in p for p in problems)

    def test_int_does_not_satisfy_bool(self):
        problems = check_obs_event(make_event("cache_lookup", hit=1))
        assert any("'hit' must be bool" in p for p in problems)

    def test_optional_fields_checked_when_present(self):
        assert check_obs_event(make_event("progress", eta_s=None)) == []
        problems = check_obs_event(make_event("progress", eta_s="soon"))
        assert any("eta_s" in p for p in problems)

    def test_bad_span_kind_rejected(self):
        problems = check_obs_event(make_event("span_open", kind="banana"))
        assert any("'kind'" in p for p in problems)

    def test_log_text_names_broken_lines_and_caps_output(self):
        good = json.dumps(make_event("heartbeat"))
        text = "\n".join([good, "not json", good])
        problems = check_obs_log_text(text)
        assert len(problems) == 1
        assert problems[0].startswith("line 2:")
        # A pathologically broken log stays bounded.
        flood = "\n".join(["junk"] * 50)
        capped = check_obs_log_text(flood)
        assert capped[-1] == "... further problems suppressed"
        assert len(capped) <= 12


class TestEventLog:
    def test_in_memory_log_needs_no_file(self):
        log = EventLog(now=lambda: 3.25)
        event = log.emit("worker_start", worker=7)
        assert event == {"v": SCHEMA_VERSION, "t": 3.25,
                         "ev": "worker_start", "worker": 7}
        assert log.events == [event]
        log.close()

    def test_jsonl_file_is_written_flushed_and_valid(self, tmp_path):
        path = tmp_path / "deep" / "obs.jsonl"
        with EventLog(str(path), now=lambda: 1.0) as log:
            log.emit("campaign_start", label="t", total=1, jobs=1)
            # Flushed per event: readable before close (live tail).
            assert len(path.read_text().splitlines()) == 1
            log.emit("campaign_end", completed=1)
        events = load_log(str(path))
        assert [e["ev"] for e in events] == ["campaign_start",
                                             "campaign_end"]

    def test_emitted_stream_passes_the_schema(self):
        log = EventLog(now=lambda: 0.5)
        for ev in VALID_EVENTS:
            log.emit(ev, **VALID_EVENTS[ev])
        for event in log.events:
            assert check_obs_event(event) == [], event["ev"]


class TestLoadLog:
    def test_malformed_log_raises_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(make_event("heartbeat"))
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ObsLogError) as err:
            load_log(str(path))
        assert err.value.path == str(path)
        assert any(p.startswith("line 2:") for p in err.value.problems)

    def test_schema_violation_is_as_fatal_as_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_event("heartbeat", worker="w"))
                        + "\n")
        with pytest.raises(ObsLogError):
            load_log(str(path))

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text("\n" + json.dumps(make_event("heartbeat"))
                        + "\n\n")
        assert len(load_log(str(path))) == 1

    def test_events_of_filters_in_order(self):
        events = [make_event("heartbeat", completed=i) for i in range(3)]
        events.insert(1, make_event("stall"))
        beats = events_of(events, "heartbeat")
        assert [e["completed"] for e in beats] == [0, 1, 2]
        assert events_of(events, "campaign_end") == []
