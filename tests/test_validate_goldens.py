"""Golden-trace regression tests: the corpus must replay exactly.

Trace generation is a pure function of the workload spec seed, so the
checked-in JSON under ``tests/goldens/`` pins both the full SimResult and
the complete CTA event timeline of each (config, workload, policy) triple.
Any drift here is a behaviour change -- review it, then regenerate with
``python -m repro validate --record``.
"""

import json

import pytest

from repro.validate.golden import (
    CORPUS,
    check_golden_payload,
    GoldenCase,
    case_payload,
    default_goldens_dir,
    diff_payload,
    record_goldens,
    run_case,
    validate_goldens,
)


def test_corpus_spans_the_policy_space():
    policies = {case.policy for case in CORPUS}
    assert {"baseline", "finereg", "finereg_adaptive", "virtual_thread",
            "reg_dram", "vt_regmutex"} <= policies
    assert len({case.name for case in CORPUS}) == len(CORPUS)


def test_corpus_pins_concurrent_kernels():
    """At least three concurrent cases, spanning both arbitration modes
    and a priority skew (the shared-budget surface of this PR)."""
    concurrent = [case for case in CORPUS if case.launches]
    assert len(concurrent) >= 3
    assert {case.arbitration for case in concurrent} \
        == {"priority", "round_robin"}
    assert any(len({prio for __, __, prio in case.launches}) > 1
               for case in concurrent), "no priority-skewed golden"
    for case in concurrent:
        assert len(case.launches) >= 2


def test_golden_files_are_checked_in():
    directory = default_goldens_dir()
    for case in CORPUS:
        assert (directory / case.filename).exists(), (
            f"missing golden {case.filename}; run "
            f"`python -m repro validate --record`")


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
def test_golden_replays_exactly(case):
    report = validate_goldens(cases=[case])[0]
    assert report.violations == 0, (
        f"{report.violations} sanitizer violation(s) replaying {case.name}")
    assert report.ok, (
        f"{case.name} drifted from its golden:\n"
        + "\n".join(report.diff) + (f"\n{report.error}" if report.error
                                    else ""))


class TestDiffing:
    def payload(self):
        return {
            "result": {"cycles": 100, "instructions": 500, "ipc": 1.25},
            "events": [{"cycle": 1, "sm": 0, "kind": "launch", "cta": 0},
                       {"cycle": 9, "sm": 0, "kind": "retire", "cta": 0}],
            "dropped_events": 0,
        }

    def test_identical_payloads_have_empty_diff(self):
        assert diff_payload(self.payload(), self.payload()) == []

    def test_result_field_drift_is_named(self):
        current = self.payload()
        current["result"]["cycles"] = 101
        lines = diff_payload(self.payload(), current)
        assert any("result.cycles: golden=100 current=101" in line
                   for line in lines)

    def test_first_diverging_event_is_shown(self):
        current = self.payload()
        current["events"][1] = dict(current["events"][1], cycle=12)
        lines = diff_payload(self.payload(), current)
        assert any(line.startswith("events[1]:") for line in lines)

    def test_event_count_drift_is_shown(self):
        current = self.payload()
        current["events"].append({"cycle": 20, "sm": 0, "kind": "launch",
                                  "cta": 1})
        lines = diff_payload(self.payload(), current)
        assert any("golden has 2" in line and "current has 3" in line
                   for line in lines)

    def test_dropped_event_drift_is_shown(self):
        current = self.payload()
        current["dropped_events"] = 7
        lines = diff_payload(self.payload(), current)
        assert any("dropped_events" in line for line in lines)

    def test_long_diffs_truncate(self):
        golden = {"result": {f"field_{i}": i for i in range(20)},
                  "events": [], "dropped_events": 0}
        current = {"result": {f"field_{i}": i + 1 for i in range(20)},
                   "events": [], "dropped_events": 0}
        lines = diff_payload(golden, current, limit=5)
        assert len(lines) == 6
        assert "more differing fields" in lines[-1]


class TestCorpusOperations:
    def test_missing_file_mentions_record(self, tmp_path):
        report = validate_goldens(tmp_path, cases=[CORPUS[0]])[0]
        assert not report.ok
        assert "--record" in report.error

    def test_record_round_trips(self, tmp_path):
        case = CORPUS[0]
        written = record_goldens(tmp_path, cases=[case])
        assert written == [tmp_path / case.filename]
        payload = json.loads(written[0].read_text())
        assert payload["name"] == case.name
        assert payload["events"], "golden must embed the event timeline"
        report = validate_goldens(tmp_path, cases=[case])[0]
        assert report.ok, "\n".join(report.diff)

    def test_payload_is_json_stable(self):
        case = GoldenCase("scratch-km-baseline", "KM", "baseline")
        result, gpu, sanitizer = run_case(case)
        assert sanitizer.total_violations == 0
        payload = case_payload(case, result, gpu)
        assert payload == json.loads(json.dumps(payload))
        assert payload["dropped_events"] == 0


class TestSchemaValidation:
    """Truncated or hand-edited goldens must fail with a named field, not a
    KeyError inside the diff machinery."""

    def golden(self):
        return json.loads(
            (default_goldens_dir() / CORPUS[0].filename).read_text())

    def test_checked_in_goldens_pass_the_schema(self):
        for case in CORPUS:
            payload = json.loads(
                (default_goldens_dir() / case.filename).read_text())
            assert check_golden_payload(payload) == [], case.name

    def test_non_object_payload(self):
        problems = check_golden_payload([1, 2, 3])
        assert problems and "JSON object" in problems[0]

    def test_missing_key_is_named(self):
        payload = self.golden()
        del payload["events"]
        problems = check_golden_payload(payload)
        assert any("missing required key 'events'" in p for p in problems)

    def test_mistyped_key_is_named(self):
        payload = self.golden()
        payload["result"] = "oops"
        problems = check_golden_payload(payload)
        assert any("'result' must be dict" in p for p in problems)

    def test_schema_version_drift(self):
        payload = self.golden()
        payload["schema"] = 99
        problems = check_golden_payload(payload)
        assert any("re-record" in p for p in problems)

    def test_undeserializable_result_block(self):
        payload = self.golden()
        payload["result"] = {"cycles": 10}
        problems = check_golden_payload(payload)
        assert any("result block does not deserialize" in p
                   for p in problems)

    def test_broken_event_is_located(self):
        payload = self.golden()
        payload["events"][1] = {"cycle": "late", "sm": 0, "kind": "x"}
        problems = check_golden_payload(payload)
        assert any("events[1]" in p and "cycle" in p for p in problems)

    def test_event_problem_flood_is_capped(self):
        payload = self.golden()
        payload["events"] = [{}] * 50
        problems = check_golden_payload(payload)
        assert problems[-1].startswith("...")
        assert len(problems) <= 6

    def test_truncated_file_fails_with_json_message(self, tmp_path):
        case = CORPUS[0]
        text = (default_goldens_dir() / case.filename).read_text()
        (tmp_path / case.filename).write_text(text[:len(text) // 2])
        report = validate_goldens(tmp_path, cases=[case])[0]
        assert not report.ok
        assert "not valid JSON" in report.error
        assert "--record" in report.error

    def test_hand_edited_file_fails_schema_not_keyerror(self, tmp_path):
        case = CORPUS[0]
        payload = self.golden()
        del payload["result"]
        (tmp_path / case.filename).write_text(json.dumps(payload))
        report = validate_goldens(tmp_path, cases=[case])[0]
        assert not report.ok
        assert "fails schema validation" in report.error
        assert "missing required key 'result'" in report.error

    def test_missing_launches_key_is_named(self):
        payload = self.golden()
        del payload["launches"]
        problems = check_golden_payload(payload)
        assert any("missing required key 'launches'" in p for p in problems)

    def test_malformed_launch_entry_is_located(self):
        payload = self.golden()
        for bad in ([1.0, "ST", 0],        # wrong field order/types
                    ["ST", 1.0],            # wrong arity
                    "ST",                   # not a list at all
                    ["ST", 1.0, 0.5]):      # float priority
            payload["launches"] = [["ST", 1.0, 0], bad]
            problems = check_golden_payload(payload)
            assert any("launches[1]" in p and
                       "[abbrev, weight, priority]" in p
                       for p in problems), bad

    def test_mistyped_arbitration_is_named(self):
        payload = self.golden()
        payload["arbitration"] = 7
        problems = check_golden_payload(payload)
        assert any("'arbitration' must be str" in p and "got int" in p
                   for p in problems)
