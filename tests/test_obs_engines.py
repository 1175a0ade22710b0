"""The engine mix of a campaign, read from its obs artifacts alone.

``simulate_request`` tags its ``engine-run`` phase span with the engine
that ran (``gpu.engine_used``) and why a faster one was refused
(``gpu.engine_refusal``), and a compiled run's span with the ops the
driver served by kind (``gpu.engine_ops``) and the host seconds inside
``Core.resume`` and serving each kind (``gpu.engine_op_s``);
``span_close`` events carry those attrs, and ``repro obs summarize`` rolls
them up into requests, engine-run wall, served ops and op walls per
(policy, engine, refusal), serial and pooled alike, with persistent cache
hits counted as engine ``cached``.  None of it enters a SimResult.
"""

import json

import pytest

from repro.config import TINY, default_config
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (TELEMETRY_DIR_ENV, RunRequest,
                                        run_requests)
from repro.experiments.runner import ExperimentRunner
from repro.obs.cli import format_summary, run_obs
from repro.obs.events import load_log, summarize_events
from repro.obs.schema import check_obs_event
from repro.obs.session import ObsSession
from repro.sim.backend import compiled_available

#: vt_regmutex on the C core, a telemetry request (refused: it needs the
#: per-cycle surface) and an explicit reference request (no refusal).
REQUESTS = [
    RunRequest.make("KM", "vt_regmutex", srp_ratio=0.2),
    RunRequest.make("LB", "baseline", telemetry=True),
    RunRequest.make("HS", "virtual_thread", engine="reference"),
]


def run_batch(tmp_path, jobs, observe=True):
    payloads = [(TINY, default_config(TINY), request)
                for request in REQUESTS]
    if not observe:
        return run_requests(payloads, jobs=jobs), None
    path = tmp_path / f"obs-{jobs}.jsonl"
    session = ObsSession(log_path=str(path))
    session.campaign_begin(total=len(payloads), jobs=jobs,
                           label=f"engines:{jobs}")
    results = run_requests(payloads, jobs=jobs, obs=session)
    session.campaign_end()
    session.close()
    return results, load_log(str(path))


def rows_by_policy(events):
    return {row["policy"]: row
            for row in summarize_events(events)["engines"]}


@pytest.fixture(autouse=True)
def telemetry_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path / "telemetry"))


@pytest.mark.parametrize("jobs", (1, 2))
def test_engine_mix_reads_from_the_event_log(tmp_path, jobs):
    results, events = run_batch(tmp_path, jobs)
    assert all(not check_obs_event(event) for event in events)
    rows = rows_by_policy(events)
    assert set(rows) == {"vt_regmutex", "baseline", "virtual_thread"}
    assert all(row["requests"] == 1 and row["wall_s"] > 0
               for row in rows.values())
    if compiled_available():
        assert (rows["vt_regmutex"]["engine"],
                rows["vt_regmutex"]["refusal"]) == ("compiled", None)
        assert rows["baseline"]["refusal"] == "telemetry"
        ops = rows["vt_regmutex"]["ops"]
        assert list(ops) == ["exit", "settle", "tick", "idle"]
        assert ops["exit"] > 0 and ops["tick"] > 0
    else:
        # auto found no C core, so it never asked the gate.
        assert rows["vt_regmutex"]["refusal"] == "extension-missing"
        assert rows["baseline"]["refusal"] == "extension-missing"
    assert (rows["virtual_thread"]["engine"],
            rows["virtual_thread"]["refusal"]) == ("reference", None)
    # Only compiled runs serve ops.
    assert rows["baseline"]["ops"] == rows["virtual_thread"]["ops"] == {}
    # Observation-only: the results are the unobserved run's bytes.
    plain, __ = run_batch(tmp_path, jobs, observe=False)
    assert [json.dumps(r.to_json()) for r in results] == \
        [json.dumps(r.to_json()) for r in plain]
    assert all("engine" not in r.to_json() for r in results)


def test_summarize_prints_the_engine_table(tmp_path, capsys):
    run_batch(tmp_path, 1)
    text = format_summary(
        summarize_events(load_log(str(tmp_path / "obs-1.jsonl"))))
    assert "engines (policy, engine, refusal" in text
    assert run_obs("summarize", str(tmp_path / "obs-1.jsonl"),
                   as_json=True) == 0
    engines = json.loads(capsys.readouterr().out)["engines"]
    assert [row["policy"] for row in engines] == \
        ["baseline", "virtual_thread", "vt_regmutex"]
    if compiled_available():
        ops = engines[2]["ops"]
        assert f"tick {ops['tick']}  idle {ops['idle']}" in text


def test_op_walls_read_from_the_event_log(tmp_path, capsys):
    """A compiled run's span carries ``resume_s`` and ``<kind>_s``;
    summarize sums them per row, within the row's engine-run wall, and
    ``--strict`` fails a row whose parts add up to more than that wall.
    (The observed and unobserved runs' result bytes are compared above,
    so these host seconds stay out of SimResult.)"""
    run_batch(tmp_path, 1)
    path = tmp_path / "obs-1.jsonl"
    rows = rows_by_policy(load_log(str(path)))
    if compiled_available():
        parts = rows["vt_regmutex"]["op_s"]
        assert list(parts) == ["resume", "exit", "settle", "tick", "idle"]
        assert parts["resume"] > 0 and parts["exit"] > 0
    assert rows["baseline"]["op_s"] == rows["virtual_thread"]["op_s"] == {}
    assert run_obs("summarize", str(path), strict=True) == 0
    text = capsys.readouterr().out
    assert "spans reconcile: ok" in text
    if compiled_available():
        assert f"resume {parts['resume']:.3f}s" in text

    # One engine-run span whose op walls exceed its own wall.
    lines = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event.get("name") == "engine-run" and event["ev"] == "span_close":
            event["attrs"]["idle_s"] = event["dur_s"] + 1.0
        lines.append(json.dumps(event))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert run_obs("summarize", str(bad)) == 0
    assert run_obs("summarize", str(bad), strict=True) == 1
    assert "op walls sum to" in capsys.readouterr().out


def test_cache_hits_count_as_cached(tmp_path):
    """A warm persistent cache answers the repeat campaign: its requests
    read ``cached`` and are not counted as simulated runs."""
    requests = [RunRequest.make("KM", "baseline"),
                RunRequest.make("KM", "vt_regmutex", srp_ratio=0.2)]
    cache_root = tmp_path / "cache"
    ExperimentRunner(scale=TINY, cache=ResultCache(
        root=cache_root, enabled=True)).run_many(requests, jobs=1)
    path = tmp_path / "warm.jsonl"
    session = ObsSession(log_path=str(path))
    runner = ExperimentRunner(scale=TINY, cache=ResultCache(
        root=cache_root, enabled=True), obs=session)
    session.campaign_begin(total=len(requests), jobs=1, label="warm")
    runner.run_many(requests, jobs=1)
    runner.run("KM", "baseline", config=runner.base_config.with_num_sms(2))
    session.campaign_end()
    session.close()
    summary = summarize_events(load_log(str(path)))
    cached = [(row["policy"], row["engine"], row["requests"])
              for row in summary["engines"] if row["engine"] == "cached"]
    assert cached == [("baseline", "cached", 1), ("vt_regmutex", "cached", 1)]
    assert summary["runs"]["completed"] == 1
