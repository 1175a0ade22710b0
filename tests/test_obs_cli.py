"""Tests for the `repro obs` / `repro cache stats` surfaces."""

import json

import pytest

from repro.config import TINY
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunRequest
from repro.experiments.runner import ExperimentRunner
from repro.obs.cli import run_obs
from repro.obs.session import ObsSession


@pytest.fixture()
def campaign_log(tmp_path):
    """A real (tiny) campaign log: two requests, one pooled worker."""
    cache = ResultCache(root=tmp_path / "cache", enabled=True)
    runner = ExperimentRunner(scale=TINY, cache=cache)
    log = tmp_path / "obs.jsonl"
    session = ObsSession(log_path=str(log))
    runner.attach_obs(session)
    session.campaign_begin(total=2, jobs=2, label="cli-test")
    runner.run_many([RunRequest.make("KM", "baseline"),
                     RunRequest.make("KM", "finereg")], jobs=2)
    session.campaign_end()
    session.close()
    return log


class TestRunObs:
    def test_summarize_text_output(self, campaign_log, capsys):
        assert run_obs("summarize", log=str(campaign_log)) == 0
        out = capsys.readouterr().out
        assert "campaign: cli-test (2/2 runs" in out
        assert "hit rate" in out or "0 hits" in out
        assert "spans reconcile: ok" in out

    def test_summarize_json_output(self, campaign_log, capsys):
        assert run_obs("summarize", log=str(campaign_log),
                       as_json=True) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["completed"] == 2
        assert payload["reconcile"] == []

    def test_summarize_strict_fails_on_broken_spans(self, tmp_path,
                                                    capsys, campaign_log):
        # Point one closed span at a parent that never existed: the tree
        # stays schema-valid but no longer reconciles.
        lines = []
        for line in campaign_log.read_text().splitlines():
            event = json.loads(line)
            if event["ev"] == "span_close" \
                    and event.get("parent") is not None:
                event["parent"] = 9999
            lines.append(json.dumps(event, separators=(",", ":")))
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert run_obs("summarize", log=str(broken)) == 0
        assert run_obs("summarize", log=str(broken), strict=True) == 1

    def test_tail_prints_last_events(self, campaign_log, capsys):
        assert run_obs("tail", log=str(campaign_log), last=5) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert "campaign_end" in lines[-1]

    def test_tail_marks_invalid_lines(self, tmp_path, capsys):
        log = tmp_path / "partial.jsonl"
        log.write_text('{"v":1,"t":0.0,"ev":"worker_start","worker":1}\n'
                       '{"truncated mid-wri\n')
        assert run_obs("tail", log=str(log)) == 0
        out = capsys.readouterr().out
        assert "worker_start" in out
        assert "[invalid:" in out

    def test_perfetto_export_validates_and_writes(self, campaign_log,
                                                  tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert run_obs("perfetto", log=str(campaign_log),
                       out=str(out_path)) == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"], "trace must carry span events"
        from repro.telemetry.schema import check_trace_payload
        assert check_trace_payload(payload) == []
        assert "ui.perfetto.dev" in capsys.readouterr().out

    def test_perfetto_default_out_derives_from_log(self, campaign_log,
                                                   capsys):
        assert run_obs("perfetto", log=str(campaign_log)) == 0
        assert campaign_log.with_suffix(".perfetto.json").exists()

    def test_malformed_log_is_rejected_with_lines(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text("junk\n")
        assert run_obs("summarize", log=str(log)) == 1
        out = capsys.readouterr().out
        assert "invalid obs log" in out
        assert "line 1" in out

    def test_log_actions_require_a_log(self, campaign_log, capsys):
        assert run_obs("summarize") == 2
        assert run_obs("unknown-action", log=str(campaign_log)) == 2
        assert run_obs("summarize", log="does/not/exist.jsonl") == 1


class TestCacheStatsCli:
    def _seed_cache(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        cache = ResultCache(root=root, enabled=True)
        runner = ExperimentRunner(scale=TINY, cache=cache)
        runner.run("KM", "baseline")
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        return cache

    def test_stats_table_reports_entries_and_schema(self, tmp_path,
                                                    monkeypatch, capsys):
        from repro.cli import main
        self._seed_cache(tmp_path, monkeypatch)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "schema v" in out

    def test_stats_json_with_log_counters(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.cli import main
        cache = self._seed_cache(tmp_path, monkeypatch)
        # A warm lookup recorded through an obs log.
        log = tmp_path / "obs.jsonl"
        session = ObsSession(log_path=str(log))
        warm = ExperimentRunner(
            scale=TINY, cache=ResultCache(root=cache.root, enabled=True))
        warm.attach_obs(session)
        warm.run("KM", "baseline")
        session.close()
        assert main(["cache", "stats", "--log", str(log),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["counters_from"] == str(log)
        assert stats["total_bytes"] > 0
        assert list(stats["schema_versions"])

    def test_obs_subcommand_wires_through_main(self, campaign_log,
                                               capsys):
        from repro.cli import main
        assert main(["obs", "summarize", str(campaign_log)]) == 0
        assert "cli-test" in capsys.readouterr().out
