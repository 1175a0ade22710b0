"""Tests for the full-campaign driver."""

import json

import pytest

from repro.config import TINY
from repro.experiments import fig03_cta_overhead
from repro.experiments.common import NOT_AT_TINY
from repro.experiments.run_all import (CAMPAIGN, main, run_campaign,
                                       write_report)
from repro.experiments.runner import ExperimentRunner
from repro.obs.events import load_log, summarize_events
from repro.obs.rollup import render_rollup, rollup_results
from repro.obs.session import ObsSession
from repro.obs.spans import reconcile_spans


class TestCampaignDefinition:
    def test_covers_every_paper_experiment(self):
        names = set(CAMPAIGN)
        for required in ("fig02_resources", "fig03_cta_overhead",
                         "fig04_case_study", "fig05_register_usage",
                         "table03_stall_time", "fig12_concurrent_ctas",
                         "fig13_performance", "fig14_rf_stalls",
                         "fig15_memory_traffic", "fig16_energy",
                         "fig17_rf_sensitivity", "fig18_sm_scaling",
                         "fig19_unified_memory"):
            assert required in names

    def test_includes_ablations(self):
        names = set(CAMPAIGN)
        assert "ablation_bitvector_cache" in names
        assert "ablation_switch_policy" in names

    def test_only_rejects_unknown_modules(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scale", "tiny", "--only", "fig03_cta_overhead,fig13",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unknown module(s) fig13" in capsys.readouterr().err
        assert not (tmp_path / "REPORT.md").exists()


class TestCampaignExecution:
    def test_subset_runs_and_reports(self, tiny_runner, tmp_path):
        results = run_campaign(tiny_runner, modules=["fig03_cta_overhead"])
        assert len(results) == 1
        assert results[0].experiment == "fig03"
        assert not any(key.startswith("_") for key in results[0].summary), \
            "host time stays out of the experiment summaries"
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny")
        text = report.read_text()
        assert "# FineReg reproduction" in text
        assert "fig03" in text

    def test_profiled_campaign_with_rollup_report(self, tmp_path):
        # A private runner: the session-wide one must not keep the session.
        runner = ExperimentRunner(scale=TINY)
        session = ObsSession()
        runner.attach_obs(session)
        results = run_campaign(runner, modules=["fig03_cta_overhead"])
        phases = {row["phase"] for row in
                  summarize_events(session.log.events)["phases"]}
        assert {"plan+prefetch", "render"} <= phases
        # Roll-up derives purely from the memoized SimResults (fig03 is
        # analytic, so simulate a pair of runs to have something to roll up).
        runner.run("KM", "finereg")
        runner.run("KM", "baseline")
        rollup = rollup_results(runner.memoized_results())
        assert rollup["groups"]
        assert all(g["runs"] > 0 for g in rollup["groups"])
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny",
                     rollup_text=render_rollup(rollup))
        text = report.read_text()
        assert "## Telemetry roll-up" in text
        assert "stall p50" in text
        # ... so the BENCH payload round-trips through JSON.
        session.close()
        payload = {"rollup": rollup,
                   "obs": summarize_events(session.log.events)}
        assert json.loads(json.dumps(payload)) == payload


class TestCampaignObservability:
    def test_observed_campaign_reports_phase_breakdown(self, tmp_path):
        """An obs-instrumented campaign produces reconciling spans and a
        REPORT.md phase-breakdown section read from the log's summary --
        while the campaign span is still open, as run_all writes it."""
        runner = ExperimentRunner(scale=TINY)
        session = ObsSession()
        runner.attach_obs(session)
        session.campaign_begin(total=0, jobs=2, label="run_all:tiny")
        results = run_campaign(runner, modules=["fig03_cta_overhead"])

        breakdown = summarize_events(session.log.events)["phases"]
        # Span start order, not span_close order: render closes after
        # its render:<name> children.
        assert [row["phase"] for row in breakdown] == \
            ["plan+prefetch", "cache-lookup", "render",
             "render:fig03_cta_overhead"]
        # render:fig03 nests under render, which nests under the campaign.
        parents = {row["phase"]: row["within"] for row in breakdown}
        assert parents["cache-lookup"] == "plan+prefetch"
        assert parents["render:fig03_cta_overhead"] == "render"
        assert parents["render"] == "run_all:tiny"

        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny", phase_breakdown=breakdown)
        text = report.read_text()
        assert "## Campaign phase breakdown" in text
        assert "render:fig03_cta_overhead" in text
        session.close()
        assert reconcile_spans(session.recorder.spans) == []

    def test_report_omits_breakdown_without_observability(self, tmp_path,
                                                          tiny_runner):
        results = run_campaign(tiny_runner, modules=["fig03_cta_overhead"])
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny")
        assert "## Campaign phase breakdown" not in report.read_text()


class TestCampaignLedger:
    def test_bench_obs_is_the_log_summary(self, tmp_path):
        """BENCH_campaign.json's obs block is summarize_events of the
        campaign's own event log: one ledger, one summary."""
        out = tmp_path / "out"
        log = tmp_path / "obs.jsonl"
        assert main(["--scale", "tiny", "--only", "fig03_cta_overhead",
                     "--out", str(out), "--obs-log", str(log)]) == 0
        bench = json.loads((out / "BENCH_campaign.json").read_text())
        summary = summarize_events(load_log(str(log)))
        assert bench["obs"] == summary
        assert summary["campaign"]["label"] == "run_all:tiny"
        assert [row["phase"] for row in summary["phases"]][-1] == "report"
        assert "## Campaign phase breakdown" in \
            (out / "REPORT.md").read_text()


def _claim_rows(report_text):
    """The rows of REPORT.md's "Shape claims" section."""
    section = report_text.split("## Shape claims", 1)[1]
    return section.split("```")[1].strip().splitlines()


class TestShapeClaims:
    """run_all checks every module's claims() after render: REPORT.md
    lists one row per claim, and a failed claim sets the exit status."""

    def _main(self, out, scale="tiny"):
        return main(["--scale", scale, "--only", "fig03_cta_overhead",
                     "--out", str(out), "--jobs", "1"])

    def test_holding_claims_pass(self, tmp_path, capsys):
        assert self._main(tmp_path) == 0
        rows = _claim_rows((tmp_path / "REPORT.md").read_text())
        assert len(rows) == 3
        assert all(row.startswith("PASS  fig03 ") for row in rows), rows
        assert 's["register_share"] >= 0.75' in rows[2]
        assert rows[2] in capsys.readouterr().out

    def test_failing_claim_fails_the_run(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setattr(fig03_cta_overhead, "claims",
                            lambda s: [('s["register_share"] > 2.0',
                                        s["register_share"] > 2.0)])
        assert self._main(tmp_path) == 1
        (row,) = _claim_rows((tmp_path / "REPORT.md").read_text())
        assert row.startswith("FAIL  fig03 ")
        assert row.endswith(' s["register_share"] > 2.0')
        assert row in capsys.readouterr().out

    def test_claim_not_made_at_tiny_gates_only_above_tiny(
            self, tmp_path, monkeypatch):
        text = 's["register_share"] > 2.0' + NOT_AT_TINY
        monkeypatch.setattr(fig03_cta_overhead, "claims",
                            lambda s: [(text, s["register_share"] > 2.0)])
        assert self._main(tmp_path / "tiny") == 0
        rows = _claim_rows((tmp_path / "tiny" / "REPORT.md").read_text())
        assert rows[0].startswith("FAIL") and rows[0].endswith(NOT_AT_TINY)
        assert self._main(tmp_path / "small", scale="small") == 1
