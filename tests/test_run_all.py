"""Tests for the full-campaign driver."""

import json

from repro.config import TINY
from repro.experiments.run_all import CAMPAIGN, run_campaign, write_report
from repro.experiments.runner import ExperimentRunner
from repro.obs.session import ObsSession
from repro.obs.spans import phase_rows
from repro.telemetry.rollup import render_rollup, rollup_results


class TestCampaignDefinition:
    def test_covers_every_paper_experiment(self):
        names = {name for name, __ in CAMPAIGN}
        for required in ("fig02_resources", "fig03_cta_overhead",
                         "fig04_case_study", "fig05_register_usage",
                         "table03_stall_time", "fig12_concurrent_ctas",
                         "fig13_performance", "fig14_rf_stalls",
                         "fig15_memory_traffic", "fig16_energy",
                         "fig17_rf_sensitivity", "fig18_sm_scaling",
                         "fig19_unified_memory"):
            assert required in names

    def test_includes_ablations(self):
        names = {name for name, __ in CAMPAIGN}
        assert "ablation_bitvector_cache" in names
        assert "ablation_switch_policy" in names


class TestCampaignExecution:
    def test_subset_runs_and_reports(self, tiny_runner, tmp_path):
        results = run_campaign(tiny_runner, modules=["fig03_cta_overhead"])
        assert len(results) == 1
        assert results[0].experiment == "fig03"
        assert "_elapsed_s" in results[0].summary
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
        phases = {name for __, name, __ in
                  phase_rows(session.recorder.spans)}
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
        payload = {"rollup": rollup, "obs": session.summary()}
        assert json.loads(json.dumps(payload)) == payload


class TestCampaignObservability:
    def test_observed_campaign_reports_phase_breakdown(self, tmp_path):
        """An obs-instrumented campaign produces reconciling spans and a
        REPORT.md phase-breakdown section derived from them."""
        from repro.config import TINY
        from repro.experiments.runner import ExperimentRunner
        from repro.obs.session import ObsSession
        from repro.obs.spans import phase_rows, reconcile_spans

        runner = ExperimentRunner(scale=TINY)
        session = ObsSession()
        runner.attach_obs(session)
        session.campaign_begin(total=0, jobs=2, label="run_all:tiny")
        results = run_campaign(runner, modules=["fig03_cta_overhead"])
        session.campaign_end()

        assert reconcile_spans(session.recorder.spans) == []
        breakdown = phase_rows(session.recorder.spans)
        names = {name for __, name, __ in breakdown}
        assert {"plan+prefetch", "render", "render:fig03_cta_overhead"} \
            <= names
        # render:fig03 nests under render, which nests under the campaign.
        parents = {name: within for within, name, __ in breakdown}
        assert parents["render:fig03_cta_overhead"] == "render"
        assert parents["render"] == "run_all:tiny"

        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny", phase_breakdown=breakdown)
        text = report.read_text()
        assert "## Campaign phase breakdown" in text
        assert "render:fig03_cta_overhead" in text
        session.close()

    def test_report_omits_breakdown_without_observability(self, tmp_path,
                                                          tiny_runner):
        results = run_campaign(tiny_runner, modules=["fig03_cta_overhead"])
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny")
        assert "## Campaign phase breakdown" not in report.read_text()
