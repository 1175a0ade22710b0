"""`python -m repro analyze`: modes, exit codes, and output formats."""

import json

from repro.analyze.cli import run_analyze
from repro.cli import main


class TestExitCodes:
    def test_suite_is_green(self, capsys):
        assert run_analyze(suite=True) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_named_apps(self, capsys):
        assert run_analyze(apps=["km", "LB"]) == 0
        out = capsys.readouterr().out
        assert "KM" in out and "LB" in out

    def test_self_test_is_green(self, capsys):
        assert run_analyze(self_test=True) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out and "MISSED" not in out

    def test_lint_over_repo_is_green(self, capsys):
        assert run_analyze(lint=True) == 0

    def test_lint_error_fails(self, tmp_path, capsys):
        probe = tmp_path / "probe.py"
        probe.write_text("import random\nx = random.random()\n")
        assert run_analyze(lint=True, lint_roots=[str(probe)]) == 1
        assert "unseeded-random" in capsys.readouterr().out

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        probe = tmp_path / "probe.py"
        probe.write_text("_CACHE = {}\n\n"
                         "def put(k, v):\n"
                         "    _CACHE[k] = v\n")
        assert run_analyze(lint=True, lint_roots=[str(probe)]) == 0
        assert run_analyze(lint=True, lint_roots=[str(probe)],
                           strict=True) == 1
        capsys.readouterr()

    def test_bare_invocation_runs_suite_and_lint(self, capsys):
        assert run_analyze() == 0
        out = capsys.readouterr().out
        assert "static kernel verifier" in out
        assert "determinism lint" in out


class TestJsonOutput:
    def test_json_document_shape(self, capsys):
        assert run_analyze(self_test=True, as_json=True) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        kinds = {section["kind"] for section in payload["sections"]}
        assert kinds == {"self-test", "effects-self-test"}

    def test_json_reports_failures(self, tmp_path, capsys):
        probe = tmp_path / "probe.py"
        probe.write_text("from random import choice\n")
        assert run_analyze(lint=True, lint_roots=[str(probe)],
                           as_json=True) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        (section,) = payload["sections"]
        assert section["findings"][0]["tag"] == "unseeded-random"


class TestArgparseWiring:
    def test_main_dispatches_analyze(self, capsys):
        assert main(["analyze", "--self-test"]) == 0
        assert "DETECTED" in capsys.readouterr().out

    def test_main_analyze_suite_subset(self, capsys):
        assert main(["analyze", "km"]) == 0
        assert "KM" in capsys.readouterr().out

    def test_figure_mode_verifies_plan_kernels(self, capsys):
        assert run_analyze(figure="fig13_performance") == 0
        out = capsys.readouterr().out
        assert "static kernel verifier" in out and "FAIL" not in out

    def test_figure_all_verifies_the_whole_campaign_plan(self, monkeypatch,
                                                         capsys):
        from repro.analyze import cli as analyze_cli
        from repro.config import TINY
        from repro.experiments.run_all import campaign_plan
        from repro.experiments.runner import ExperimentRunner

        planned = []
        monkeypatch.setattr(
            analyze_cli, "verify_requests",
            lambda requests, config, scale: planned.extend(requests) or [])
        assert main(["analyze", "--figure", "all"]) == 0
        assert planned == campaign_plan(ExperimentRunner(scale=TINY))
