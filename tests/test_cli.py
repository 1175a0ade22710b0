"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import EXPERIMENT_MODULES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "KM"])
        assert args.policy == "finereg"
        assert args.scale == "tiny"

    def test_figure_choices_cover_the_evaluation(self):
        expected = {"fig02", "fig03", "fig04", "fig05", "table03", "fig12",
                    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
                    "fig19"}
        assert set(EXPERIMENT_MODULES) == expected

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "KM", "--policy", "magic"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "KM"])
        assert args.policy == "finereg"
        assert args.scale == "tiny"
        assert args.interval == 1
        assert args.capacity == 100_000
        assert args.perfetto is None
        assert args.timeline is None

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.record is False
        assert args.only is None
        assert args.goldens_dir is None

    def test_validate_rejects_unknown_half(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "--only", "everything"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Breadth-First Search" in out
        assert "SGEMM" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "PCRF tags" in out
        assert "KB" in out

    def test_run(self, capsys):
        assert main(["run", "km", "--policy", "baseline",
                     "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "completed CTAs" in out

    def test_compare(self, capsys):
        assert main(["compare", "nw", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "finereg" in out
        assert "NW" in out

    def test_figure_with_app_subset(self, capsys):
        assert main(["figure", "fig03", "--scale", "tiny",
                     "--apps", "KM,LB"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out

    def test_run_sanitized(self, capsys, monkeypatch):
        # monkeypatch snapshots these before cmd_run overwrites them.
        monkeypatch.setenv("REPRO_SANITIZE", "")
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert main(["run", "km", "--policy", "finereg",
                     "--scale", "tiny", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_trace_writes_artifacts(self, capsys, tmp_path):
        import json

        from repro.telemetry.schema import (
            check_timeline_payload,
            check_trace_payload,
        )

        trace_path = tmp_path / "nested" / "trace.json"
        timeline_path = tmp_path / "timeline.json"
        assert main(["trace", "km", "--policy", "finereg", "--scale",
                     "tiny", "--perfetto", str(trace_path),
                     "--timeline", str(timeline_path)]) == 0
        out = capsys.readouterr().out
        assert "stall fraction" in out
        assert "switch overhead" in out
        assert re.search(r"simulator speed\s+[\d,]+ insts/s", out), out
        assert "cycles/s" not in out
        assert check_trace_payload(
            json.loads(trace_path.read_text())) == []
        assert check_timeline_payload(
            json.loads(timeline_path.read_text())) == []

    def test_validate_missing_corpus_fails_fast(self, capsys, tmp_path):
        # No golden files in tmp_path: every case reports an error without
        # simulating, and the exit status flags the failure.
        assert main(["validate", "--only", "goldens",
                     "--goldens-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "--record" in out
        assert "validation FAILED" in out
