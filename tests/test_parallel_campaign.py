"""Parallel campaign engine: determinism, dedup, and request plumbing."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import TINY
from repro.experiments.parallel import (
    RunRequest,
    default_jobs,
    run_requests,
    simulate_request,
)
from repro.experiments.runner import ExperimentRunner

APPS = ("KM", "LB", "NW")
POLICIES = ("baseline", "virtual_thread", "finereg")


class TestRunRequest:
    def test_kwargs_sorted_and_hashable(self):
        a = RunRequest.make("KM", "vt_regmutex", srp_ratio=0.2, b=1)
        b = RunRequest.make("KM", "vt_regmutex", b=1, srp_ratio=0.2)
        assert a == b
        assert hash(a) == hash(b)
        assert a.kwargs == {"srp_ratio": 0.2, "b": 1}

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSerialParallelDeterminism:
    """The ISSUE's acceptance bar: a campaign run serially, in-process,
    must be bit-identical to the same campaign over the worker pool."""

    @pytest.fixture(scope="class")
    def requests(self):
        return [RunRequest.make(app, policy)
                for app in APPS for policy in POLICIES]

    def test_pool_matches_serial(self, requests):
        serial = ExperimentRunner(scale=TINY)
        parallel = ExperimentRunner(scale=TINY)
        expected = serial.run_many(requests, jobs=1)
        got = parallel.run_many(requests, jobs=2)
        assert got == expected

    def test_run_requests_matches_simulate_request(self, requests):
        runner = ExperimentRunner(scale=TINY)
        payloads = [(TINY, runner.base_config, r) for r in requests[:4]]
        pooled = run_requests(payloads, jobs=2)
        direct = [simulate_request(TINY, runner.base_config, r)
                  for r in requests[:4]]
        assert pooled == direct


class TestRunManyDedup:
    def test_duplicates_simulate_once(self, monkeypatch):
        runner = ExperimentRunner(scale=TINY)
        calls = []

        import repro.experiments.parallel as parallel_mod

        real = parallel_mod.run_requests

        def counting(payloads, jobs=None, obs=None):
            calls.extend(payloads)
            return real(payloads, jobs=1)

        monkeypatch.setattr(
            "repro.experiments.runner.run_requests", counting)
        request = RunRequest.make("KM", "baseline")
        results = runner.run_many([request, request, request], jobs=1)
        assert len(calls) == 1
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_memoized_requests_skip_the_pool(self, monkeypatch):
        runner = ExperimentRunner(scale=TINY)
        request = RunRequest.make("KM", "baseline")
        warm = runner.run_request(request)

        def exploding(payloads, jobs=None, obs=None):  # pragma: no cover - guard
            raise AssertionError("pool dispatched for a memoized request")

        monkeypatch.setattr(
            "repro.experiments.runner.run_requests", exploding)
        assert runner.run_many([request], jobs=4) == [warm]

    def test_results_in_input_order(self):
        runner = ExperimentRunner(scale=TINY)
        requests = [RunRequest.make(app, "baseline") for app in APPS]
        results = runner.run_many(requests, jobs=1)
        assert [r.workload for r in results] \
            == [runner.workload(app).kernel.name for app in APPS]

    def test_run_after_run_many_hits_memo(self, monkeypatch):
        runner = ExperimentRunner(scale=TINY)
        request = RunRequest.make("LB", "finereg")
        [prefetched] = runner.run_many([request], jobs=1)
        monkeypatch.setattr(
            "repro.experiments.runner.simulate_request",
            lambda *a, **k: pytest.fail("memo bypassed"))
        assert runner.run("LB", "finereg") is prefetched


class TestTelemetryRequests:
    def test_traced_request_writes_artifact_and_matches_untraced(
            self, tmp_path, monkeypatch):
        import json

        from repro.experiments.parallel import telemetry_artifact_path

        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        runner = ExperimentRunner(scale=TINY)
        plain = RunRequest.make("KM", "finereg")
        traced = RunRequest.make("KM", "finereg", telemetry=True)
        # Observation-only: the SimResult is unaffected by the flag.
        assert runner.run_request(traced) == runner.run_request(plain)
        path = telemetry_artifact_path(TINY, runner.base_config, traced)
        payload = json.loads(Path(path).read_text())
        assert payload["schema"] == 1
        assert payload["run"]["abbrev"] == "KM"
        assert payload["metrics"]["counters"]
        assert payload["events"]  # warp-level trace rides along
        assert payload["timeline"]["sms"]

    def test_telemetry_flag_makes_requests_distinct_in_memo(self):
        runner = ExperimentRunner(scale=TINY)
        plain = RunRequest.make("KM", "finereg")
        traced = RunRequest.make("KM", "finereg", telemetry=True)
        assert plain != traced
        assert runner._memo_key(plain, runner.base_config) \
            != runner._memo_key(traced, runner.base_config)


class TestFigurePlans:
    def test_plan_prefetch_reproduces_serial_figure(self):
        from repro.experiments import fig13_performance as fig13

        apps = ("KM", "LB")
        fresh = ExperimentRunner(scale=TINY)
        expected = fig13.run(fresh, apps=apps)

        prefetched = ExperimentRunner(scale=TINY)
        prefetched.run_many(fig13.plan(prefetched, apps=apps), jobs=2)
        got = fig13.run(prefetched, apps=apps)
        assert got.rows == expected.rows
        assert got.summary == expected.summary

    def test_every_campaign_module_has_a_wellformed_plan(self):
        import importlib
        import zlib

        from repro.experiments.common import NOT_AT_TINY
        from repro.experiments.run_all import CAMPAIGN, campaign_plan

        class Summary(dict):
            """Any key reads a fixed value in [0, 2), drawn by ``salt``:
            enough to evaluate every claim both as code and as its text."""

            def __init__(self, salt):
                super().__init__()
                self.salt = salt

            def __missing__(self, key):
                digest = zlib.crc32(f"{self.salt}:{key}".encode())
                return self.setdefault(key, digest % 2000 / 1000)

        runner = ExperimentRunner(scale=TINY)
        claim_count = 0
        for name in CAMPAIGN:
            module = importlib.import_module(f"repro.experiments.{name}")
            # Every module states the paper's shapes except fig12ck, a
            # concurrent-kernel companion with no paper figure.
            claims = getattr(module, "claims", None)
            assert (claims is None) == (name == "fig12_concurrent_kernels")
            if claims is not None:
                claim_count += len(claims(Summary(0)))
            for salt in range(20) if claims else ():
                summary = Summary(salt)
                for text, holds in claims(summary):
                    # A claim's text is its expression, so a report row
                    # says what was checked.
                    expression = text[:-len(NOT_AT_TINY)] \
                        if text.endswith(NOT_AT_TINY) else text
                    assert eval(expression, {"s": summary}) == holds, text
            plan = getattr(module, "plan", None)
            if plan is None:
                continue  # fig03 is analytic; fig18 documents its exception
            requests = plan(runner)
            assert requests, f"{name} plan is empty"
            assert all(isinstance(r, RunRequest) for r in requests)
        assert len(campaign_plan(runner)) > 100
        assert claim_count == 57
