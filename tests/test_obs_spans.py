"""Tests for the campaign span tracer (repro.obs.spans), the phase rows
the campaign summary derives from its spans, and the clock-confinement
lint rules that keep wall-clock reads out of the package."""

import re
from pathlib import Path

from repro.experiments.parallel import RunRequest
from repro.obs.events import summarize_events
from repro.obs.schema import SCHEMA_VERSION
from repro.obs.session import ObsSession
from repro.obs.spans import (RECONCILE_SLACK_S, Span, SpanRecorder,
                             reconcile_spans)


class FakeClock:
    """Injected monotonic clock the tests advance by hand."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


class TestSpanRecorder:
    def test_nested_spans_record_parent_links_and_durations(self):
        clock = FakeClock()
        rec = SpanRecorder(now=clock)
        with rec.span("outer", "campaign") as outer:
            clock.advance(1.0)
            with rec.span("inner") as inner:
                clock.advance(2.0)
            clock.advance(0.5)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration == 2.0
        assert outer.duration == 3.5
        assert outer.closed and inner.closed

    def test_start_does_not_push_but_scope_does(self):
        rec = SpanRecorder(now=FakeClock())
        top = rec.start("top", "campaign")
        assert rec.current_id() is None, "start() must not change nesting"
        with rec.scope(top):
            assert rec.current_id() == top.span_id
            child = rec.start("child")
            assert child.parent_id == top.span_id
        assert rec.current_id() is None

    def test_push_pop_for_block_free_lifetimes(self):
        rec = SpanRecorder(now=FakeClock())
        campaign = rec.start("campaign", "campaign")
        rec.push(campaign)
        assert rec.current_id() == campaign.span_id
        rec.pop(campaign)
        assert rec.current_id() is None
        # Popping a span that is not on top is a no-op, not an error.
        rec.pop(campaign)

    def test_finish_records_attrs(self):
        clock = FakeClock()
        rec = SpanRecorder(now=clock)
        span = rec.start("x")
        clock.advance(1.25)
        rec.finish(span, runs=3)
        assert span.attrs == {"runs": 3}
        assert span.as_dict()["attrs"] == {"runs": 3}

    def test_as_dict_round_trips_ids_and_duration(self):
        clock = FakeClock(10.0)
        rec = SpanRecorder(now=clock)
        with rec.span("a", "phase"):
            clock.advance(0.5)
        d = rec.as_dicts()[0]
        assert d["name"] == "a"
        assert d["kind"] == "phase"
        assert d["t_start"] == 10.0
        assert d["dur_s"] == 0.5

    def test_merge_remaps_ids_and_reparents_roots(self):
        worker_clock = FakeClock(100.0)
        worker = SpanRecorder(now=worker_clock)
        with worker.span("engine-run"):
            worker_clock.advance(2.0)
            with worker.span("serialize"):
                worker_clock.advance(0.25)

        parent = SpanRecorder(now=FakeClock())
        request = parent.start("req:KM/baseline", "request")
        # Consume ids so worker-local ids would collide without remapping.
        parent.start("decoy")
        merged = parent.merge(worker.as_dicts(), parent_id=request.span_id,
                              worker=42)
        assert len(merged) == 2
        engine, serialize = merged
        assert engine.parent_id == request.span_id, "root re-parents"
        assert serialize.parent_id == engine.span_id, "child link remapped"
        assert all(s.worker == 42 for s in merged)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids)), "merged ids must not collide"
        assert engine.duration == 2.25
        assert serialize.duration == 0.25


class TestReconcileSpans:
    def _tree(self):
        """campaign(4s) > request(3s) > two phases (1s + 1.5s)."""
        clock = FakeClock()
        rec = SpanRecorder(now=clock)
        with rec.span("campaign", "campaign") as campaign:
            with rec.span("req:KM/baseline", "request") as request:
                with rec.span("workload-build"):
                    clock.advance(1.0)
                with rec.span("engine-run"):
                    clock.advance(1.5)
                clock.advance(0.5)
            clock.advance(1.0)
        return rec, campaign, request

    def test_clean_tree_reconciles(self):
        rec, __, __ = self._tree()
        assert reconcile_spans(rec.spans) == []

    def test_unclosed_span_is_flagged(self):
        rec = SpanRecorder(now=FakeClock())
        rec.start("dangling")
        problems = reconcile_spans(rec.spans)
        assert any("never closed" in p for p in problems)

    def test_missing_parent_is_flagged(self):
        span = Span(0, parent_id=99, name="orphan", kind="phase",
                    t_start=0.0)
        span.t_end = 1.0
        problems = reconcile_spans([span])
        assert any("missing parent" in p for p in problems)

    def test_unknown_kind_is_flagged(self):
        span = Span(0, None, "weird", "banana", 0.0)
        span.t_end = 1.0
        assert any("unknown kind" in p for p in reconcile_spans([span]))

    def test_phase_children_exceeding_parent_is_flagged(self):
        rec, __, request = self._tree()
        # Stretch one worker phase past its parent request span.
        phase = next(s for s in rec.spans if s.name == "engine-run")
        phase.t_end = phase.t_start + request.duration + 1.0
        problems = reconcile_spans(rec.spans)
        assert any("sum to" in p and "req:KM/baseline" in p
                   for p in problems)

    def test_request_children_are_exempt_from_the_sum_rule(self):
        """Concurrent pool requests overlap: their durations may sum past
        the campaign wall clock without being an error."""
        clock = FakeClock()
        rec = SpanRecorder(now=clock)
        campaign = rec.start("campaign", "campaign")
        reqs = [rec.start(f"req:{i}", "request",
                          parent=campaign.span_id) for i in range(4)]
        clock.advance(1.0)
        for req in reqs:
            rec.finish(req)  # four concurrent 1s requests in a 1s campaign
        rec.finish(campaign)
        assert reconcile_spans(rec.spans) == []

    def test_slack_absorbs_float_jitter(self):
        clock = FakeClock()
        rec = SpanRecorder(now=clock)
        parent = rec.start("p", "campaign")
        child = rec.start("c", parent=parent.span_id)
        clock.advance(1.0)
        rec.finish(child)
        rec.finish(parent)
        # Nudge the child just inside the slack window.
        child.t_end += RECONCILE_SLACK_S / 2
        assert reconcile_spans(rec.spans) == []
        child.t_end += RECONCILE_SLACK_S
        assert reconcile_spans(rec.spans) != []


class TestPhaseRows:
    def test_rows_name_parent_and_skip_worker_phases(self):
        clock = FakeClock()
        session = ObsSession(now=clock)
        session.campaign_begin(total=1, label="campaign")
        with session.phase("plan"):
            clock.advance(1.0)
        with session.run_scope(RunRequest.make("KM", "baseline")):
            with session.phase("engine-run"):
                clock.advance(5.0)
        rows = summarize_events(session.log.events)["phases"]
        assert rows == [{"within": "campaign", "phase": "plan",
                         "wall_s": 1.0}], \
            "request-parented worker phases stay out of the breakdown"
        session.close()

    def test_unclosed_and_non_phase_spans_are_skipped(self):
        def event(ev, **fields):
            return {"v": SCHEMA_VERSION, "t": 0.0, "ev": ev, **fields}

        events = [
            event("span_open", span=0, name="open-phase", kind="phase"),
            event("span_open", span=1, name="req", kind="request"),
            event("span_close", span=1, name="req", kind="request",
                  t_start=0.0, dur_s=1.0),
        ]
        assert summarize_events(events)["phases"] == []


class TestClockConfinement:
    """The obs package reads wall clocks only through repro.obs.clock, and
    the determinism lint enforces that confinement."""

    def test_shipped_clock_module_is_lint_clean_but_tags_are_real(self):
        from repro.analyze.lint import lint_file, lint_source
        import repro.obs.clock as obs_clock

        path = Path(obs_clock.__file__)
        assert not lint_file(path), "shipped obs/clock.py must lint clean"
        stripped = re.sub(r"\s*# lint: allow\[wall-clock\][^\n]*", "",
                          path.read_text())
        findings = lint_source(stripped, path="clock_stripped.py")
        assert any(f.tag == "wall-clock" for f in findings), (
            "stripping the allow tags must expose the clock reads")

    def test_no_other_obs_module_reads_the_clock_directly(self):
        from repro.analyze.lint import lint_file
        import repro.obs as obs_pkg

        modules = sorted(Path(obs_pkg.__file__).parent.glob("*.py"))
        assert len(modules) > 1
        for module in modules:
            if module.name == "clock.py":
                continue
            findings = lint_file(module)
            clocky = [f for f in findings
                      if f.tag in ("wall-clock", "wall-clock-allowance")]
            assert not clocky, (
                f"{module.name} must route timing through repro.obs.clock: "
                f"{[f.message for f in clocky]}")

    def test_allowance_audit_rejects_suppressed_clocks_elsewhere(self):
        """An allow[wall-clock] tag outside the audited clock module is
        itself a lint error: ad-hoc exemptions must not accrete."""
        from repro.analyze.lint import lint_source

        src = ("import time\n"
               "def f():\n"
               "    return time.time()  # lint: allow[wall-clock]\n")
        findings = lint_source(src, path="src/repro/experiments/foo.py")
        assert [f.tag for f in findings] == ["wall-clock-allowance"]

    def test_allowance_audit_exempts_the_audited_modules(self):
        from repro.analyze.lint import lint_source

        src = ("import time\n"
               "def f():\n"
               "    return time.time()  # lint: allow[wall-clock]\n")
        assert lint_source(src, path="src/repro/obs/clock.py") == []
        # Everywhere else a tagged read is flagged, including a second
        # clock module inside the obs package and a script under tools/.
        for path in ("src/repro/obs/selfprof.py", "tools/calibrate.py"):
            findings = lint_source(src, path=path)
            assert [f.tag for f in findings] == ["wall-clock-allowance"], \
                path

    def test_untagged_clock_read_still_fails_as_wall_clock(self):
        from repro.analyze.lint import lint_source

        src = "import time\nx = time.time()\n"
        findings = lint_source(src, path="src/repro/experiments/foo.py")
        assert any(f.tag == "wall-clock" for f in findings)
