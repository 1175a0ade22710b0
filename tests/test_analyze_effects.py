"""Engine-equivalence effects audit: gates, deletions, seeded faults.

The acceptance contract of the auditor (docs/ANALYZE.md):

* the current tree passes ``--effects --strict`` clean;
* deleting *any* entry of ``_BYPASSED_SM_ATTRS`` or
  ``_INERT_POLICY_ATTRS`` produces the corresponding HIGH finding (the
  tuples are load-bearing, entry by entry);
* stale entries (naming nothing engine-reachable, or a method the
  compiled driver calls itself) are flagged so the gates cannot silently
  rot into allowlists of dead names;
* every seeded fault of the self-test is detected at its severity;
* the ``transcribes <PolicyClass>.<name>`` markers of the C core match
  the bodies the gate admits in both directions, and an SM method it
  marks ``transcribes StreamingMultiprocessor.<name>`` must be in
  ``_BYPASSED_SM_ATTRS`` even though the driver still calls it;
* the gate admits every shipped policy: the only checked surface one
  overrides (vt_regmutex's issue hook and idle attribution) is exactly
  the bodies the core transcribes, and every other hook is served.
"""

from dataclasses import replace

import pytest

from repro.analyze.effects import (
    audit_effects,
    default_effects_config,
)
from repro.analyze.effects_selftest import SEEDED_FAULTS, run_seeded_fault
from repro.analyze.lint import default_lint_paths, default_lint_root
from repro.policies.base import RegisterFilePolicy
from repro.policies.regmutex import RegMutexPolicy
from repro.sim.compiled import (
    _BYPASSED_SM_ATTRS,
    _CORE_POLICY_BODIES,
    _INERT_POLICY_ATTRS,
    instance_overrides,
)
from repro.validate.findings import Severity


def _tags_at(report, severity):
    return {f.tag for f in report.findings if f.severity == severity}


def _all_policy_subclasses():
    # Import every policy module so __subclasses__ sees the full family.
    import repro.policies.baseline  # noqa: F401
    import repro.policies.finereg  # noqa: F401
    import repro.policies.finereg_adaptive  # noqa: F401
    import repro.policies.reg_dram  # noqa: F401
    import repro.policies.regmutex  # noqa: F401
    import repro.policies.virtual_thread  # noqa: F401

    seen = []
    frontier = list(RegisterFilePolicy.__subclasses__())
    while frontier:
        cls = frontier.pop()
        if cls in seen:
            continue
        seen.append(cls)
        frontier.extend(cls.__subclasses__())
    return seen


class TestCleanTree:
    def test_audit_is_strict_clean(self):
        report = audit_effects()
        assert not report.errors, report.format("effects-audit errors")
        assert not report.warnings, report.format("effects-audit warnings")

    def test_advisories_only_name_known_tags(self):
        report = audit_effects()
        infos = _tags_at(report, Severity.INFO)
        # No compiled-gate-candidate: _BYPASSED_SM_ATTRS is exactly the
        # derived Python-engine-only SM surface, not wider.
        assert infos <= {"inert-gate-candidate", "inert-policy-passthrough"}


#: The event loop's per-SM entry points.  The compiled runner replaces
#: the loop wholesale, so it bypasses these; the rest of
#: ``_BYPASSED_SM_ATTRS`` is hooks the reference step calls on its own
#: SM, which the C core inlines.
_EVENT_LOOP_ENTRIES = ("accumulate", "next_event", "step")


def _audit_without_bypass_entry(entry):
    config = default_effects_config()
    return audit_effects(replace(config, bypassed_sm_attrs=tuple(
        name for name in config.bypassed_sm_attrs if name != entry)))


class TestGateDeletions:
    """Every single tuple entry must be provably load-bearing."""

    @pytest.mark.parametrize("entry", _BYPASSED_SM_ATTRS)
    def test_deleting_compiled_entry_is_high(self, entry):
        report = _audit_without_bypass_entry(entry)
        hits = [f for f in report.by_tag("compiled-gate-missing")
                if f.severity == Severity.ERROR and entry in f.message]
        assert hits, report.format(f"no HIGH for dropped {entry!r}")

    @pytest.mark.parametrize("entry", _EVENT_LOOP_ENTRIES)
    def test_deleting_bypass_entry_is_high(self, entry):
        # The finding must trace the entry to the event loop, not only
        # to the transcribed bodies' own calls.
        report = _audit_without_bypass_entry(entry)
        site = f"the event loop (GPU._run_event) dispatches SM.{entry} "
        hits = [f for f in report.by_tag("compiled-gate-missing")
                if f.severity == Severity.ERROR and site in f.message]
        assert hits, report.format(f"no event-loop HIGH for {entry!r}")

    @pytest.mark.parametrize("entry", _INERT_POLICY_ATTRS)
    def test_deleting_inert_entry_is_high(self, entry):
        config = default_effects_config()
        config = replace(config, inert_policy_attrs=tuple(
            name for name in config.inert_policy_attrs if name != entry))
        report = audit_effects(config)
        hits = [f for f in report.by_tag("inert-gate-missing")
                if f.severity == Severity.ERROR and entry in f.message]
        assert hits, report.format(f"no HIGH for dropped {entry!r}")


def _admitted_bodies():
    return ([("RegisterFilePolicy", name) for name in _INERT_POLICY_ATTRS]
            + [(owner.__name__, name) for owner, name in _CORE_POLICY_BODIES])


class TestCoreMarkers:
    """Each admitted body has its marker, and each marker an admission."""

    @pytest.mark.parametrize("body", _admitted_bodies(),
                             ids=lambda body: ".".join(body))
    def test_deleting_marker_is_high(self, body):
        config = default_effects_config()
        marker = "transcribes {}.{}".format(*body)
        assert marker in config.core_source
        report = audit_effects(replace(config, core_source=(
            config.core_source.replace(marker, "mirrors"))))
        hits = [f for f in report.by_tag("core-transcription-missing")
                if f.severity == Severity.ERROR
                and ".".join(body) in f.message]
        assert hits, report.format(f"no HIGH for the dropped {marker!r}")

    @pytest.mark.parametrize("body", [(owner.__name__, name) for owner, name
                                      in _CORE_POLICY_BODIES],
                             ids=lambda body: ".".join(body))
    def test_dropping_core_body_leaves_its_marker_unadmitted(self, body):
        config = default_effects_config()
        report = audit_effects(replace(config, core_policy_bodies=tuple(
            entry for entry in config.core_policy_bodies if entry != body)))
        hits = [f for f in report.by_tag("core-transcription-unadmitted")
                if f.severity == Severity.WARNING
                and ".".join(body) in f.message]
        assert hits, report.format(f"no MEDIUM for the unadmitted {body}")
        assert hits[0].line and hits[0].path.endswith("_ckernel.c")

    def test_core_body_outside_the_checked_surface_is_stale(self):
        config = default_effects_config()
        report = audit_effects(replace(config, core_policy_bodies=(
            config.core_policy_bodies
            + (("RegMutexPolicy", "on_cta_finished"),))))
        hits = [f for f in report.by_tag("inert-gate-stale")
                if "RegMutexPolicy.on_cta_finished" in f.message]
        assert hits, report.format("stale core body not reported")


class TestSmMarkers:
    """An SM method the core runs for some of its calls is gated like one
    it replaces, and a marker must name a method the engines dispatch."""

    def test_dropping_the_marker_leaves_the_entry_a_candidate(self):
        """The driver still calls ``_finish_warp`` for the EXIT ops, so
        only its marker derives the entry (deleting the entry is HIGH,
        ``TestGateDeletions``); without the marker the entry is wider than
        the derived gate."""
        config = default_effects_config()
        marker = "transcribes StreamingMultiprocessor._finish_warp"
        assert marker in config.core_source
        report = audit_effects(replace(config, core_source=(
            config.core_source.replace(marker, "mirrors"))))
        assert not report.errors and not report.warnings
        hits = [f for f in report.by_tag("compiled-gate-candidate")
                if "'_finish_warp'" in f.message]
        assert hits, report.format("no advisory for the unmarked entry")

    def test_marker_naming_no_dispatched_method_is_stale(self):
        config = default_effects_config()
        report = audit_effects(replace(config, core_source=(
            config.core_source
            + "\n/* transcribes StreamingMultiprocessor.retired_hook */\n")))
        hits = [f for f in report.by_tag("core-transcription-unadmitted")
                if f.severity == Severity.WARNING
                and "StreamingMultiprocessor.retired_hook" in f.message]
        assert hits, report.format("no MEDIUM for the stale SM marker")
        assert hits[0].line and hits[0].path.endswith("_ckernel.c")


class TestStaleEntries:
    """Entries naming nothing engine-reachable must be reported."""

    def test_bogus_compiled_entry_is_stale(self):
        config = default_effects_config()
        config = replace(config, bypassed_sm_attrs=(
            config.bypassed_sm_attrs + ("definitely_not_an_sm_method",)))
        report = audit_effects(config)
        hits = [f for f in report.by_tag("compiled-gate-stale")
                if "definitely_not_an_sm_method" in f.message]
        assert hits, report.format("stale compiled entry not reported")

    def test_bogus_bypass_entry_is_stale(self):
        # A real SM method that the compiled driver calls itself needs no
        # gate entry: listing it only refuses runs the C core could take.
        config = default_effects_config()
        config = replace(config, bypassed_sm_attrs=(
            config.bypassed_sm_attrs + ("flush_levels",)))
        report = audit_effects(config)
        hits = [f for f in report.by_tag("compiled-gate-candidate")
                if "'flush_levels'" in f.message]
        assert hits, report.format("stale bypass entry not reported")

    def test_bogus_inert_entry_is_stale(self):
        config = default_effects_config()
        config = replace(config, inert_policy_attrs=(
            config.inert_policy_attrs + ("definitely_not_a_policy_hook",)))
        report = audit_effects(config)
        hits = [f for f in report.by_tag("inert-gate-stale")
                if "definitely_not_a_policy_hook" in f.message]
        assert hits, report.format("stale inert entry not reported")


class TestSeededFaults:
    @pytest.mark.parametrize(
        "case", SEEDED_FAULTS, ids=[c.name for c in SEEDED_FAULTS])
    def test_fault_is_detected(self, case):
        result = run_seeded_fault(case)
        assert result.detected, (
            result.error
            or f"expected {case.tag!r}, got tags {result.tags}")


class TestPolicyFamily:
    """Runtime cross-check of the audit's gate derivation."""

    def test_only_regmutex_overrides_a_checked_attr(self):
        """RegMutex's overrides of the checked surface are exactly the
        bodies the C core transcribes; no other policy overrides it."""
        transcribed = {(owner, name) for owner, name in _CORE_POLICY_BODIES}
        for cls in _all_policy_subclasses():
            checked = {name for name in _INERT_POLICY_ATTRS
                       if getattr(cls, name)
                       is not getattr(RegisterFilePolicy, name)}
            if cls is RegMutexPolicy:
                # The SRP lease and the stateful SRP attribution.
                assert {(cls, name) for name in checked} == transcribed
                assert all(getattr(cls, name) is vars(cls)[name]
                           for name in checked)
                assert cls.needs_issue_hook
            else:
                assert not checked, (
                    f"{cls.__name__} overrides {sorted(checked)}, surface "
                    f"the compiled core runs itself")
                assert not cls.needs_issue_hook

    def test_audit_lists_the_admitted_policies(self):
        report = audit_effects()
        admitted = {f.message.split()[0]
                    for f in report.by_tag("inert-policy-passthrough")}
        assert admitted == {"BaselinePolicy", "VirtualThreadPolicy",
                            "FineRegPolicy", "AdaptiveFineRegPolicy",
                            "RegDRAMPolicy", "RegMutexPolicy"}

    def test_family_matches_audit_expectations(self):
        names = {cls.__name__ for cls in _all_policy_subclasses()}
        assert names == {"BaselinePolicy", "VirtualThreadPolicy",
                         "FineRegPolicy", "AdaptiveFineRegPolicy",
                         "RegDRAMPolicy", "RegMutexPolicy"}


class TestInstanceOverrides:
    def test_reports_shadowed_names_in_order(self):
        class Probe:
            def accumulate(self):
                return None

        probe = Probe()
        probe.accumulate = lambda: None
        probe.step = lambda: None
        assert instance_overrides(
            probe, ("step", "accumulate", "next_event")) == (
                "step", "accumulate")

    def test_clean_instance_is_empty(self):
        class Probe:
            pass

        assert instance_overrides(Probe(), ("step",)) == ()

    def test_slotted_object_without_dict_is_empty(self):
        class Slotted:
            __slots__ = ("step",)

        assert instance_overrides(Slotted(), ("step",)) == ()


class TestLintRoots:
    def test_default_paths_cover_src_and_tools(self):
        paths = default_lint_paths()
        assert paths[0] == default_lint_root()
        tools = default_lint_root().parents[1] / "tools"
        if tools.is_dir():
            assert tools in paths
