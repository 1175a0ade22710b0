"""Effects-audit self-test: prove each gate audit detects what it claims.

Mirror of :mod:`repro.analyze.selftest`, one layer deeper: each
:class:`SeededFault` builds an :class:`~repro.analyze.effects.EffectsConfig`
with exactly one soundness hole injected — a phantom hook read on the
reference path, a gate entry dropped, an unordered iteration or a
degenerate sort key seeded into the dispatch arbiter, a policy hook the
C core would silently skip — without ever touching the tree (the faults
live in in-memory source overrides).  The harness asserts
``audit_effects`` reports a finding carrying that case's tag at the
expected severity; an auditor that passes the real tree but also passes
these is a gate that gates nothing.

Run via ``python -m repro analyze --self-test`` (alongside the kernel
verifier's broken-kernel suite) or the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.analyze.effects import (EffectsConfig, audit_effects,
                                   default_effects_config)
from repro.validate.findings import Severity

__all__ = ["SeededFault", "SEEDED_FAULTS", "EffectsSelfTestReport",
           "run_seeded_fault", "run_effects_self_test"]


@dataclass(frozen=True)
class SeededFault:
    """One injected soundness hole and the finding that must catch it."""

    name: str
    tag: str                    # finding tag the audit must report
    severity: Severity          # ... at at least this severity
    description: str
    build: Callable[[], EffectsConfig]


def _inject(config: EffectsConfig, key: str, anchor: str,
            replacement: str) -> EffectsConfig:
    """Replace ``anchor`` (first occurrence) in one module's source."""
    source = config.sources[key]
    if anchor not in source:
        raise AssertionError(
            f"self-test anchor not found in {key}: {anchor!r}")
    sources = dict(config.sources)
    sources[key] = source.replace(anchor, replacement, 1)
    return replace(config, sources=sources)


# ----------------------------------------------------------------------
# The ten injections
# ----------------------------------------------------------------------
def _phantom_issue_hook() -> EffectsConfig:
    """A new hook read in ``_try_issue`` that ``compiled_refusal`` never
    learned about — the exact shape of a silent compiled-core divergence
    (the C issue loop would never call the hook)."""
    anchor = "        wt = self._wt\n"
    phantom = ("        if self._phantom_profiler is not None:\n"
               "            self._phantom_profiler(warp, static_index, now)\n")
    return _inject(default_effects_config(), "sim.sm",
                   anchor, phantom + anchor)


def _dropped_bypass_entry() -> EffectsConfig:
    """``accumulate`` removed from ``_BYPASSED_SM_ATTRS``: an instance
    wrapper on ``SM.accumulate`` would run under the event loop but be
    silently skipped by the compiled runner, which replaces the loop's
    per-SM entry points wholesale."""
    config = default_effects_config()
    return replace(config, bypassed_sm_attrs=tuple(
        name for name in config.bypassed_sm_attrs if name != "accumulate"))


def _dropped_compiled_entry() -> EffectsConfig:
    """``_on_long_block`` removed from ``_BYPASSED_SM_ATTRS``: an instance
    wrapper on ``SM._on_long_block`` would run under the reference step,
    whose ``_try_issue`` calls it, but be silently ignored by the C core,
    which inlines the check."""
    config = default_effects_config()
    return replace(config, bypassed_sm_attrs=tuple(
        name for name in config.bypassed_sm_attrs
        if name != "_on_long_block"))


def _dropped_inert_entry() -> EffectsConfig:
    """``classify_idle`` removed from ``_INERT_POLICY_ATTRS``: a policy
    overriding it would pass ``policy_refusal`` while the C core keeps
    attributing idle cycles with the base body."""
    config = default_effects_config()
    return replace(config, inert_policy_attrs=tuple(
        name for name in config.inert_policy_attrs
        if name != "classify_idle"))


def _unordered_dispatch_iteration() -> EffectsConfig:
    """Arbiter dispatch order routed through a set: iteration order then
    depends on PYTHONHASHSEED, so co-launched grids race."""
    anchor = "        for launch in self._order:\n"
    broken = "        for launch in set(self._order):\n"
    return _inject(default_effects_config(), "sim.launch", anchor, broken)


def _phantom_policy_override() -> EffectsConfig:
    """A new policy hook called from ``SM._on_long_block`` (a site the C
    core inlines) and overridden by a subclass, without widening the gate:
    the compiled core would never call the override."""
    anchor = "            self._policy.on_cta_stalled(cta, now)\n"
    config = _inject(default_effects_config(), "sim.sm", anchor,
                     anchor + "            self._policy.on_phantom_stall("
                     "cta, now)\n")
    hook = ("    def on_phantom_stall(self, cta, now: int) -> None:\n"
            "        \"\"\"Seeded fault: engine-only hook.\"\"\"\n\n")
    anchor = "    def on_issue(self, warp, static_index: int, now: int) -> bool:\n"
    config = _inject(config, "policies.base", anchor, hook + anchor)
    override = (
        "\n\n"
        "class PhantomStallPolicy(RegisterFilePolicy):\n"
        "    \"\"\"Seeded fault: overrides only the phantom hook.\"\"\"\n"
        "\n"
        "    name = \"phantom_stall\"\n"
        "\n"
        "    def on_phantom_stall(self, cta, now):\n"
        "        self.rf_used_entries += 1\n")
    sources = dict(config.sources)
    sources["policies.base"] += override
    return replace(config, sources=sources)


def _phantom_core_transcription() -> EffectsConfig:
    """The C core starts running a base-policy body itself (here the
    telemetry levels) without the gate pinning it to the base: a policy
    overriding it would be silently ignored on the compiled core."""
    config = default_effects_config()
    return replace(config, core_source=(
        config.core_source
        + "\n/* transcribes RegisterFilePolicy.telemetry_levels */\n"))


def _dropped_core_marker() -> EffectsConfig:
    """The C core stops marking RegMutex's lease as transcribed while the
    gate still admits ``RegMutexPolicy.on_issue``: nothing ties the
    admitted body to the code the core runs in its place."""
    config = default_effects_config()
    marker = "transcribes RegMutexPolicy.on_issue"
    if marker not in config.core_source:
        raise AssertionError(f"self-test anchor not found in the core: "
                             f"{marker!r}")
    return replace(config, core_source=config.core_source.replace(
        marker, "runs RegMutexPolicy.on_issue"))


def _unadmitted_core_marker() -> EffectsConfig:
    """The C core claims a policy body the gate does not admit (RegDRAM's
    idle attribution): dead code, or a gate entry someone forgot."""
    config = default_effects_config()
    return replace(config, core_source=(
        config.core_source
        + "\n/* transcribes RegDRAMPolicy.classify_idle */\n"))


def _degenerate_tiebreak() -> EffectsConfig:
    """Arbiter sort key collapsed to priority only: equal-priority
    launches dispatch in an order the key no longer pins."""
    anchor = "            key=lambda l: (-l.priority, l.stream, l.index))\n"
    broken = "            key=lambda l: (-l.priority,))\n"
    return _inject(default_effects_config(), "sim.launch", anchor, broken)


SEEDED_FAULTS: Tuple[SeededFault, ...] = (
    SeededFault("phantom_issue_hook", "fast-gate-missing", Severity.ERROR,
                "hook read added to _try_issue without widening "
                "compiled_refusal", _phantom_issue_hook),
    SeededFault("dropped_bypass_entry", "compiled-gate-missing",
                Severity.ERROR,
                "accumulate removed from _BYPASSED_SM_ATTRS",
                _dropped_bypass_entry),
    SeededFault("dropped_compiled_entry", "compiled-gate-missing",
                Severity.ERROR,
                "_on_long_block removed from _BYPASSED_SM_ATTRS",
                _dropped_compiled_entry),
    SeededFault("dropped_inert_entry", "inert-gate-missing", Severity.ERROR,
                "classify_idle removed from _INERT_POLICY_ATTRS",
                _dropped_inert_entry),
    SeededFault("unordered_dispatch_iteration", "set-iteration",
                Severity.ERROR,
                "arbiter dispatch loop iterates a set",
                _unordered_dispatch_iteration),
    SeededFault("phantom_policy_override", "inert-gate-missing",
                Severity.ERROR,
                "policy hook called only where the C core inlines, "
                "overridden by a subclass, gate not widened",
                _phantom_policy_override),
    SeededFault("phantom_core_transcription", "inert-gate-missing",
                Severity.ERROR,
                "C core transcribes a base-policy body the gate does not "
                "pin", _phantom_core_transcription),
    SeededFault("dropped_core_marker", "core-transcription-missing",
                Severity.ERROR,
                "gate admits RegMutexPolicy.on_issue, C core lost its "
                "transcription marker", _dropped_core_marker),
    SeededFault("unadmitted_core_marker", "core-transcription-unadmitted",
                Severity.WARNING,
                "C core marks a policy body the gate does not admit",
                _unadmitted_core_marker),
    SeededFault("degenerate_tiebreak", "unstable-tiebreak",
                Severity.WARNING,
                "arbiter sort key loses its unique-id tie-break",
                _degenerate_tiebreak),
)

_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class EffectsSelfTestReport:
    """Did the audit catch one seeded fault with the right tag?"""

    case: SeededFault
    detected: bool
    tags: Tuple[str, ...] = ()
    error: Optional[str] = None


def run_seeded_fault(case: SeededFault) -> EffectsSelfTestReport:
    try:
        report = audit_effects(case.build())
    except Exception as exc:  # crash before diagnosis = not detected
        return EffectsSelfTestReport(case, detected=False,
                                     error=f"{type(exc).__name__}: {exc}")
    hits = report.by_tag(case.tag)
    detected = any(_RANK[f.severity] >= _RANK[case.severity] for f in hits)
    tags = tuple(sorted({f.tag for f in report.findings
                         if _RANK[f.severity] >= _RANK[Severity.WARNING]}))
    return EffectsSelfTestReport(case, detected=detected, tags=tags)


def run_effects_self_test() -> List[EffectsSelfTestReport]:
    return [run_seeded_fault(case) for case in SEEDED_FAULTS]
