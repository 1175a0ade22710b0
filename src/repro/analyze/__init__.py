"""Static analysis layer: kernel verifier + determinism lint.

``repro.analyze`` gates every workload *before* it reaches the simulator,
and the simulator sources before they reach CI:

* :mod:`repro.analyze.passes` / :mod:`repro.analyze.verifier` — dataflow
  and graph passes over :mod:`repro.isa` kernels: CFG well-formedness,
  post-dominator reconvergence consistency, barrier-divergence legality,
  static register-pressure bounds (cross-checked against the declared
  regs/thread and the ACRF/PCRF split), and Table-I occupancy feasibility.
  :func:`~repro.workloads.generator.build_workload` runs the verifier at
  construction time, so a malformed synthetic kernel is rejected with a
  block/PC diagnostic instead of failing cycles into a run.
* :mod:`repro.analyze.lint` — an AST lint over ``src/repro`` and the
  ``tools/`` scripts for the nondeterminism hazards that would silently
  break the golden-trace corpus and the content-addressed result cache.
* :mod:`repro.analyze.effects` — the engine-equivalence effects audit:
  interprocedural effect summaries over the simulator source proving the
  compiled core's gates (``compiled_refusal``, ``_BYPASSED_SM_ATTRS``,
  ``_INERT_POLICY_ATTRS``) cover every bypassed hook, plus a determinism
  audit of the launch/arbiter layer.
* :mod:`repro.analyze.selftest` / :mod:`repro.analyze.effects_selftest` —
  deliberately broken kernels and seeded gate faults proving each
  verifier pass and each gate audit actually fires.

Division of labor with :mod:`repro.validate`: the verifier checks *static*
properties of kernels and code before cycle 0; the sanitizer checks
*dynamic* invariants of a live simulation.  They share the
:class:`~repro.validate.findings.Finding` vocabulary.

CLI: ``python -m repro analyze`` (see docs/ANALYZE.md).
"""

from repro.validate.findings import Finding, FindingReport, Severity  # noqa: F401
from repro.analyze.verifier import (  # noqa: F401
    AnalysisReport,
    KernelVerificationError,
    verify_cfg,
    verify_kernel,
    verify_requests,
    verify_spec,
    verify_suite,
)
from repro.analyze.effects import (  # noqa: F401
    EffectsConfig,
    audit_effects,
    default_effects_config,
)
from repro.analyze.effects_selftest import run_effects_self_test  # noqa: F401
from repro.analyze.lint import lint_paths, lint_source  # noqa: F401

__all__ = [
    "AnalysisReport",
    "EffectsConfig",
    "Finding",
    "FindingReport",
    "KernelVerificationError",
    "Severity",
    "audit_effects",
    "default_effects_config",
    "lint_paths",
    "lint_source",
    "run_effects_self_test",
    "verify_cfg",
    "verify_kernel",
    "verify_requests",
    "verify_spec",
    "verify_suite",
]
