"""Implementation of ``python -m repro analyze``.

Modes (combinable; with no mode flags the suite, the lint *and* the
effects audit run):

* positional apps / ``--suite`` — static kernel verifier over Table-II
  workloads
* ``--figure NAME|all`` — verify the distinct kernels of a campaign plan
* ``--lint`` — determinism lint over ``src/repro`` + ``tools/`` (or
  ``--lint-path``)
* ``--effects`` — engine-equivalence effects audit of the fast-path gates
* ``--self-test`` — the broken-kernel verifier self-test plus the
  seeded-fault effects-audit self-test

Exit status is 0 only when no error-severity finding was produced (and,
under ``--strict``, no warning either), which is what the CI gate keys on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import SCALES, default_config
from repro.validate.findings import FindingReport
from repro.analyze.effects import audit_effects
from repro.analyze.effects_selftest import run_effects_self_test
from repro.analyze.lint import default_lint_paths, lint_paths
from repro.analyze.selftest import run_self_test
from repro.analyze.verifier import AnalysisReport, verify_requests, verify_suite


def _print_kernel_reports(reports: Sequence[AnalysisReport]) -> None:
    for report in reports:
        errors, warnings = len(report.errors), len(report.warnings)
        status = "FAIL" if errors else ("WARN" if warnings else "PASS")
        print(f"  {status} {report.source:12} "
              f"{errors} error(s), {warnings} warning(s)")
        for finding in report:
            print(f"       {finding.format()}")


def run_analyze(apps: Sequence[str] = (), suite: bool = False,
                figure: Optional[str] = None, lint: bool = False,
                effects: bool = False, self_test: bool = False,
                lint_roots: Optional[Sequence[str]] = None,
                scale_name: str = "tiny", strict: bool = False,
                as_json: bool = False) -> int:
    run_kernels = suite or bool(apps) or figure is not None
    if not (run_kernels or lint or effects or self_test):
        # bare `repro analyze` checks everything
        run_kernels = lint = effects = True
        suite = not apps

    combined = FindingReport()
    sections: List[Dict[str, object]] = []
    ok = True

    if run_kernels:
        scale = SCALES[scale_name]
        config = default_config(scale)
        reports: List[AnalysisReport] = []
        if figure is not None:
            from repro.experiments.run_all import campaign_plan
            from repro.experiments.runner import ExperimentRunner

            requests = campaign_plan(ExperimentRunner(scale=scale),
                                     None if figure == "all" else [figure])
            reports.extend(verify_requests(requests, config, scale))
        if suite or apps:
            reports.extend(verify_suite(
                config, scale, abbrevs=[a.upper() for a in apps] or None))
        if not as_json:
            print(f"static kernel verifier: {len(reports)} kernel(s) "
                  f"({scale.name} scale, Table-I limits)")
            _print_kernel_reports(reports)
        for report in reports:
            combined.extend(report.findings)
        sections.append({"kind": "verifier", "kernels": [
            {"source": r.source, "findings": r.to_dicts()} for r in reports]})

    if lint:
        roots = [Path(p) for p in lint_roots] if lint_roots else None
        lint_report = lint_paths(roots)
        if not as_json:
            where = ", ".join(str(p) for p in (roots or default_lint_paths()))
            print(f"determinism lint over {where}: "
                  f"{len(lint_report.errors)} error(s), "
                  f"{len(lint_report.warnings)} warning(s)")
            for finding in lint_report:
                print(f"  {finding.format()}")
        combined.extend(lint_report.findings)
        sections.append({"kind": "lint",
                         "findings": lint_report.to_dicts()})

    if effects:
        effects_report = audit_effects()
        if not as_json:
            infos = (len(effects_report) - len(effects_report.errors)
                     - len(effects_report.warnings))
            print(f"engine-equivalence effects audit: "
                  f"{len(effects_report.errors)} error(s), "
                  f"{len(effects_report.warnings)} warning(s), "
                  f"{infos} advisory")
            for finding in effects_report:
                print(f"  {finding.format()}")
        combined.extend(effects_report.findings)
        sections.append({"kind": "effects",
                         "findings": effects_report.to_dicts()})

    if self_test:
        self_reports = run_self_test()
        missed = [r for r in self_reports if not r.detected]
        if not as_json:
            print(f"verifier self-test: {len(self_reports)} broken kernels")
            for report in self_reports:
                status = "DETECTED" if report.detected else "MISSED  "
                print(f"  {status} {report.case.name} "
                      f"[{report.case.tag}] -- {report.case.description}")
                if not report.detected:
                    detail = report.error or \
                        f"reported tags: {', '.join(report.tags) or 'none'}"
                    print(f"           {detail}")
        ok = ok and not missed
        sections.append({"kind": "self-test", "cases": [
            {"name": r.case.name, "tag": r.case.tag,
             "detected": r.detected, "tags": list(r.tags)}
            for r in self_reports]})

        fault_reports = run_effects_self_test()
        missed_faults = [r for r in fault_reports if not r.detected]
        if not as_json:
            print(f"effects-audit self-test: {len(fault_reports)} "
                  f"seeded faults")
            for report in fault_reports:
                status = "DETECTED" if report.detected else "MISSED  "
                print(f"  {status} {report.case.name} "
                      f"[{report.case.tag}] -- {report.case.description}")
                if not report.detected:
                    detail = report.error or \
                        f"reported tags: {', '.join(report.tags) or 'none'}"
                    print(f"           {detail}")
        ok = ok and not missed_faults
        sections.append({"kind": "effects-self-test", "cases": [
            {"name": r.case.name, "tag": r.case.tag,
             "detected": r.detected, "tags": list(r.tags)}
            for r in fault_reports]})

    ok = ok and not combined.has_errors
    if strict:
        ok = ok and not combined.warnings
    if as_json:
        print(json.dumps({"ok": ok, "sections": sections}, indent=1,
                         sort_keys=True))
    else:
        print("analysis PASSED" if ok else "analysis FAILED")
    return 0 if ok else 1
