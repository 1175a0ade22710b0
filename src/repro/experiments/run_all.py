"""Full evaluation campaign: regenerate every table and figure in one pass.

Writes a markdown report (default ``results/REPORT.md``) with every
experiment's rendered table and summary, reusing one memoizing runner so
shared simulations (Figs 12/13/16) only run once.

Each module's ``plan()`` (its full request set) is collected up front and
prefetched over a process pool (``--jobs``, default ``os.cpu_count()``),
so the serial ``run()`` loop afterwards is pure memo/report work.

After render, every module's ``claims()`` -- the paper's shape claims
over its summary (EXPERIMENTS.md) -- is checked; the report lists one
PASS/FAIL row per claim, and the exit status is 1 when a claim made at
the run's scale fails.

Run::

    python -m repro.experiments.run_all [--scale small] [--out results]
                                        [--jobs N]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
from contextlib import nullcontext
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SCALES, TINY
from repro.experiments.common import NOT_AT_TINY
from repro.experiments.runner import ExperimentRunner
from repro.obs import OBS_LOG_ENV, ObsSession, obs_enabled
from repro.obs.events import summarize_events
from repro.obs.rollup import render_rollup, rollup_results

#: The campaign's experiment modules (``repro.experiments.<name>``) in
#: paper order: the one registry that ``run_all --only``, ``repro figure``
#: and ``repro analyze --figure`` select from.
CAMPAIGN = (
    "fig02_resources",
    "fig03_cta_overhead",
    "fig04_case_study",
    "fig05_register_usage",
    "table03_stall_time",
    "fig12_concurrent_ctas",
    "fig12_concurrent_kernels",
    "fig13_performance",
    "fig14_rf_stalls",
    "fig15_memory_traffic",
    "fig16_energy",
    "fig17_rf_sensitivity",
    "fig18_sm_scaling",
    "fig19_unified_memory",
    "ablation_bitvector_cache",
    "ablation_switch_policy",
    "ablation_pcrf_latency",
    "ext_adaptive_split",
)


def _selected(modules: Optional[Sequence[str]]
              ) -> List[Tuple[str, ModuleType]]:
    """``(name, module)`` of every selected campaign module, in paper
    order (``None`` selects them all)."""
    return [(name, importlib.import_module(f"repro.experiments.{name}"))
            for name in CAMPAIGN if modules is None or name in modules]


def campaign_plan(runner: ExperimentRunner,
                  modules: Optional[Sequence[str]] = None) -> List:
    """Every plannable request in the selected campaign, in module order.

    Duplicates across modules (Figs 12/13/16 share all their runs) are
    fine: ``run_many`` dedupes before dispatch.
    """
    requests = []
    for __, module in _selected(modules):
        plan = getattr(module, "plan", None)
        if plan is not None:
            requests.extend(plan(runner))
    return requests


def run_campaign(runner: ExperimentRunner,
                 modules: Optional[Sequence[str]] = None,
                 jobs: Optional[int] = None) -> List:
    """Run every experiment; returns the ExperimentResult list.

    With ``jobs != 1`` the combined module plans are prefetched over a
    process pool first; the per-module ``run()`` calls below then hit the
    runner's memo for everything except result-dependent follow-ups
    (e.g. Fig 18's resource-scaled baseline).

    When the runner carries an :class:`~repro.obs.ObsSession`
    (``runner.attach_obs``), the campaign's wall-clock phases are
    recorded as its spans.
    """
    obs = getattr(runner, "obs", None)

    def obs_phase(name: str):
        return obs.phase(name) if obs is not None else nullcontext()

    if jobs is None or jobs > 1:
        with obs_phase("plan+prefetch"):
            runner.run_many(campaign_plan(runner, modules), jobs=jobs)
    results = []
    with obs_phase("render"):
        for name, module in _selected(modules):
            with obs_phase(f"render:{name}"):
                results.append(module.run(runner))
    return results


def check_claims(results, scale_name: str,
                 modules: Optional[Sequence[str]] = None
                 ) -> Tuple[List[str], bool]:
    """Check the shape claims of ``run_campaign(runner, modules)``'s
    ``results``: one ``PASS``/``FAIL`` row per claim, and whether every
    claim made at ``scale_name`` holds.  A claim whose text ends with
    :data:`~repro.experiments.common.NOT_AT_TINY` is not made at tiny."""
    rows: List[str] = []
    ok = True
    for (__, module), result in zip(_selected(modules), results):
        claims = getattr(module, "claims", None)
        if claims is None:
            continue  # fig12ck reports occupancy with no paper claim
        for text, holds in claims(result.summary):
            ok = ok and (holds or (scale_name == TINY.name
                                   and text.endswith(NOT_AT_TINY)))
            rows.append(f"{'PASS' if holds else 'FAIL'}  "
                        f"{result.experiment:<22} {text}")
    return rows, ok


def write_report(results, path: Path, scale_name: str,
                 claim_rows: Sequence[str] = (),
                 rollup_text: Optional[str] = None,
                 phase_breakdown: Optional[Sequence[Dict]] = None) -> None:
    lines = [
        "# FineReg reproduction — full evaluation campaign",
        "",
        f"Scale preset: `{scale_name}`. One row per paper table/figure; "
        "see EXPERIMENTS.md for paper-vs-measured commentary.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.to_text())
        lines.append("```")
        lines.append("")
    if claim_rows:
        lines.append("## Shape claims")
        lines.append("")
        lines.append("Each experiment's claims about the paper's shapes "
                     "(EXPERIMENTS.md), checked on the summaries above; "
                     "a FAIL row fails the run unless the claim is not "
                     "made at this scale.")
        lines.append("")
        lines.append("```")
        lines.extend(claim_rows)
        lines.append("```")
        lines.append("")
    if rollup_text:
        lines.append("## Telemetry roll-up")
        lines.append("")
        lines.append("Stall attribution and CTA-switch overhead budgets "
                     "across every run of the campaign (docs/TELEMETRY.md).")
        lines.append("")
        lines.append("```")
        lines.append(rollup_text)
        lines.append("```")
        lines.append("")
    if phase_breakdown:
        lines.append("## Campaign phase breakdown")
        lines.append("")
        lines.append("Wall-clock spans of the orchestration tier "
                     "(docs/TELEMETRY.md, \"Orchestration observability\"); "
                     "child phases sum to at most their parent.")
        lines.append("")
        lines.append("```")
        for row in phase_breakdown:
            lines.append(f"{row['within']:>14} / {row['phase']:<24} "
                         f"{row['wall_s']:10.3f}s")
        lines.append("```")
        lines.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", default=None,
                        help="comma-separated module subset")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the campaign pool "
                             "(default: all CPUs; 1 = serial)")
    parser.add_argument("--progress", action="store_true",
                        help="live completed/total + ETA on stderr "
                             "(stall warnings land in the obs log)")
    parser.add_argument("--obs-log", default=None, metavar="PATH",
                        help="write the campaign JSONL event log here "
                             "(default with REPRO_OBS=1: <out>/obs.jsonl; "
                             "inspect with `repro obs`)")
    args = parser.parse_args(argv)

    runner = ExperimentRunner(scale=SCALES[args.scale])
    modules = args.only.split(",") if args.only else None
    unknown = sorted(set(modules or ()) - set(CAMPAIGN))
    if unknown:
        # A mistyped name would render nothing and pass every claim.
        parser.error(f"--only: unknown module(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(CAMPAIGN)}")

    # The observability session always runs in-memory (its event log feeds
    # the REPORT.md breakdown and BENCH_campaign.json); the JSONL file is
    # written only when asked for.
    log_path = args.obs_log
    if log_path is None and obs_enabled():
        log_path = os.environ.get(OBS_LOG_ENV) \
            or str(Path(args.out) / "obs.jsonl")
    session = ObsSession(log_path=log_path, progress=args.progress)
    runner.attach_obs(session)
    from repro.experiments.parallel import default_jobs
    planned = len(set(campaign_plan(runner, modules)))
    session.campaign_begin(
        total=planned,
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        label=f"run_all:{args.scale}")

    results = run_campaign(runner, modules, jobs=args.jobs)
    rows, claims_ok = check_claims(results, args.scale, modules)
    rollup = rollup_results(runner.memoized_results())
    report = Path(args.out) / "REPORT.md"
    with session.phase("report"):
        phases = summarize_events(session.log.events)["phases"]
        write_report(results, report, args.scale, claim_rows=rows,
                     rollup_text=render_rollup(rollup),
                     phase_breakdown=phases)
    session.close()
    bench = Path(args.out) / "BENCH_campaign.json"
    summary = summarize_events(session.log.events)
    payload = {"rollup": rollup, "obs": summary}
    bench.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {report} ({len(results)} experiments)")
    print(f"wrote {bench} (campaign wall "
          f"{summary['campaign']['wall_s']:.1f}s)")
    if log_path:
        rate = summary["cache"]["hit_rate"]
        rate_text = f"{rate:.1%}" if rate is not None else "n/a"
        print(f"wrote {log_path} (obs log; cache hit rate {rate_text})")
    for result in results:
        keys = list(result.summary)[:3]
        brief = ", ".join(f"{k}={result.summary[k]:.3g}" for k in keys)
        print(f"  {result.experiment:22} {brief}")
    print("\n".join(rows))
    return 0 if claims_ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
