"""Command-line interface.

Usage examples::

    python -m repro list                         # the Table II suite
    python -m repro run KM --policy finereg      # one simulation
    python -m repro trace KM --perfetto out.json # traced run + export
    python -m repro compare KM LB --scale tiny   # all five policies
    python -m repro figure fig13_performance     # one figure + its claims
    python -m repro figure all --jobs 8          # the whole evaluation
    python -m repro cache info                   # persistent result cache
    python -m repro cache clear
    python -m repro overhead                     # V-F hardware budget
    python -m repro analyze --suite              # static kernel verifier
    python -m repro analyze --lint               # determinism lint
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.config import SCALES
from repro.core.overhead import finereg_overhead
from repro.experiments.cache import ResultCache, cache_enabled
from repro.experiments.common import main_config_results, plan_main_configs
from repro.experiments.report import format_table
from repro.experiments.run_all import CAMPAIGN, check_claims, run_campaign
from repro.experiments.runner import ExperimentRunner, POLICIES
from repro.workloads.suite import ALL_SPECS, get_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FineReg (MICRO 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the benchmark suite")
    list_cmd.set_defaults(func=cmd_list)

    run_cmd = sub.add_parser("run", help="simulate one benchmark")
    run_cmd.add_argument("app", help="Table II abbreviation, e.g. KM")
    run_cmd.add_argument("--policy", default="finereg",
                         choices=sorted(POLICIES))
    run_cmd.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    run_cmd.add_argument("--sanitize", action="store_true",
                         help="run under the invariant sanitizer "
                              "(implies a cold, uncached simulation)")
    run_cmd.set_defaults(func=cmd_run)

    cmp_cmd = sub.add_parser("compare",
                             help="all five policies on given benchmarks")
    cmp_cmd.add_argument("apps", nargs="+")
    cmp_cmd.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    cmp_cmd.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: all CPUs)")
    cmp_cmd.set_defaults(func=cmd_compare)

    fig_cmd = sub.add_parser(
        "figure", help="regenerate a paper figure and check its claims")
    fig_cmd.add_argument("figure", choices=list(CAMPAIGN) + ["all"])
    fig_cmd.add_argument("--scale", default="small", choices=sorted(SCALES))
    fig_cmd.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: all CPUs)")
    fig_cmd.set_defaults(func=cmd_figure)

    trace_cmd = sub.add_parser(
        "trace",
        help="traced simulation: Perfetto export + per-cycle timelines")
    trace_cmd.add_argument("app", help="Table II abbreviation, e.g. KM")
    trace_cmd.add_argument("--policy", default="finereg",
                           choices=sorted(POLICIES))
    trace_cmd.add_argument("--scale", default="tiny",
                           choices=sorted(SCALES))
    trace_cmd.add_argument("--perfetto", default=None, metavar="OUT",
                           help="write Chrome trace-event JSON here "
                                "(open in ui.perfetto.dev)")
    trace_cmd.add_argument("--timeline", default=None, metavar="OUT",
                           help="write the columnar per-cycle timeline "
                                "JSON here")
    trace_cmd.add_argument("--interval", type=int, default=1,
                           help="timeline sampling interval in cycles "
                                "(default 1)")
    trace_cmd.add_argument("--capacity", type=int, default=100_000,
                           help="event ring-buffer capacity "
                                "(oldest dropped beyond this)")
    trace_cmd.set_defaults(func=cmd_trace)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache_cmd.add_argument("action", choices=("info", "stats", "clear"))
    cache_cmd.add_argument("--json", action="store_true",
                           help="machine-readable stats on stdout")
    cache_cmd.set_defaults(func=cmd_cache)

    obs_cmd = sub.add_parser(
        "obs", help="inspect campaign observability logs")
    obs_cmd.add_argument("action", choices=("summarize", "tail", "perfetto"))
    obs_cmd.add_argument("log", nargs="?", default=None,
                         help="campaign JSONL event log "
                              "(run_all --obs-log / REPRO_OBS=1)")
    obs_cmd.add_argument("--out", default=None, metavar="PATH",
                         help="output path for the perfetto export")
    obs_cmd.add_argument("-n", "--last", type=int, default=20,
                         help="events to show for tail (default 20)")
    obs_cmd.add_argument("--strict", action="store_true",
                         help="exit non-zero on reconciliation problems")
    obs_cmd.add_argument("--json", action="store_true",
                         help="machine-readable output on stdout")
    obs_cmd.set_defaults(func=cmd_obs)

    ovh_cmd = sub.add_parser("overhead", help="FineReg SRAM budget (V-F)")
    ovh_cmd.set_defaults(func=cmd_overhead)

    ana_cmd = sub.add_parser(
        "analyze",
        help="static kernel verifier + determinism lint (pre-simulation)")
    ana_cmd.add_argument("apps", nargs="*",
                         help="Table II abbreviations to verify, e.g. KM LB")
    ana_cmd.add_argument("--suite", action="store_true",
                         help="verify every Table II workload")
    ana_cmd.add_argument("--figure", choices=list(CAMPAIGN) + ["all"],
                         default=None,
                         help="verify the kernels of a campaign plan")
    ana_cmd.add_argument("--lint", action="store_true",
                         help="determinism lint over src/repro + tools/")
    ana_cmd.add_argument("--lint-path", action="append", default=None,
                         metavar="PATH",
                         help="lint these files/dirs instead of the default "
                              "roots")
    ana_cmd.add_argument("--effects", action="store_true",
                         help="engine-equivalence effects audit of the "
                              "fast-path gates (docs/ANALYZE.md)")
    ana_cmd.add_argument("--self-test", action="store_true",
                         help="run the broken-kernel and seeded-fault "
                              "self-tests")
    ana_cmd.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    ana_cmd.add_argument("--strict", action="store_true",
                         help="warnings fail the gate too")
    ana_cmd.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")
    ana_cmd.set_defaults(func=cmd_analyze)

    val_cmd = sub.add_parser(
        "validate",
        help="replay the golden corpus + mutation self-test (sanitized)")
    val_cmd.add_argument("--record", action="store_true",
                         help="regenerate the golden files instead of "
                              "validating against them")
    val_cmd.add_argument("--only", choices=("goldens", "mutations"),
                         default=None,
                         help="run just one half of the harness")
    val_cmd.add_argument("--goldens-dir", default=None,
                         help="golden corpus directory "
                              "(default: tests/goldens/)")
    val_cmd.set_defaults(func=cmd_validate)

    return parser


# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in ALL_SPECS:
        rows.append([
            spec.abbrev,
            spec.name,
            spec.wtype.value,
            spec.threads_per_cta,
            spec.regs_per_thread,
            spec.shmem_per_cta // 1024,
            f"{spec.cta_overhead_bytes / 1024:.1f}",
        ])
    print(format_table(
        ["abbrev", "name", "type", "threads/CTA", "regs/thread",
         "shmem_kb", "overhead_kb"],
        rows, title="Benchmark suite (paper Table II)"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "sanitize", False):
        # A sanitized run must actually simulate: bypass both caches and
        # let simulate_request() attach the sanitizer from the env knob.
        import os
        os.environ["REPRO_SANITIZE"] = "1"
        os.environ["REPRO_CACHE"] = "off"
    runner = ExperimentRunner(scale=SCALES[args.scale])
    result = runner.run(args.app.upper(), args.policy)
    rows = [
        ["IPC", f"{result.ipc:.3f}"],
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["resident CTAs/SM", f"{result.avg_resident_ctas_per_sm:.2f}"],
        ["active CTAs/SM", f"{result.avg_active_ctas_per_sm:.2f}"],
        ["active threads/SM", f"{result.avg_active_threads_per_sm:.0f}"],
        ["CTA switches", result.cta_switch_events],
        ["DRAM traffic (KB)", f"{result.dram_traffic_bytes / 1024:.1f}"],
        ["L1 hit rate", f"{result.l1_hit_rate:.2f}"],
        ["L2 hit rate", f"{result.l2_hit_rate:.2f}"],
        ["completed CTAs", result.completed_ctas],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.app.upper()} under {args.policy} "
                             f"({args.scale})"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(scale=SCALES[args.scale])
    apps = tuple(app.upper() for app in args.apps)
    runner.run_many(plan_main_configs(runner, apps), jobs=args.jobs)
    headers = ["app", "baseline", "virtual_thread", "reg_dram",
               "vt_regmutex", "finereg"]
    rows = []
    for app in args.apps:
        results = main_config_results(runner, app.upper())
        base = results["baseline"].ipc
        rows.append([app.upper()]
                    + [results[c].ipc / base for c in headers[1:]])
    print(format_table(headers, rows,
                       title="Normalized IPC (baseline = 1.0)"))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(scale=SCALES[args.scale])
    modules = None if args.figure == "all" else [args.figure]
    results = run_campaign(runner, modules, jobs=args.jobs)
    for result in results:
        print(result.to_text())
        print()
    rows, ok = check_claims(results, args.scale, modules)
    print("\n".join(rows))
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    # Lazy import: the trace exporters are only needed here.
    from repro.obs.cli import run_trace
    return run_trace(args.app, policy=args.policy, scale_name=args.scale,
                     perfetto_out=args.perfetto,
                     timeline_out=args.timeline,
                     interval=args.interval, capacity=args.capacity)


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache.from_env()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.action == "stats":
        import json as _json
        stats = cache.stats()
        if args.json:
            print(_json.dumps(stats, indent=1, sort_keys=True))
            return 0
        rows = [
            ["directory", stats["root"]],
            ["state", "enabled" if stats["enabled"]
             else "disabled (REPRO_CACHE=off)"],
            ["entries", stats["entries"]],
            ["size (KB)", f"{stats['total_bytes'] / 1024:.1f}"],
        ]
        for version, count in stats["schema_versions"].items():
            rows.append([f"schema v{version}", count])
        print(format_table(["field", "value"], rows,
                           title="Persistent result cache — stats"))
        return 0
    entries = cache.entries()
    total = sum(path.stat().st_size for path in entries)
    state = "enabled" if cache_enabled() else "disabled (REPRO_CACHE=off)"
    rows = [
        ["directory", str(cache.root)],
        ["state", state],
        ["entries", len(entries)],
        ["size (KB)", f"{total / 1024:.1f}"],
    ]
    print(format_table(["field", "value"], rows,
                       title="Persistent result cache"))
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    # Lazy import: the observability readers are only needed here.
    from repro.obs.cli import run_obs
    return run_obs(args.action, log=args.log, out=args.out,
                   last=args.last, strict=args.strict, as_json=args.json)


def cmd_overhead(args: argparse.Namespace) -> int:
    overhead = finereg_overhead()
    rows = [
        ["CTA status monitor", f"{overhead.status_monitor_bytes:.0f} B"],
        ["bit-vector cache", f"{overhead.bitvector_cache_bytes} B"],
        ["PCRF pointer table", f"{overhead.pointer_table_bytes} B"],
        ["PCRF tags", f"{overhead.pcrf_tag_bytes:.0f} B"],
        ["CTA switching logic", f"{overhead.switch_logic_bytes} B"],
        ["total", f"{overhead.total_kb:.2f} KB"],
        ["SM area fraction", f"{overhead.sm_area_fraction:.2%}"],
    ]
    print(format_table(["structure", "cost"], rows,
                       title="FineReg hardware overhead (paper V-F)"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    # Lazy import: the static-analysis layer is only needed here.
    from repro.analyze.cli import run_analyze
    return run_analyze(
        apps=args.apps, suite=args.suite, figure=args.figure,
        lint=args.lint, effects=args.effects, self_test=args.self_test,
        lint_roots=args.lint_path, scale_name=args.scale,
        strict=args.strict, as_json=args.json)


def cmd_validate(args: argparse.Namespace) -> int:
    # Lazy import: the validation harness pulls in the golden/mutation
    # machinery, which the other subcommands never need.
    from repro.validate.cli import run_validate
    return run_validate(record=args.record, only=args.only,
                        goldens_dir=args.goldens_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
