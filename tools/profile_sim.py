#!/usr/bin/env python
"""Profile one simulation end to end and record the timings.

Runs a single (app, policy) simulation at the chosen scale with the disk
cache bypassed, separates the per-stage costs (workload construction vs.
the simulation proper), repeats the simulation a few times for a stable
best-of wall clock, and takes one cProfile pass for the hot-function
table.  Results land in ``BENCH_sim.json`` (override with ``--out``),
including the speedup against the recorded pre-optimization reference.

A full run also sweeps a per-app x per-policy benchmark ``matrix`` (KM,
HS and LB under every registered policy at the chosen scale) so BENCH
captures throughput beyond the single headline workload, plus a
``backends`` section timing the default benchmark under every engine
backend (reference / fused / compiled, see
``repro.sim.backend``) so regressions are caught per backend rather than
only on the default.

``--backend`` pins the engine for the headline run and the matrix
(``auto`` defers to ``REPRO_ENGINE`` / auto resolution).  ``--quick``
skips the cProfile pass, the matrix and the backend sweep for CI smoke
use, and ``--check <committed BENCH>`` exits non-zero when
``sim_cycles_per_s`` regresses more than ``--check-slack`` (default 20%)
below the committed value — compared like-for-like against the committed
``backends`` entry for the selected backend when one is recorded.

Usage::

    PYTHONPATH=src python tools/profile_sim.py [--app KM] [--policy baseline]
        [--scale small] [--repeats 3] [--out BENCH_sim.json] [--top 15]
        [--backend auto|reference|fused|compiled]
        [--quick] [--check BENCH_sim.json]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SCALES, default_config  # noqa: E402
from repro.experiments.parallel import RunRequest, simulate_request  # noqa: E402
from repro.sim.backend import (ENGINE_NAMES, compiled_available,  # noqa: E402
                               select_backend)
from repro.workloads.generator import build_workload  # noqa: E402
from repro.workloads.suite import get_spec  # noqa: E402

#: Best-of-three wall clock of the default benchmark (small-scale KM under
#: the baseline policy) measured on the pre-optimization simulator, i.e.
#: the tree just before the scheduler sleep-cache landed.  The recorded
#: speedup is only meaningful for that default benchmark.
SEED_REFERENCE = {"app": "KM", "policy": "baseline", "scale": "small",
                  "wall_s": 0.657}


#: Matrix coverage: the three workloads whose goldens span the suite's
#: memory/compute mixes, under every registered policy.
MATRIX_APPS = ("KM", "HS", "LB")


def profile_run(app: str, policy: str, scale_name: str, repeats: int,
                top: int, profile: bool = True, engine=None) -> dict:
    scale = SCALES[scale_name]
    config = default_config(scale)
    request = RunRequest.make(app, policy, engine=engine)

    t0 = time.perf_counter()  # lint: allow[wall-clock] (host benchmark timing)
    instance = build_workload(get_spec(app), config, scale)
    build_s = time.perf_counter() - t0  # lint: allow[wall-clock] (host benchmark timing)

    walls = []
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()  # lint: allow[wall-clock] (host benchmark timing)
        result = simulate_request(scale, config, request, instance=instance)
        walls.append(time.perf_counter() - t0)  # lint: allow[wall-clock] (host benchmark timing)
    best = min(walls)

    hot = []
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
        simulate_request(scale, config, request, instance=instance)
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("tottime")
        for func, (cc, nc, tt, ct, __) in sorted(
                stats.stats.items(),
                key=lambda kv: kv[1][2], reverse=True)[:top]:
            filename, line, name = func
            hot.append({
                "function": f"{Path(filename).name}:{line}:{name}",
                "calls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            })

    report = {
        "app": app,
        "policy": policy,
        "scale": scale_name,
        # Resolved engine for the headline run (run-level eligibility can
        # still degrade compiled -> fused for instrumented runs; the
        # headline benchmark is uninstrumented, so this is what executed).
        "backend": select_backend(engine),
        "stages": {
            "workload_build_s": round(build_s, 4),
            "simulate_walls_s": [round(w, 4) for w in walls],
            "simulate_best_s": round(best, 4),
        },
        "cycles": result.cycles,
        "instructions": result.instructions,
        "sim_cycles_per_s": round(result.cycles / best),
        "hot_functions": hot,
        "seed_reference": SEED_REFERENCE,
    }
    if (app, policy, scale_name) == (SEED_REFERENCE["app"],
                                     SEED_REFERENCE["policy"],
                                     SEED_REFERENCE["scale"]):
        report["speedup_vs_seed"] = round(SEED_REFERENCE["wall_s"] / best, 2)
    return report


def bench_backends(app: str, policy: str, scale_name: str,
                   repeats: int) -> dict:
    """Best-of wall clock of the headline benchmark under every backend.

    Skips ``compiled`` (with a recorded reason) when the C extension is
    missing so the sweep still completes in a degraded environment.
    """
    scale = SCALES[scale_name]
    config = default_config(scale)
    instance = build_workload(get_spec(app), config, scale)
    backends: dict = {}
    for name in ("reference", "fused", "compiled"):
        if name == "compiled" and not compiled_available():
            backends[name] = {
                "skipped": "compiled extension (_ckernel) not importable"}
            continue
        request = RunRequest.make(app, policy, engine=name)
        result = None
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()  # lint: allow[wall-clock] (host benchmark timing)
            result = simulate_request(scale, config, request,
                                      instance=instance)
            wall = time.perf_counter() - t0  # lint: allow[wall-clock] (host benchmark timing)
            if best is None or wall < best:
                best = wall
        backends[name] = {
            "cycles": result.cycles,
            "best_s": round(best, 4),
            "sim_cycles_per_s": round(result.cycles / best),
        }
    return backends


def bench_matrix(scale_name: str, repeats: int, engine=None) -> dict:
    """Best-of wall clock for every (matrix app, policy) pair."""
    from repro.experiments.runner import POLICIES

    scale = SCALES[scale_name]
    config = default_config(scale)
    matrix: dict = {}
    for app in MATRIX_APPS:
        instance = build_workload(get_spec(app), config, scale)
        row: dict = {}
        for policy in sorted(POLICIES):
            request = RunRequest.make(app, policy, engine=engine)
            result = None
            best = None
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()  # lint: allow[wall-clock] (host benchmark timing)
                result = simulate_request(scale, config, request,
                                          instance=instance)
                wall = time.perf_counter() - t0  # lint: allow[wall-clock] (host benchmark timing)
                if best is None or wall < best:
                    best = wall
            row[policy] = {
                "cycles": result.cycles,
                "best_s": round(best, 4),
                "sim_cycles_per_s": round(result.cycles / best),
            }
        matrix[app] = row
    return matrix


def check_regression(report: dict, committed_path: Path,
                     slack: float) -> int:
    """Compare the headline throughput against a committed BENCH file.

    Returns 0 when within ``slack`` (fractional allowed drop), 1 on a
    regression or an incomparable baseline.
    """
    committed = json.loads(committed_path.read_text())
    key = ("app", "policy", "scale")
    if tuple(committed.get(k) for k in key) != tuple(report[k] for k in key):
        print(f"check: {committed_path} benchmarks "
              f"{[committed.get(k) for k in key]}, current run is "
              f"{[report[k] for k in key]}; incomparable")
        return 1
    # Like-for-like: when the committed BENCH records a per-backend entry
    # for the backend this run used, compare against that; the flat
    # headline belongs to whatever backend recorded the committed file.
    backend = report.get("backend")
    committed_entry = committed.get("backends", {}).get(backend, {})
    baseline = committed_entry.get("sim_cycles_per_s")
    label = f"committed[{backend}]"
    if baseline is None:
        baseline = committed["sim_cycles_per_s"]
        label = "committed headline"
    current = report["sim_cycles_per_s"]
    floor = baseline * (1.0 - slack)
    verdict = "OK" if current >= floor else "REGRESSION"
    print(f"check[{backend}]: {current:,} cycles/s vs {label} {baseline:,} "
          f"(floor {floor:,.0f}, slack {slack:.0%}): {verdict}")
    return 0 if current >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", default="KM")
    parser.add_argument("--policy", default="baseline")
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--top", type=int, default=15,
                        help="hot functions to record")
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument("--backend", default="auto", choices=ENGINE_NAMES,
                        help="engine backend for the headline run and the "
                             "matrix (auto defers to REPRO_ENGINE)")
    parser.add_argument("--quick", action="store_true",
                        help="skip the cProfile pass, the app x policy "
                             "matrix and the backend sweep (CI smoke mode)")
    parser.add_argument("--check", metavar="BENCH",
                        help="committed BENCH file to compare against; "
                             "exit 1 on a throughput regression")
    parser.add_argument("--check-slack", type=float, default=0.20,
                        help="allowed fractional drop before --check fails")
    parser.add_argument("--matrix-repeats", type=int, default=2)
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        metavar="PATH",
                        help="perf-trajectory history to append this run "
                             "to (inspect with `repro obs "
                             "perf-trajectory`)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the history append (CI check-only runs)")
    args = parser.parse_args(argv)

    engine = None if args.backend == "auto" else args.backend
    report = profile_run(args.app.upper(), args.policy, args.scale,
                         args.repeats, args.top, profile=not args.quick,
                         engine=engine)
    if not args.quick:
        report["backends"] = bench_backends(
            report["app"], args.policy, args.scale, args.repeats)
        report["matrix"] = bench_matrix(args.scale, args.matrix_repeats,
                                        engine=engine)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    if not args.no_history:
        # One line per (run, backend): the perf-trajectory input for
        # `repro obs perf-trajectory` (commit, backend, cycles/s) -- the
        # headline under its resolved backend plus each sweep cell under
        # its own, so series never mix engines.
        from repro.obs.trajectory import append_history, entries_from_bench
        entries = entries_from_bench(report)
        for entry in entries:
            append_history(args.history, entry)
        print(f"appended {len(entries)} entries to {args.history}")

    stages = report["stages"]
    print(f"{report['app']} / {report['policy']} / {report['scale']} "
          f"[{report['backend']}]: "
          f"build {stages['workload_build_s']:.3f}s, "
          f"simulate best {stages['simulate_best_s']:.3f}s "
          f"({report['sim_cycles_per_s']:,} cycles/s)")
    for name, cell in report.get("backends", {}).items():
        if "skipped" in cell:
            print(f"backend {name}: skipped ({cell['skipped']})")
        else:
            print(f"backend {name}: best {cell['best_s']:.4f}s "
                  f"({cell['sim_cycles_per_s']:,} cycles/s)")
    if "speedup_vs_seed" in report:
        print(f"speedup vs pre-optimization reference "
              f"({SEED_REFERENCE['wall_s']}s): "
              f"{report['speedup_vs_seed']:.2f}x")
    if "matrix" in report:
        for app, row in report["matrix"].items():
            cells = ", ".join(f"{p}={c['sim_cycles_per_s']:,}"
                              for p, c in row.items())
            print(f"matrix {app}: {cells}")
    print(f"wrote {args.out}")
    if args.check:
        return check_regression(report, Path(args.check), args.check_slack)
    return 0


if __name__ == "__main__":
    sys.exit(main())
