"""FineReg reproduction benchmark: request latency, simulated instructions
per second and set-up time on two workloads, with a traced per-layer
split.  See bench/README.md.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Builds ``repro.sim._ckernel`` from this checkout into ``bench/out/build``,
then runs each workload (both by default) in fresh processes, one at a
time.  Prints every metric as ``workload metric value unit``, writes
``bench/out/results.json`` (and a copy under ``bench/out/runs/``), and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the end-to-end metrics of ``BENCHMARK.json``, traced
runs its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import measure
from workload import EXT_DIR, OUT, ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
#: A workload's processes must all end within this many seconds.
WORKLOAD_LIMIT_S = 170.0
#: Settings that would make the measured program differ from the default.
SCRUBBED = ("REPRO_ENGINE", "REPRO_DENSE_STEP", "REPRO_SANITIZE", "REPRO_OBS",
            "REPRO_OBS_LOG", "REPRO_TELEMETRY_DIR", "REPRO_CACHE_DIR")
#: Units of the extra numbers an untraced run prints beside its metrics.
EXTRA_UNITS = {"request_samples": "count", "ops": "count",
               "failed_frac": "frac", "build.ext_compile_s": "s",
               "build.ext_ok": "count", "host.probe_ms_p50": "ms",
               "host.probe_ms_p90": "ms", "raw.setup_s": "s",
               "raw.request_p50_s": "s", "raw.request_p90_s": "s",
               "raw.sim_insts_per_s": "insn/s"}


class HarnessError(RuntimeError):
    """The benchmark could not produce a result."""


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_checkout() -> None:
    for path in ("src/repro/__init__.py", "src/repro/sim/_ckernel.c",
                 "setup.py"):
        if not (ROOT / path).is_file():
            raise HarnessError(f"{ROOT / path} is missing: run from a "
                               f"checkout of the repository")


def program_env() -> Dict[str, str]:
    """The default program, with the result cache off: every timed
    request simulates."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["REPRO_CACHE"] = "off"
    return env


def build_extension() -> Dict[str, float]:
    """Compile this checkout's C core out of tree; a failed build is kept
    as ``build.ext_ok = 0`` and ``auto`` then degrades as it would for a
    user without a toolchain."""
    shutil.rmtree(OUT / "build", ignore_errors=True)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--force",
         "--build-lib", str(OUT / "build"),
         "--build-temp", str(OUT / "build-temp")],
        cwd=ROOT, env=program_env(), capture_output=True, text=True,
        timeout=600)
    elapsed = time.perf_counter() - started
    ok = proc.returncode == 0 and any(EXT_DIR.glob("_ckernel*"))
    if not ok:
        print(proc.stdout + proc.stderr, file=sys.stderr)
    return {"build.ext_compile_s": elapsed, "build.ext_ok": int(ok)}


def child(workload: str, mode: str, seed: int, seconds: float,
          deadline: float) -> Dict:
    """Run one phase in a fresh process group; kill it at the deadline."""
    out = OUT / "work" / f"{workload}.{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:  # the child and anything it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise HarnessError(f"{workload} {mode}: over {WORKLOAD_LIMIT_S:.0f} s")
    if code != 0:
        raise HarnessError(f"{workload} {mode}: exit code {code}")
    return json.loads(out.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 build: Dict[str, float]) -> Dict:
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    if trace:
        got = child(name, "trace", seed, seconds, deadline)
        got["metrics"].update(build)
        if abs(got["reconcile"] - 1.0) > 0.05:
            got["correct"] = False
            got["reasons"]["trace"] = (f"span self times sum to "
                                       f"{got['reconcile']:.3f} of the wall")
        return got
    # Set-up samples bracket the measured process, so a slow spell of the
    # host at the start of a run cannot hold all three.  Their median is
    # scaled to the reference host speed by the probes the measured
    # process took between its requests, minutes apart at most.
    setups = [child(name, "setup", seed, seconds, deadline)["setup_s"]]
    got = child(name, "measure", seed, seconds, deadline)
    setups.append(got["extra"]["raw.setup_s"])
    setups.append(child(name, "setup", seed, seconds, deadline)["setup_s"])
    probes = got["extra"].pop("probes_ms")
    probe_p50 = measure.percentile(probes, 50)
    got["metrics"]["setup_s"] = measure.at_reference_speed(
        statistics.median(setups), probe_p50)
    got["extra"].update(build)
    got["extra"].update({
        "raw.setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "failed_frac": got["failed"] / got["attempted"],
        "host.probe_ms_p50": probe_p50,
        "host.probe_ms_p90": measure.percentile(probes, 90),
    })
    return got


def with_units(name: str, got: Dict, units: Dict[str, str]) -> Dict:
    missing = [m for m in units if got["metrics"].get(m) is None]
    if missing:
        raise HarnessError(f"{name}: no value for {', '.join(missing)}")
    return {m: {"value": got["metrics"][m], "unit": u}
            for m, u in units.items()}


def report(name: str, got: Dict) -> None:
    for row in got.get("table", ()):
        print(f"# {name} span {row[0]:<36} calls {row[1]:>7} "
              f"total {row[2]:9.4f} s self {row[3]:9.4f} s")
    if "reconcile" in got:
        print(f"# {name} span self times sum to {got['reconcile']:.4f} "
              f"of the traced wall")
    for metric, entry in got["metrics"].items():
        print(f"{name} {metric} {entry['value']} {entry['unit']}")
    for metric, value in got.get("extra", {}).items():
        if metric in EXTRA_UNITS:
            print(f"{name} {metric} {value} {EXTRA_UNITS[metric]}")
    for cell, why in got["reasons"].items():
        print(f"# {name} FAILED {cell}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: both)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed window per run, in whole rounds and "
                             "never fewer than a workload's minimum")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        units = declared("per_layer" if args.trace else "end_to_end")
        OUT.mkdir(exist_ok=True)
        build = build_extension()
        names = [args.workload] if args.workload else list(WORKLOADS)
        done: Dict[str, Dict] = {}
        for name in names:
            got = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), build)
            got["metrics"] = with_units(name, got, units)
            report(name, got)
            got.pop("table", None)
            done[name] = got
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": done}
    (OUT / "results.json").write_text(json.dumps(record, indent=1))
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    shutil.copy(OUT / "results.json",
                runs / f"{stamp}-{'-'.join(names)}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    single = len(done) == 1
    metrics = {(m if single else f"{w}:{m}"): entry
               for w, got in done.items()
               for m, entry in got["metrics"].items()}
    print(json.dumps({
        "correct": all(g["correct"] for g in done.values()),
        "attempted": sum(g["attempted"] for g in done.values()),
        "failed": sum(g["failed"] for g in done.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
