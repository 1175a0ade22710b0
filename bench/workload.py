"""One benchmark workload in a fresh process: set up, measure, check.

``bench/run.py`` starts this file once per phase; it is not meant to be run
by hand::

    python3 bench/workload.py --workload NAME --seed N --seconds S \\
        --mode setup|measure|trace --out FILE

The result is a JSON object written to ``FILE``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import random
import resource
import statistics
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple

import layers
import measure
from tracing import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Where bench/run.py builds ``repro.sim._ckernel`` from this checkout.
EXT_DIR = OUT / "build" / "repro" / "sim"

#: Workload -> (apps, or None for all 18; policies, or None for all six).
WORKLOADS = {
    "policy-small": (("KM", "HS", "LB", "SR"), None),
    "baseline-small": (None, ("baseline",)),
}
#: Requests a run makes at least, so that p90 has ten samples beyond it.
MIN_REQUESTS = 100
#: Engines ``sim.backend.runs_*`` counts.  Per-engine times leave out
#: ``vectorized``, which runs only when the C core failed to build.
ENGINES = ("compiled", "vectorized", "fused", "reference")
TIMED_ENGINES = ("compiled", "fused", "reference")


class Sample(NamedTuple):
    """One timed request and the host probe taken just before it."""
    app: str
    policy: str
    seconds: float
    probe_ms: float
    result: object
    engine: str


def trace_seed(app: str, seed: int) -> int:
    """The dynamic-trace seed of one app for benchmark seed ``seed``."""
    return zlib.crc32(f"{app}:{seed}".encode()) & 0xFFFF


def import_program() -> None:
    """Import ``repro`` from this checkout with its own C core on the path."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    import repro.sim
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    if EXT_DIR.is_dir():
        repro.sim.__path__.append(str(EXT_DIR))
    import repro.sim.backend  # noqa: F401


def digest(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def sim_counts(results) -> Dict[str, int]:
    """Simulated counts of one op's results; exact for a given seed."""
    return {
        "sim.instructions": sum(r.instructions for r in results),
        "sim.cycles": sum(r.cycles for r in results),
        "memory.dram_bytes": sum(r.dram_traffic_bytes for r in results),
        "policies.cta_switch_events": sum(r.cta_switch_events
                                          for r in results),
        "core.pcrf_accesses": sum(r.pcrf_reads + r.pcrf_writes
                                  for r in results),
    }


class Serial:
    """A closed loop with one client making one ``simulate_request`` at a
    time.  One op = one round: every (app, policy) cell once, in seeded
    order."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self.engines: List[str] = []
        self.probe = measure.HostProbe()

    def imports(self) -> None:
        import_program()
        from repro.config import SMALL, default_config
        from repro.experiments import parallel, runner
        from repro.sim.gpu import GPU
        from repro.workloads import generator, suite, traces
        self.scale = SMALL
        self.base = default_config(SMALL)
        self.parallel, self.generator = parallel, generator
        self.suite, self.traces = suite, traces
        apps, policies = WORKLOADS[self.name]
        self.apps = apps or tuple(s.abbrev for s in suite.ALL_SPECS)
        self.policies = policies or tuple(runner.POLICIES)
        self.cells = [(a, p) for a in self.apps for p in self.policies]
        # Which engine ran each request: two attribute reads per request,
        # so it stays on in timed runs.
        run, engines = GPU.run, self.engines

        def recording_run(gpu, *args, **kwargs):
            result = run(gpu, *args, **kwargs)
            engines.append(gpu.engine_used)
            return result
        GPU.run = recording_run

    def prepare(self) -> None:
        """Build each app's workload and liveness, then one warm-up request
        per app so lazy trace generation is done before timing.

        A nonzero seed re-draws each app's dynamic traces (per-CTA trip
        counts, branch outcomes) and keeps the suite's static kernel:
        re-drawing the kernel's few load patterns moves an app's simulated
        cycles by up to 25%, which would hide the changes the benchmark
        exists to detect."""
        self.instances = {}
        for app in self.apps:
            instance = self.generator.build_workload(
                self.suite.get_spec(app), self.base, self.scale)
            if self.seed:
                instance.trace_provider = self.traces.TraceProvider(
                    instance.kernel.cfg, seed=trace_seed(app, self.seed),
                    trace_scale=self.scale.trace_scale)
            instance.liveness
            self.instances[app] = instance
        for app in self.apps:
            self.request(app, "baseline")

    def request(self, app: str, policy: str, engine=None):
        make = self.parallel.RunRequest.make
        return self.parallel.simulate_request(
            self.scale, self.base, make(app, policy, engine=engine),
            instance=self.instances[app])

    def min_ops(self) -> int:
        return -(-MIN_REQUESTS // len(self.cells))

    def op(self) -> List[Sample]:
        order = list(self.cells)
        self.rng.shuffle(order)
        samples = []
        clock = time.perf_counter
        for app, policy in order:
            probe_ms = self.probe()
            t0 = clock()
            result = self.request(app, policy)
            samples.append(Sample(app, policy, clock() - t0, probe_ms,
                                  result, self.engines[-1]))
        return samples

    def check(self, ops: List[List[Sample]], reference: bool) -> Dict:
        """Failed timed requests, and why.

        A cell fails when its runs disagree, time out or leave the grid
        unfinished, when its policy executes another instruction count
        than the app's other policies, or (with ``reference``) when the
        reference engine gives other result bytes than the engine that
        ``auto`` picked.
        """
        cells: Dict = {}
        for op in ops:
            for s in op:
                cells.setdefault((s.app, s.policy), []).append(s)
        bad: Dict = {}
        counts: Dict[str, set] = {}
        for (app, policy), runs in cells.items():
            result, engine = runs[0].result, runs[0].engine
            counts.setdefault(app, set()).add(result.instructions)
            grid = self.instances[app].kernel.geometry.grid_ctas
            text = digest(result)
            if any(digest(s.result) != text for s in runs[1:]):
                bad[(app, policy)] = "runs differ"
            elif result.timed_out or result.completed_ctas != grid:
                bad[(app, policy)] = "timed out or grid unfinished"
            elif reference and engine != "reference" and digest(
                    self.request(app, policy, "reference")) != text:
                bad[(app, policy)] = f"{engine} differs from reference"
        for app, seen in counts.items():
            if len(seen) > 1:
                for policy in self.policies:
                    bad.setdefault((app, policy), "instruction counts differ")
        return {"attempted": sum(len(r) for r in cells.values()),
                "failed": sum(len(cells[c]) for c in bad),
                "reasons": {f"{a}/{p}": why for (a, p), why in bad.items()}}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_setup(workload: Serial) -> float:
    """Seconds from a cold import until the first timed op can start."""
    started = time.perf_counter()
    workload.imports()
    workload.prepare()
    return time.perf_counter() - started


def run_measure(workload: Serial, seconds: float) -> Dict:
    """Set up, then whole ops until ``seconds`` have passed (and at least
    ``min_ops``); checks come after.

    Every request is timed beside a host probe and scaled to the
    reference host speed by the probes around it.  The set-up is scaled
    by bench/run.py, from this run's probes."""
    setup_s = run_setup(workload)
    ops: List[List[Sample]] = []
    started = time.perf_counter()
    while len(ops) < workload.min_ops() \
            or time.perf_counter() - started < seconds:
        ops.append(workload.op())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [s for op in ops for s in op]
    probes = [s.probe_ms for s in samples]
    raw = [s.seconds for s in samples]
    latencies = [measure.at_reference_speed(s.seconds, local)
                 for s, local in zip(samples, measure.local_probes(probes))]
    insts = sum(s.result.instructions for s in samples)
    checked = workload.check(ops, reference=True)
    return {
        "correct": checked["failed"] == 0, "attempted": checked["attempted"],
        "failed": checked["failed"], "reasons": checked["reasons"],
        "metrics": {
            "request_p50_s": measure.percentile(latencies, 50),
            "request_p90_s": measure.percentile(latencies, 90),
            "sim_insts_per_s": insts / sum(latencies),
            "peak_rss_mb": rss_mb,
        },
        "extra": {
            "request_samples": len(latencies), "ops": len(ops),
            "raw.setup_s": setup_s,
            "raw.request_p50_s": measure.percentile(raw, 50),
            "raw.request_p90_s": measure.percentile(raw, 90),
            "raw.sim_insts_per_s": insts / sum(raw),
            "probes_ms": probes,
        },
    }


def run_trace(workload: Serial) -> Dict:
    """Per-layer numbers: a traced set-up, then one op untraced, one op
    traced and one op under cProfile."""
    tracer = Tracer()
    workload.imports()
    tracer.install()
    with tracer.span("setup") as setup:
        workload.prepare()
    tracer.uninstall()
    started = time.perf_counter()
    plain = workload.op()
    plain_wall = time.perf_counter() - started
    tracer.install()
    with tracer.span("op") as root:
        traced = workload.op()
    tracer.uninstall()
    profiler = cProfile.Profile()
    profiled = profiler.runcall(workload.op)
    checked = workload.check([plain, traced, profiled], reference=False)
    stats = pstats.Stats(profiler)
    selfs = self_times(tracer.spans)
    wall = setup.duration + root.duration
    metrics = layer_metrics(tracer.spans, selfs)
    metrics.update(sim_counts([s.result for s in traced]))
    metrics.update({f"{layer}.self_s": seconds
                    for layer, seconds in layers.fold(stats).items()})
    metrics.update({
        "host.probe_ms_p50": statistics.median(
            s.probe_ms for s in plain + traced),
        "trace.overhead_frac": root.duration / plain_wall - 1.0,
        "trace.wall_s": wall,
        "profile.total_s": stats.total_tt,
    })
    table = span_table(tracer.spans, selfs)
    (OUT / f"{workload.name}.trace.json").write_text(json.dumps({
        "workload": workload.name, "wall_s": wall, "table": table,
        "spans": [s.as_dict() for s in tracer.spans]}))
    return {
        "correct": checked["failed"] == 0, "attempted": checked["attempted"],
        "failed": checked["failed"], "reasons": checked["reasons"],
        "metrics": metrics, "table": table,
        "reconcile": sum(selfs.values()) / wall,
    }


def span_table(spans: List[Span], selfs: Dict[int, float]) -> List:
    """[name, calls, total s, self s] per span name."""
    rows: Dict[str, List] = {}
    for span in spans:
        row = rows.setdefault(span.name, [span.name, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += span.duration
        row[3] += selfs[span.span_id]
    return sorted(rows.values(), key=lambda r: -r[3])


def layer_metrics(spans: List[Span],
                  selfs: Dict[int, float]) -> Dict[str, float]:
    """Per-layer metrics of the traced set-up and op."""
    by: Dict[str, List[Span]] = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum((s.duration for s in by.get(name, ())), 0.0)

    def calls(name: str) -> int:
        return len(by.get(name, ()))

    m: Dict[str, float] = {
        "workloads.build_s": total("workloads.build"),
        "workloads.build_calls": calls("workloads.build"),
        "workloads.trace_gen_self_s": sum(
            selfs[s.span_id] for s in by.get("workloads.trace_for", ())),
        "core.liveness_s": total("core.liveness"),
        "sim.gpu.construct_calls": calls("sim.gpu.construct"),
        "sim.gpu.construct_ms_p50": statistics.median(
            [s.duration * 1e3 for s in by.get("sim.gpu.construct", ())]
            or [0.0]),
        "sim.engine.run_s": total("sim.engine.run"),
    }
    runs = by.get("sim.engine.run", ())
    for engine in ENGINES:
        m[f"sim.backend.runs_{engine}"] = sum(
            1 for s in runs if s.attrs["engine"] == engine)
    m["sim.backend.compiled_frac"] = (
        m["sim.backend.runs_compiled"] / len(runs) if runs else 0.0)
    for engine in TIMED_ENGINES:
        mine = [s for s in runs if s.attrs["engine"] == engine]
        seconds = sum((s.duration for s in mine), 0.0)
        insts = sum(s.attrs["instructions"] for s in mine)
        m[f"sim.engine.run_s.{engine}"] = seconds
        m[f"sim.engine.host_ns_per_insn.{engine}"] = (
            seconds / insts * 1e9 if insts else 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = Serial(args.workload, args.seed)
    if args.mode == "setup":
        payload: Dict = {"setup_s": run_setup(workload)}
    elif args.mode == "measure":
        payload = run_measure(workload, args.seconds)
    else:
        payload = run_trace(workload)
    args.out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
