"""Tests of the benchmark's own rules: ``python3 -m pytest bench/``."""

from __future__ import annotations

import cProfile
import pstats
import sys
import types
from pathlib import Path

import pytest

import layers
import measure
from compare import verdict
from tracing import Span, Tracer, self_times
from workload import ROOT, import_program


def repro_modules():
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        yield layers.module_of_file(str(path))
    yield "repro.sim._ckernel"


def test_every_module_maps_to_exactly_one_named_layer():
    assert set(layers.LAYER_RULES.values()) < set(layers.LAYERS)
    modules = list(repro_modules())
    assert len(modules) > 100
    for module in modules:
        assert layers.layer_of(module) in layers.LAYERS, module
        assert layers.layer_of(module) != layers.OTHER, module
    assert layers.layer_of("json.decoder") is None


@pytest.mark.parametrize("module,layer", [
    ("repro.sim.sm", "sim.engine"),
    ("repro.sim.scheduler", "sim.engine"),
    ("repro.sim.warp", "sim.engine"),
    ("repro.sim.cta", "sim.engine"),
    ("repro.sim.vectorized", "sim.engine"),
    ("repro.sim._ckernel", "sim.engine"),
    ("repro.sim.compiled", "sim.compiled"),
    ("repro.sim.gpu", "sim.gpu"),
    ("repro.memory.hierarchy", "memory"),
    ("repro.core.liveness", "core.liveness"),
    ("repro.core.pcrf", "core"),
    ("repro.experiments.fig13_performance", "experiments.figures"),
    ("repro.experiments.cache", "experiments.cache"),
    ("repro.workloads.traces", "workloads"),
])
def test_named_modules_land_in_their_layer(module, layer):
    assert layers.layer_of(module) == layer


def test_module_of_file_and_builtins():
    src = Path("/work/repro/src")
    assert layers.module_of_file("/work/repro/src/repro/sim/gpu.py",
                                 src) == "repro.sim.gpu"
    assert layers.module_of_file("/work/repro/src/repro/obs/__init__.py",
                                 src) == "repro.obs"
    assert layers.module_of_file("/work/repro/bench/run.py", src) is None
    assert layers.module_of_file("/usr/lib/python3/json/decoder.py") is None
    ckernel = ("~", 0, "<method 'resume' of 'repro.sim._ckernel.Core' "
                       "objects>")
    assert layers._own_layer(ckernel) == "sim.engine"
    assert layers._own_layer(("~", 0, "<built-in method builtins.len>")) \
        is None


def test_folded_profile_sums_to_profiled_total():
    import_program()
    from repro.config import TINY, default_config
    from repro.experiments.parallel import RunRequest, simulate_request
    profiler = cProfile.Profile()
    profiler.runcall(simulate_request, TINY, default_config(TINY),
                     RunRequest.make("KM", "finereg"))
    stats = pstats.Stats(profiler)
    folded = layers.fold(stats)
    assert set(folded) == set(layers.LAYERS)
    assert sum(folded.values()) == pytest.approx(stats.total_tt, rel=1e-9)
    assert folded["sim.engine"] > 0 and folded["policies"] > 0


class _FakeProfile:
    """Just enough of a profile for :class:`pstats.Stats`."""

    def __init__(self, stats):
        self.stats = stats

    def create_stats(self):
        pass


def test_fold_charges_callers_and_survives_recursion():
    repro_fn = (f"{layers.SRC}/repro/memory/hierarchy.py", 1, "_access")
    other_fn = (f"{layers.SRC}/repro/policies/finereg.py", 1, "fill")
    helper = ("/usr/lib/python3/copy.py", 1, "deepcopy")  # recursive
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        repro_fn: (1, 1, 1.0, 5.0, {}),
        other_fn: (1, 1, 0.5, 1.0, {}),
        helper: (4, 4, 2.0, 3.0, {repro_fn: (1, 1, 1.5, 2.5),
                                  other_fn: (1, 1, 0.5, 0.5),
                                  helper: (2, 2, 0.2, 0.2)}),
        builtin: (3, 3, 1.0, 1.0, {helper: (3, 3, 1.0, 1.0)}),
    }
    folded = layers.fold(pstats.Stats(_FakeProfile(stats)))
    assert sum(folded.values()) == pytest.approx(4.5)
    # deepcopy and the len it calls split 3:1 between memory and policies.
    assert folded["memory"] == pytest.approx(1.0 + 3.0 * 0.75)
    assert folded["policies"] == pytest.approx(0.5 + 3.0 * 0.25)
    assert folded[layers.OTHER] == 0.0


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(list(range(99)), 90) is None
    assert measure.percentile(list(range(100)), 90) == 89
    assert measure.percentile(list(range(19)), 50) is None
    assert measure.percentile(list(range(20)), 50) == 9
    assert measure.percentile([], 50) is None


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, median, q3 = measure.quartiles(values)
    assert (q1, median, q3) == (1.5, 3.0, 7.0)
    assert measure.spread(values) == pytest.approx(5.5 / 3.0)
    assert measure.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_local_probes_take_the_median_of_each_neighbourhood():
    probes = [2.0, 2.0, 9.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    # The lone 9 ms probe (an interrupt) moves no request's speed; the
    # step from 2 to 3 ms moves the requests after it.
    assert measure.local_probes(probes, reach=1) == \
        [2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    assert measure.local_probes([5.0], reach=2) == [5.0]


def test_host_probe_walks_one_ring_through_every_object():
    probe = measure.HostProbe(nodes=64, steps=10)
    node, seen = probe.start, set()
    while id(node) not in seen:
        seen.add(id(node))
        node = node.next
    assert node is probe.start and len(seen) == 64
    assert probe() > 0


def test_reference_speed_cancels_a_uniform_host_slowdown():
    ref = measure.REFERENCE_PROBE_MS
    assert measure.at_reference_speed(0.5, ref) == pytest.approx(0.5)
    assert measure.at_reference_speed(0.75, 1.5 * ref) == pytest.approx(0.5)


def _span(span_id, parent, start, end):
    span = Span(span_id, parent, f"s{span_id}", start)
    span.end = end
    return span


def test_self_time_subtracts_child_coverage_once():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 1.0, 3.0),
             _span(2, 0, 2.0, 5.0),   # overlaps span 1
             _span(3, 0, 7.0, 8.0),
             _span(4, 1, 1.5, 2.5)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_wraps_every_importer_and_restores(monkeypatch):
    home = types.ModuleType("repro.benchfake")
    user = types.ModuleType("repro.benchfake_user")

    def work(n):
        return sum(range(n))
    home.work = user.work = work
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install([("fake.work", "repro.benchfake", "work")])
    assert home.work is not work and user.work is home.work
    with tracer.span("root"):
        assert user.work(4) == 6
    tracer.uninstall()
    assert home.work is work and user.work is work
    root, call = tracer.spans
    assert (call.name, call.parent) == ("fake.work", root.span_id)
    assert self_times(tracer.spans)[root.span_id] == pytest.approx(2.0)


@pytest.mark.parametrize("base,head,better,expected", [
    ([1.0] * 5 + [1.01] * 5, [0.8] * 10, "lower", "improved"),
    ([1.0] * 5 + [1.01] * 5, [0.8] * 10, "higher", "regressed"),
    ([1.0] * 10, [1.05] * 10, "lower", "within-bound"),
    ([1.0] * 10, [1.2] * 10, "lower", "regressed"),
    ([1.0, 1.5, 1.0, 1.5, 1.0, 1.5], [1.2] * 6, "lower", "unresolved"),
    ([1.0, 1.5, 1.0, 1.5], [0.5, 0.6, 0.5, 0.6], "lower", "within-bound"),
    ([1.0] * 5, [0.8] * 5, "lower", "within-bound"),  # too few pairs
])
def test_verdict_rules(base, head, better, expected):
    assert verdict(base, head, 0.1, better)["verdict"] == expected
