"""Result serialization, cache keys, and the persistent on-disk cache."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY, GPUConfig, default_config
from repro.experiments.cache import ResultCache, run_key
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suite import get_spec

# ----------------------------------------------------------------------
# SimResult JSON round-trip
# ----------------------------------------------------------------------
from repro.sim.stats import RESULT_SCHEMA_VERSION, SimResult

_counts = st.integers(min_value=0, max_value=10**12)
_fracs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                    allow_infinity=False)


@st.composite
def sim_results(draw):
    bounds = draw(st.one_of(
        st.none(),
        st.tuples(_fracs, _fracs, _fracs),
    ))
    return SimResult(
        policy=draw(st.sampled_from(["baseline", "finereg", "vt_regmutex"])),
        workload=draw(st.text(min_size=1, max_size=8)),
        cycles=draw(st.integers(min_value=1, max_value=10**9)),
        instructions=draw(_counts),
        num_sms=draw(st.integers(min_value=1, max_value=64)),
        avg_active_ctas_per_sm=draw(_floats),
        avg_pending_ctas_per_sm=draw(_floats),
        max_resident_ctas=draw(st.integers(min_value=0, max_value=512)),
        avg_active_threads_per_sm=draw(_floats),
        dram_traffic_bytes=draw(_counts),
        dram_traffic_by_class=draw(st.dictionaries(
            st.sampled_from(["demand_read", "demand_write", "reg_spill",
                             "reg_fill"]),
            _counts, max_size=4)),
        l1_hit_rate=draw(_fracs),
        l2_hit_rate=draw(_fracs),
        idle_cycles=draw(_counts),
        rf_depletion_cycles=draw(_counts),
        srp_stall_cycles=draw(_counts),
        cta_switch_events=draw(_counts),
        rf_reads=draw(_counts),
        rf_writes=draw(_counts),
        pcrf_reads=draw(_counts),
        pcrf_writes=draw(_counts),
        shmem_accesses=draw(_counts),
        l1_accesses=draw(_counts),
        l2_accesses=draw(_counts),
        mean_stall_latency=draw(st.one_of(st.none(), _floats)),
        window_usage_bounds=bounds,
        bitvector_hit_rate=draw(st.one_of(st.none(), _fracs)),
        completed_ctas=draw(st.integers(min_value=0, max_value=10**6)),
        timed_out=draw(st.booleans()),
    )


def make_result(**overrides) -> SimResult:
    """A fixed, fully-populated SimResult for non-property tests."""
    values = dict(
        policy="baseline", workload="KM", cycles=1000, instructions=1700,
        num_sms=2, avg_active_ctas_per_sm=3.5, avg_pending_ctas_per_sm=1.25,
        max_resident_ctas=9, avg_active_threads_per_sm=871.0,
        dram_traffic_bytes=4096,
        dram_traffic_by_class={"demand_read": 3072, "reg_spill": 1024},
        l1_hit_rate=0.75, l2_hit_rate=0.5, idle_cycles=120,
        rf_depletion_cycles=30, srp_stall_cycles=0, cta_switch_events=4,
        rf_reads=5000, rf_writes=1800, pcrf_reads=40, pcrf_writes=60,
        shmem_accesses=7, l1_accesses=900, l2_accesses=250,
        mean_stall_latency=81.5, window_usage_bounds=(0.2, 0.5, 0.9),
        bitvector_hit_rate=0.97, completed_ctas=24, timed_out=False,
    )
    values.update(overrides)
    return SimResult(**values)


class TestSimResultRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(result=sim_results())
    def test_exact_round_trip_through_json_text(self, result):
        # Through an actual JSON encode/decode, as the disk cache does.
        payload = json.loads(json.dumps(result.to_json()))
        assert SimResult.from_json(payload) == result

    def test_payload_is_tagged_with_schema(self):
        assert make_result().to_json()["_schema"] == RESULT_SCHEMA_VERSION

    @settings(max_examples=10, deadline=None)
    @given(result=sim_results())
    def test_schema_mismatch_rejected(self, result):
        payload = result.to_json()
        payload["_schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            SimResult.from_json(payload)

    def test_none_fields_survive(self):
        result = make_result(mean_stall_latency=None,
                             window_usage_bounds=None,
                             bitvector_hit_rate=None)
        back = SimResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back.mean_stall_latency is None
        assert back.window_usage_bounds is None
        assert back == result

    def test_bounds_restored_as_tuple(self):
        result = make_result(window_usage_bounds=(0.25, 0.5, 0.75))
        back = SimResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back.window_usage_bounds == (0.25, 0.5, 0.75)
        assert isinstance(back.window_usage_bounds, tuple)

    def test_per_kernel_attribution_round_trips(self):
        per_kernel = {
            "s0:st": {"instructions": 900, "cta_launches": 12,
                      "cta_switch_events": 3, "stall_events": 5,
                      "stall_cycles": 40, "active_cta_cycles": 2100.0,
                      "active_warp_cycles": 8400.0, "completed_ctas": 12,
                      "grid_ctas": 12, "avg_active_ctas_per_sm": 1.05,
                      "avg_active_warps_per_sm": 4.2},
            "s1:km": {"instructions": 800, "cta_launches": 12,
                      "cta_switch_events": 1, "stall_events": 2,
                      "stall_cycles": 10, "active_cta_cycles": 1900.0,
                      "active_warp_cycles": 7600.0, "completed_ctas": 12,
                      "grid_ctas": 12, "avg_active_ctas_per_sm": 0.95,
                      "avg_active_warps_per_sm": 3.8},
        }
        result = make_result(workload="st+km", per_kernel=per_kernel)
        back = SimResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back.per_kernel == per_kernel
        assert back == result

    def test_per_kernel_defaults_to_none(self):
        back = SimResult.from_json(
            json.loads(json.dumps(make_result().to_json())))
        assert back.per_kernel is None


# ----------------------------------------------------------------------
# Memo-key collision regression (PR-1 satellite)
# ----------------------------------------------------------------------
class TestConfigKeyCoversEveryField:
    """The old memo key hashed a hand-picked field subset; configs differing
    only in the omitted knobs (warp scheduling, switch threshold,
    latencies) aliased to one cached result."""

    @pytest.mark.parametrize("change", [
        {"warp_scheduling": "lrr"},
        {"cta_switch_threshold": 7},
        {"alu_latency": 9},
        {"dram_latency": 1234},
        {"min_park_cycles": 3},
        {"pcrf_access_latency": 11},
    ])
    def test_distinct_configs_get_distinct_keys(self, change):
        base = default_config(TINY)
        variant = dataclasses.replace(base, **change)
        assert ExperimentRunner._config_key(base) \
            != ExperimentRunner._config_key(variant)

    def test_key_covers_every_declared_field(self):
        # astuple has one entry per dataclass field by construction; guard
        # against someone replacing it with a subset again.
        key = ExperimentRunner._config_key(default_config(TINY))
        assert len(key) == len(dataclasses.fields(GPUConfig))

    def test_runner_memo_distinguishes_scheduling(self):
        runner = ExperimentRunner(scale=TINY)
        gto = runner.run("KM", "baseline")
        lrr = runner.run("KM", "baseline", config=dataclasses.replace(
            runner.base_config, warp_scheduling="lrr"))
        # Two memo entries, and LRR actually ran (not the GTO result).
        assert len(runner._results) == 2
        assert gto is not lrr


# ----------------------------------------------------------------------
# Persistent key sensitivity
# ----------------------------------------------------------------------
class TestRunKey:
    def _key(self, **overrides):
        config = default_config(TINY)
        params = dict(scale=TINY, reference=config, config=config,
                      spec=get_spec("KM"), policy="baseline",
                      policy_kwargs={}, sample_usage=False,
                      unified_memory=False)
        params.update(overrides)
        return run_key(**params)

    def test_stable(self):
        assert self._key() == self._key()

    def test_sensitive_to_each_component(self):
        base = self._key()
        config = default_config(TINY)
        variants = [
            self._key(policy="finereg"),
            self._key(spec=get_spec("LB")),
            self._key(policy_kwargs={"srp_ratio": 0.2}),
            self._key(sample_usage=True),
            self._key(unified_memory=True),
            self._key(config=dataclasses.replace(config, alu_latency=7)),
            self._key(reference=config.with_num_sms(4)),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_kwarg_order_irrelevant(self):
        a = self._key(policy_kwargs={"a": 1, "b": 2})
        b = self._key(policy_kwargs={"b": 2, "a": 1})
        assert a == b


# ----------------------------------------------------------------------
# On-disk cache behavior
# ----------------------------------------------------------------------
class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        result = make_result()
        cache.put("ab" + "0" * 62, result)
        assert len(cache) == 1
        assert cache.get("ab" + "0" * 62) == result

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        assert cache.get("ff" + "0" * 62) is None
        assert cache.misses == 1

    def test_disabled_cache_is_inert(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        cache.put("ab" + "0" * 62, make_result())
        assert len(cache) == 0
        assert cache.get("ab" + "0" * 62) is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        key = "cd" + "0" * 62
        cache.put(key, make_result())
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_stale_schema_entry_degrades_to_miss(self, tmp_path):
        # PR-4 bumped RESULT_SCHEMA_VERSION (SimResult grew the switch
        # overhead split).  Entries persisted by the previous version must
        # be rejected cleanly -- a miss and a re-run, never a SimResult
        # missing the new fields.
        cache = ResultCache(root=tmp_path, enabled=True)
        key = "ce" + "0" * 62
        cache.put(key, make_result())
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["result"]["_schema"] = 1
        for field in ("switch_out_overhead_cycles",
                      "switch_in_overhead_cycles"):
            payload["result"].pop(field, None)
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.misses == 1
        # The stale entry can be overwritten and served again.
        cache.put(key, make_result())
        assert cache.get(key) == make_result()

    def test_v2_schema_entry_degrades_to_miss(self, tmp_path):
        # This PR bumped RESULT_SCHEMA_VERSION to 3 (SimResult grew the
        # per_kernel concurrent attribution).  A v2 payload — no
        # per_kernel field, old tag — must be a clean miss, never a
        # SimResult silently missing the attribution.
        cache = ResultCache(root=tmp_path, enabled=True)
        key = "cf" + "0" * 62
        cache.put(key, make_result())
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["result"]["_schema"] = 2
        payload["result"].pop("per_kernel", None)
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, make_result())
        assert cache.get(key) == make_result()

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        for i in range(3):
            cache.put(f"{i:02x}" + "0" * 62, make_result())
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_runner_round_trips_through_disk(self, tmp_path):
        warm = ExperimentRunner(
            scale=TINY, cache=ResultCache(root=tmp_path, enabled=True))
        first = warm.run("KM", "baseline")
        assert warm.cache.hits == 0
        # A fresh runner (cold memo) must be served from disk, identically.
        cold = ExperimentRunner(
            scale=TINY, cache=ResultCache(root=tmp_path, enabled=True))
        assert cold.run("KM", "baseline") == first
        assert cold.cache.hits == 1
