"""Shared experiment runner.

Builds (workload, config, policy) simulations and caches their results at
two levels so figures that share runs (12/13/16 all use the same five
configurations, for instance) never recompute:

* an in-memory memo keyed by the *complete* simulation-relevant
  configuration (every ``GPUConfig`` field — see the PR-1 collision fix);
* a persistent on-disk store (:mod:`repro.experiments.cache`) keyed by a
  content hash of the same material, shared across processes and sessions.

``run_many`` accepts a whole campaign of :class:`RunRequest`s up front,
dedupes them, and fans the cold ones out over a ``multiprocessing`` pool
(:mod:`repro.experiments.parallel`).  All experiment modules go through
this class.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import GPUConfig, SMALL, Scale, default_config
from repro.experiments.cache import ResultCache, request_key
from repro.experiments.parallel import RunRequest, run_requests, \
    simulate_request
from repro.policies.baseline import BaselinePolicy
from repro.policies.finereg import FineRegPolicy
from repro.policies.finereg_adaptive import AdaptiveFineRegPolicy
from repro.policies.reg_dram import RegDRAMPolicy
from repro.policies.regmutex import RegMutexPolicy
from repro.policies.virtual_thread import VirtualThreadPolicy
from repro.sim.stats import SimResult
from repro.workloads.generator import WorkloadInstance, build_workload
from repro.workloads.suite import get_spec

#: Name -> policy factory-factory.  Each entry returns a per-SM factory.
POLICIES: Dict[str, Callable] = {
    "baseline": lambda **kw: BaselinePolicy,
    "virtual_thread": lambda **kw: VirtualThreadPolicy,
    "reg_dram": lambda **kw: (
        lambda sm: RegDRAMPolicy(
            sm, dram_pending_limit=kw.get("dram_pending_limit", 8))
    ),
    "vt_regmutex": lambda **kw: (
        lambda sm: RegMutexPolicy(sm, srp_ratio=kw.get("srp_ratio", 0.28))
    ),
    "finereg": lambda **kw: FineRegPolicy,
    "finereg_adaptive": lambda **kw: AdaptiveFineRegPolicy,
}

#: The four configurations of Figs 12/13/16 plus the baseline.
MAIN_POLICIES = ("baseline", "virtual_thread", "reg_dram", "vt_regmutex",
                 "finereg")


class ExperimentRunner:
    """Memoized simulation driver for the experiment modules."""

    def __init__(self, scale: Scale = SMALL,
                 config: Optional[GPUConfig] = None,
                 cache: Optional[ResultCache] = None,
                 obs=None) -> None:
        self.scale = scale
        self.base_config = config if config is not None \
            else default_config(scale)
        self.cache = cache if cache is not None else ResultCache.from_env()
        self._results: Dict[Tuple, SimResult] = {}
        self._workloads: Dict[Tuple, WorkloadInstance] = {}
        #: Optional :class:`repro.obs.session.ObsSession`: spans around the
        #: scheduling/pool/store phases, timed cache traffic, and per-run
        #: events.  ``None`` (the default) costs one ``is not None`` test.
        self.obs = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Wire an observability session into this runner and its cache."""
        self.obs = obs
        self.cache.obs = obs

    def _obs_phase(self, name: str):
        return self.obs.phase(name) if self.obs is not None \
            else nullcontext()

    # ------------------------------------------------------------------
    def workload(self, abbrev: str,
                 config: Optional[GPUConfig] = None) -> WorkloadInstance:
        """The workload instance for a benchmark.

        The grid is sized from the *unscaled* Table-I configuration (at the
        requested SM count) so that resource-scaling experiments (Figs 2, 4,
        17, 18) compare identical launches across configurations.
        """
        num_sms = (config if config is not None else self.base_config).num_sms
        reference = self.base_config.with_num_sms(num_sms)
        key = (abbrev, num_sms, self.scale.name)
        instance = self._workloads.get(key)
        if instance is None:
            instance = build_workload(get_spec(abbrev), reference, self.scale)
            self._workloads[key] = instance
        return instance

    # ------------------------------------------------------------------
    def run(self, abbrev: str, policy: str,
            config: Optional[GPUConfig] = None,
            sample_usage: bool = False,
            unified_memory: bool = False,
            telemetry: bool = False,
            **policy_kwargs) -> SimResult:
        """Simulate one benchmark under one policy (memoized)."""
        if policy not in POLICIES:
            known = ", ".join(sorted(POLICIES))
            raise KeyError(f"unknown policy {policy!r}; known: {known}")
        request = RunRequest.make(
            abbrev, policy, config=config, sample_usage=sample_usage,
            unified_memory=unified_memory, telemetry=telemetry,
            **policy_kwargs)
        return self.run_request(request)

    def run_request(self, request: RunRequest) -> SimResult:
        """Execute one request through the memo and persistent cache.

        Telemetry runs bypass the cache *read*: their purpose is the
        artifact the simulation writes as a side effect, so they must
        actually simulate.  The result they produce is identical to the
        untraced one and is written back to the cache as usual.
        """
        config = request.config if request.config is not None \
            else self.base_config
        key = self._memo_key(request, config)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        disk_key = request_key(self.scale, self.base_config, request)
        result = None if request.telemetry else self.cache.get(disk_key)
        if result is not None and self.obs is not None:
            self.obs.cached_request(request)
        if result is None:
            scope = self.obs.run_scope(request) if self.obs is not None \
                else nullcontext()
            with scope:
                # In-process runs share workload instances with direct
                # ``workload()`` callers via the runner's own memo.
                with self._obs_phase("workload-build"):
                    instance = self.workload(request.abbrev, config)
                result = simulate_request(self.scale, self.base_config,
                                          request, instance=instance,
                                          obs=self.obs)
            self.cache.put(disk_key, result)
        self._results[key] = result
        return result

    def run_many(self, requests: Iterable[RunRequest],
                 jobs: Optional[int] = None) -> List[SimResult]:
        """Run a whole campaign, deduped, over a process pool.

        Returns one result per *input* request (duplicates included), in
        order.  Already-memoized and disk-cached requests never hit the
        pool; with ``jobs=1`` the remainder runs serially in-process.
        """
        requests = list(requests)
        pending: List[Tuple[Tuple, RunRequest]] = []
        claimed = set()
        with self._obs_phase("cache-lookup"):
            for request in requests:
                if request.policy not in POLICIES:
                    known = ", ".join(sorted(POLICIES))
                    raise KeyError(
                        f"unknown policy {request.policy!r}; known: {known}")
                config = request.config if request.config is not None \
                    else self.base_config
                key = self._memo_key(request, config)
                if key in self._results or key in claimed:
                    continue
                result = None if request.telemetry else self.cache.get(
                    request_key(self.scale, self.base_config, request))
                if result is not None:
                    self._results[key] = result
                    if self.obs is not None:
                        self.obs.cached_request(request)
                    continue
                claimed.add(key)
                pending.append((key, request.with_config(config)))

        if pending:
            payloads = [(self.scale, self.base_config, request)
                        for __, request in pending]
            with self._obs_phase("pool-run"):
                results = run_requests(payloads, jobs=jobs, obs=self.obs)
            with self._obs_phase("store"):
                for (key, request), result in zip(pending, results):
                    self._results[key] = result
                    self.cache.put(
                        request_key(self.scale, self.base_config, request),
                        result)
        return [self._results[self._memo_key(
                    request,
                    request.config if request.config is not None
                    else self.base_config)]
                for request in requests]

    def run_main_configs(self, abbrev: str) -> Dict[str, SimResult]:
        """All five Fig-12/13 configurations for one benchmark."""
        return {policy: self.run(abbrev, policy) for policy in MAIN_POLICIES}

    def memoized_results(self) -> List[Tuple[str, SimResult]]:
        """(abbrev, result) pairs for every run this runner has memoized.

        Feed for the campaign telemetry roll-up: memo keys lead with the
        benchmark abbreviation, so grouping by app needs no extra state.
        """
        return [(key[0], result) for key, result in self._results.items()]

    # ------------------------------------------------------------------
    def _memo_key(self, request: RunRequest, config: GPUConfig) -> Tuple:
        # ``telemetry`` is part of the key so a traced run actually runs
        # (and writes its artifact) even when the untraced result is memoized.
        return (request.abbrev, request.policy, self._config_key(config),
                request.sample_usage, request.unified_memory,
                request.policy_kwargs, request.telemetry)

    @staticmethod
    def _config_key(config: GPUConfig) -> Tuple:
        """Memo key over *every* configuration field.

        Deriving this from a hand-picked subset caused distinct configs
        (e.g. differing only in ``warp_scheduling`` or
        ``cta_switch_threshold``) to alias to one cached result.
        """
        return dataclasses.astuple(config)
