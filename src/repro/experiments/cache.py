"""Persistent, content-addressed simulation-result cache.

Simulations are deterministic functions of (scale, reference config, run
config, workload spec, policy, policy kwargs, flags), so their results can
be stored on disk and shared across processes and sessions: warm reruns of
any figure become near-free.  Entries live under ``results/cache/`` (override
with ``REPRO_CACHE_DIR``), one JSON file per result, named by the SHA-256 of
the *complete* canonicalized key material plus a schema/code version tag.

Invalidation is by construction: any change to a simulation-relevant knob
changes the hash, and behavioral changes to the simulator itself must bump
:data:`CACHE_CODE_VERSION` (reviewed per PR).  ``REPRO_CACHE=off`` disables
the cache entirely; ``python -m repro cache clear`` wipes it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from repro.config import GPUConfig, Scale
from repro.sim.stats import RESULT_SCHEMA_VERSION, SimResult
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import get_spec

if TYPE_CHECKING:
    from repro.experiments.parallel import RunRequest

#: Bump on any simulator change that alters observable results.  Combined
#: with RESULT_SCHEMA_VERSION into every cache key.
CACHE_CODE_VERSION = "1"

#: Default on-disk location, relative to the working directory (the repo
#: convention keeps all generated artifacts under ``results/``).
DEFAULT_CACHE_DIR = Path("results") / "cache"

_DISABLED_VALUES = {"off", "0", "false", "no", "disabled"}


def cache_enabled() -> bool:
    """Honor the ``REPRO_CACHE`` environment switch (default: on)."""
    return os.environ.get("REPRO_CACHE", "on").lower() not in _DISABLED_VALUES


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", str(DEFAULT_CACHE_DIR)))


def _canonical(value):
    """Recursively convert key material into JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"uncacheable key material of type {type(value)!r}")


def run_key(scale: Scale, reference: GPUConfig, config: GPUConfig,
            spec: WorkloadSpec, policy: str,
            policy_kwargs: Dict, sample_usage: bool,
            unified_memory: bool) -> str:
    """Content hash over everything that determines a simulation's result.

    ``reference`` is the runner's base configuration at the run's SM count:
    it sizes the workload grid (see ``ExperimentRunner.workload``), so two
    runners with different base configs must not alias.
    """
    material = {
        "code_version": CACHE_CODE_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "scale": _canonical(scale),
        "reference": _canonical(reference),
        "config": _canonical(config),
        "spec": _canonical(spec),
        "policy": policy,
        "policy_kwargs": _canonical(dict(sorted(policy_kwargs.items()))),
        "sample_usage": bool(sample_usage),
        "unified_memory": bool(unified_memory),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def request_key(scale: Scale, base_config: GPUConfig,
                request: "RunRequest") -> str:
    """The :func:`run_key` of one request against a runner's base config.

    The one place a request's key is built: the result cache and the
    telemetry artifact path both call it, so a new key field cannot reach
    one and miss the other.
    """
    config = request.config if request.config is not None else base_config
    return run_key(
        scale=scale,
        reference=base_config.with_num_sms(config.num_sms),
        config=config,
        spec=get_spec(request.abbrev),
        policy=request.policy,
        policy_kwargs=request.kwargs,
        sample_usage=request.sample_usage,
        unified_memory=request.unified_memory,
    )


class ResultCache:
    """On-disk SimResult store; all failures degrade to cache misses."""

    def __init__(self, root: Optional[Path] = None,
                 enabled: Optional[bool] = None) -> None:
        self.root = Path(root) if root is not None else cache_dir()
        self.enabled = cache_enabled() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        #: Optional :class:`repro.obs.session.ObsSession`.  When set, reads
        #: and writes are timed and logged by the session; the off path
        #: costs exactly this one ``is not None`` test.
        self.obs = None

    @classmethod
    def from_env(cls) -> "ResultCache":
        return cls()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        if not self.enabled:
            return None
        if self.obs is not None:
            return self.obs.timed_cache_get(self, key)
        return self._get(key)

    def _get(self, key: str) -> Optional[SimResult]:
        """The untimed lookup; observability wraps this, never alters it."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            result = SimResult.from_json(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        if not self.enabled:
            return
        if self.obs is not None:
            self.obs.timed_cache_put(self, key, result)
            return
        self._put(key, result)

    def _put(self, key: str, result: SimResult) -> int:
        """The untimed store; returns the bytes written (0 on failure)."""
        path = self._path(key)
        blob = json.dumps({"key": key, "result": result.to_json()})
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(blob)
            os.replace(tmp, path)  # atomic: concurrent writers race safely
        except OSError:
            return 0
        return len(blob.encode("utf-8"))

    # ------------------------------------------------------------------
    def entries(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict:
        """Inventory for ``repro cache stats``: counts, bytes, schemas.

        Walks every entry, so this is a CLI/diagnostic call, not a hot
        path.  Unreadable entries are counted under ``"unreadable"``
        rather than raised -- consistent with get()'s miss-on-damage.
        """
        entries = self.entries()
        total = 0
        schemas: Dict[str, int] = {}
        for path in entries:
            version = "unreadable"
            try:
                total += path.stat().st_size
                payload = json.loads(path.read_text())
                version = str(payload["result"].get("_schema", "?"))
            except (OSError, ValueError, KeyError, TypeError):
                pass
            schemas[version] = schemas.get(version, 0) + 1
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": len(entries),
            "total_bytes": total,
            "schema_versions": {k: schemas[k] for k in sorted(schemas)},
        }

    def __len__(self) -> int:
        return len(self.entries())
