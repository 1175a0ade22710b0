"""Orchestration-tier observability (`repro.obs`).

Where `repro.telemetry` records what one *simulation* did cycle by cycle,
`repro.obs` records what a *campaign* did second by second: hierarchical
wall-clock spans (campaign -> request -> phases), a schema-validated JSONL
event log (cache hit/miss/store, worker lifecycle, heartbeats), campaign
metrics on the PR-4 `MetricsRegistry`, live progress with ETA and stall
detection, and a `repro obs` CLI that summarizes/tails a log and exports
the spans to Perfetto.  Performance across commits is measured by the
repository benchmark (``bench/``), not here.

The PR-4 invariant carries over verbatim: observability is observation-only
(an instrumented campaign produces byte-identical SimResults and cache
entries) and the disabled path costs one ``is not None`` check per site.
All host-clock reads in ``src/repro`` are confined to
:mod:`repro.obs.clock` (lint-audited).  See docs/TELEMETRY.md
"Orchestration observability".
"""

from repro.obs.session import (  # noqa: F401
    OBS_ENV,
    OBS_LOG_ENV,
    ObsSession,
    WorkerObs,
    obs_enabled,
)
