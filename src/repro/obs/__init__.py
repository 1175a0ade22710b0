"""Observability (`repro.obs`): what a simulation and a campaign did.

Two tiers share one package, one schema version (:mod:`repro.obs.schema`),
one Perfetto exporter (:mod:`repro.obs.perfetto`) and one CLI module
(:mod:`repro.obs.cli`, behind ``repro trace`` and ``repro obs``):

* the **simulation tier** records what one run did cycle by cycle: the
  :mod:`~repro.obs.registry` metrics its publishers (SMs, schedulers, the
  memory hierarchy, ACRF/PCRF/RMU) feed, the per-cycle
  :mod:`~repro.obs.timeline` (the Fig-4 occupancy view), the one-call
  :mod:`~repro.obs.telemetry` session that attaches both, and the
  campaign-wide :mod:`~repro.obs.rollup` of stall fractions and switch
  budgets;
* the **campaign tier** records what a campaign did second by second:
  hierarchical wall-clock :mod:`~repro.obs.spans` (campaign -> request ->
  phases), a schema-validated JSONL :mod:`~repro.obs.events` log (cache
  hit/miss/store, worker lifecycle, heartbeats) whose
  ``summarize_events`` is the campaign's only summary, and live
  :mod:`~repro.obs.progress` with ETA and stall detection.

Both tiers keep two invariants.  Observability is observation-only: an
instrumented run or campaign produces byte-identical SimResults and cache
entries.  And "off" costs one ``is not None`` test per site.  All
host-clock reads in ``src/repro`` are confined to :mod:`repro.obs.clock`
(lint-audited).  Performance across commits is measured by the repository
benchmark (``bench/``), not here.  See docs/TELEMETRY.md.

Importing the package loads only the campaign session: the roll-up, the
Perfetto exporters and the CLI import on demand.
"""

from repro.obs.session import (  # noqa: F401
    OBS_ENV,
    OBS_LOG_ENV,
    ObsSession,
    WorkerObs,
    obs_enabled,
)
