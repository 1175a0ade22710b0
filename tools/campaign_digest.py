"""One SHA-256 per campaign result, to check that a change kept the bytes.

Runs the whole ``run_all`` campaign at one scale with the persistent result
cache off and prints one line per simulation the campaign ran: the digest
of the result's canonical JSON, then its key.  The key names the app, the
policy, the configuration fields that differ from ``GPUConfig()``, the
policy kwargs and the request flags, so removing a configuration field
that no experiment sets leaves every key as it was.  Concurrent-kernel
runs (Fig 12 companion) are keyed by pool, policy and arbitration.

Run it once per tree and diff the outputs::

    PYTHONPATH=src python tools/campaign_digest.py tiny > head.txt

The script imports nothing beyond ``run_campaign`` and the runner's memos,
so it also runs against an older tree that does not contain it
(``PYTHONPATH=<that tree>/src python tools/campaign_digest.py tiny``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys


def _digest(result) -> str:
    text = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _config_delta(names, values, defaults) -> dict:
    return {name: value for name, value in zip(names, values)
            if defaults[name] != value}


def campaign_digests(scale_name: str) -> list:
    """(key, digest) for every result the campaign memoized, sorted."""
    os.environ["REPRO_CACHE"] = "off"
    from repro.config import SCALES, GPUConfig
    from repro.experiments.run_all import run_campaign
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=SCALES[scale_name])
    run_campaign(runner)
    names = [field.name for field in dataclasses.fields(GPUConfig)]
    defaults = dataclasses.asdict(GPUConfig())
    rows = []
    for key, result in runner._results.items():
        (abbrev, policy, config, sample_usage, unified_memory, kwargs,
         telemetry) = key
        material = [abbrev, policy, _config_delta(names, config, defaults),
                    [list(pair) for pair in kwargs],
                    {"sample_usage": sample_usage,
                     "unified_memory": unified_memory,
                     "telemetry": telemetry}]
        rows.append((json.dumps(material, sort_keys=True), _digest(result)))
    for key, result in getattr(runner, "_concurrent_memo", {}).items():
        rows.append((json.dumps(["concurrent", *key]), _digest(result)))
    return sorted(rows)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: campaign_digest.py SCALE", file=sys.stderr)
        return 2
    for key, digest in campaign_digests(argv[1]):
        print(f"{digest}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
