"""Host clock -- the ONE module inside ``src/repro`` that reads wall time.

Every other module that needs host time (the rest of `repro.obs`, the
campaign driver, ``repro trace``) calls the functions below; none touches
``time`` directly.  The determinism lint's
wall-clock-allowance audit (see ``repro.analyze.lint``) fails any
``# lint: allow[wall-clock]`` suppression elsewhere, and a test strips the
tags below to prove they are load-bearing.

Only the *simulator* must be deterministic; the harness measures itself
with these clocks without ever feeding a reading back into a simulation.
"""

from __future__ import annotations

import time


def monotonic() -> float:
    """Monotonic seconds; on Linux (CLOCK_MONOTONIC) comparable across the
    fork-spawned worker processes of one campaign."""
    return time.monotonic()  # lint: allow[wall-clock] (campaign self-measurement)


def wall_time() -> float:
    """Unix epoch seconds, for log correlation with the outside world."""
    return time.time()  # lint: allow[wall-clock] (log correlation only)
