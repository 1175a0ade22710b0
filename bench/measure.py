"""Statistics and host-speed rules shared by the harness, compare.py and
the tests."""

from __future__ import annotations

import bisect
import collections
import heapq
import json
import math
import random
import re
import statistics
import struct
import time
import zlib
from typing import List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p90 needs 100 samples and p50 needs 20.
MIN_TAIL_SAMPLES = 10

#: Objects in the host probe's ring, and steps of one probe.
PROBE_NODES = 1 << 14
PROBE_STEPS = 8_000
#: The probe's time at the reference host speed: its median between
#: requests over ten minutes on a 2-vCPU Intel Xeon KVM guest with
#: Python 3.11.  Times reported "at reference speed" are what the host
#: would have taken at that speed.
REFERENCE_PROBE_MS = 3.0
#: Probes on each side of a request that set its local host speed.
PROBE_REACH = 2


def percentile(values: Sequence[float], q: int) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when the tail is too thin.

    ``q`` is a whole percent so the rank is exact integer arithmetic.
    """
    n = len(values)
    rank = -(-q * n // 100)  # ceil(q * n / 100)
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[max(rank, 1) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


class _Node:
    __slots__ = ("next", "value", "kind")


class HostProbe:
    """The host's current speed: milliseconds for a fixed piece of Python
    work, with none of the program's code, in two halves.

    - A walk over a ring of small objects laid out in shuffled order: each
      step reads attributes of the object the last step pointed to and now
      and then a dict, as the simulator's objects do.  The ring (about
      2 MB) outgrows the core's private caches.
    - A pass over many interpreter and standard-library paths (JSON, a
      regex, sorting, a heap, bisection, struct, zlib, formatting, sets):
      a code footprint as wide as the simulator's.

    On a shared host the program slows when a neighbour contends for the
    core, its caches or memory.  Timed between requests, against the
    program's round times (log against log), the walk alone had a slope
    of 1.05-1.25 and the pass alone 0.6-0.8; their sum 0.8-1.0, at a
    correlation of 0.94.
    """

    def __init__(self, nodes: int = PROBE_NODES, steps: int = PROBE_STEPS,
                 seed: int = 0) -> None:
        ring = [_Node() for __ in range(nodes)]
        order = list(range(nodes))
        random.Random(seed).shuffle(order)
        for position, index in enumerate(order):
            node = ring[index]
            node.next = ring[order[(position + 1) % nodes]]
            node.value = position
            node.kind = position & 7
        self.start = ring[0]
        self.table = {i: 3 * i for i in range(nodes)}
        self.steps = steps
        self.records = [{"id": i, "name": f"n{i}", "vals": [i, 2 * i, 3 * i],
                         "weight": i / 7} for i in range(60)]

    def __call__(self) -> float:
        started = time.perf_counter()
        self._walk()
        for __ in range(3):
            self._library_pass()
        return (time.perf_counter() - started) * 1e3

    def _walk(self) -> int:
        table = self.table
        node = self.start
        total = 0
        for __ in range(self.steps):
            total += node.value if node.kind else table.get(node.value, 0)
            node = node.next
        return total

    def _library_pass(self) -> int:
        text = json.dumps(self.records)
        records = json.loads(text)
        records.sort(key=lambda r: (-r["weight"], r["name"]))
        numbers = [int(m) for m in _NAME.findall(text)]
        prefixes = collections.Counter(r["name"][:2] for r in records)
        heap = list(numbers)
        heapq.heapify(heap)
        smallest = [heapq.heappop(heap) for __ in range(10)]
        places = [bisect.bisect_left(numbers, n) for n in smallest]
        packed = struct.pack(f"{len(places)}i", *places)
        label = "|".join(f"{k}:{v:04d}" for k, v in sorted(prefixes.items()))
        seen = set(label.split("|")) | {zlib.crc32(packed)}
        return len(seen) + sum(math.isqrt(n) for n in numbers)


_NAME = re.compile(r"n(\d+)")


def local_probes(probes: Sequence[float],
                 reach: int = PROBE_REACH) -> List[float]:
    """For each probe in time order, the median of it and its ``reach``
    neighbours on each side: the host's speed around that moment, proof
    against a probe that one interrupt slowed."""
    return [statistics.median(probes[max(0, i - reach):i + reach + 1])
            for i in range(len(probes))]


def at_reference_speed(seconds: float, probe_ms: float) -> float:
    """``seconds`` measured while the probe took ``probe_ms``, scaled to
    the reference host speed.  A shared host's speed drifts by up to 1.5x,
    at times for whole runs; the program's time drifts with it, its ratio
    to the probe's much less."""
    return seconds * REFERENCE_PROBE_MS / probe_ms
