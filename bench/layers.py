"""Module -> layer map and the cProfile fold through it.

A layer is named after the module (or package) it covers.  Every
``repro`` module resolves to exactly one layer by its longest matching
prefix in :data:`LAYER_RULES`; code outside ``repro`` (the standard
library, builtins, this harness) is charged to the layers that called it.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Module-name prefix -> layer; the longest matching prefix wins.
LAYER_RULES: Dict[str, str] = {
    "repro": "repro",  # config, occupancy, cli: the top-level modules
    "repro.analyze": "analyze",
    "repro.core": "core",
    "repro.core.liveness": "core.liveness",
    "repro.energy": "energy",
    "repro.experiments": "experiments.figures",
    "repro.experiments.cache": "experiments.cache",
    "repro.experiments.parallel": "experiments.parallel",
    "repro.experiments.runner": "experiments.runner",
    "repro.experiments.report": "experiments.report",
    "repro.experiments.run_all": "experiments.report",
    "repro.isa": "isa",
    "repro.memory": "memory",
    "repro.obs": "obs",
    "repro.policies": "policies",
    # The issue loops (C and Python) and the per-step state they drive.
    "repro.sim": "sim.engine",
    "repro.sim.backend": "sim.backend",
    "repro.sim.compiled": "sim.compiled",
    "repro.sim.gpu": "sim.gpu",
    "repro.sim.launch": "sim.gpu",
    "repro.sim.tracing": "telemetry",
    "repro.telemetry": "telemetry",
    "repro.validate": "validate",
    "repro.workloads": "workloads",
}

#: Charged with time no ``repro`` module asked for (the harness itself).
OTHER = "other"

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(sorted(set(LAYER_RULES.values()))) + (OTHER,)

#: The program's sources in this checkout.
SRC = Path(__file__).resolve().parent.parent / "src"

#: Propagation passes at most; a slow cycle's unsettled rest goes to OTHER.
_MAX_PASSES = 200

#: Function key used by :mod:`pstats`: (filename, line, function name).
FuncKey = Tuple[str, int, str]


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name, or None outside ``repro``."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_RULES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def module_of_file(filename: str, src: Path = SRC) -> Optional[str]:
    """Dotted module name of a source file under ``src``, else None."""
    try:
        names = list(Path(filename).with_suffix("").relative_to(src).parts)
    except ValueError:
        return None
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def _own_layer(key: FuncKey) -> Optional[str]:
    filename, __, name = key
    if filename == "~":  # a builtin: only the C core is a layer of its own
        return layer_of("repro.sim._ckernel") if "_ckernel" in name else None
    module = module_of_file(filename)
    return layer_of(module) if module is not None else None


def _caller_weights(key: FuncKey, entry) -> Dict[FuncKey, float]:
    """Each caller's share of a function's self time (recursion left out:
    a recursive call is charged wherever the outermost call is)."""
    callers = {c: e for c, e in entry[4].items() if c != key}
    weights = {c: float(e[2]) for c, e in callers.items()}
    if sum(weights.values()) <= 0:
        weights = {c: float(e[1]) for c, e in callers.items()}
    total = sum(weights.values())
    return {c: w / total for c, w in weights.items()} if total > 0 else {}


def fold(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer; the values sum to the profile's total time.

    A function outside ``repro`` splits its self time over its callers in
    proportion to the time each call site spent in it, recursively, so
    ``json.dumps`` under a cache write counts toward ``experiments.cache``.
    Shares are propagated pass by pass until they settle; whatever cannot
    reach a ``repro`` caller (top-level harness code, a cycle with no way
    out) is charged to :data:`OTHER`.
    """
    table = stats.stats  # type: ignore[attr-defined]
    shares: Dict[FuncKey, Dict[str, float]] = {}
    weights: Dict[FuncKey, Dict[FuncKey, float]] = {}
    for key, entry in table.items():
        layer = _own_layer(key)
        if layer is not None:
            shares[key] = {layer: 1.0}
        else:
            weights[key] = _caller_weights(key, entry)
            shares[key] = {}
    for __ in range(_MAX_PASSES):
        moved = 0.0
        for key, callers in weights.items():
            new: Dict[str, float] = {}
            for caller, weight in callers.items():
                for layer, part in shares.get(caller, {}).items():
                    new[layer] = new.get(layer, 0.0) + weight * part
            old = shares[key]
            moved = max(moved, sum(abs(new.get(k, 0.0) - old.get(k, 0.0))
                                   for k in new.keys() | old.keys()))
            shares[key] = new
        if moved < 1e-12:
            break
    out = {layer: 0.0 for layer in LAYERS}
    for key, entry in table.items():
        parts = shares[key]
        for layer, part in parts.items():
            out[layer] += entry[2] * part
        out[OTHER] += entry[2] * max(0.0, 1.0 - sum(parts.values()))
    return out
