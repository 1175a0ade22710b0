"""In-memory spans around calls into the program's public functions.

The program is instrumented from outside: :meth:`Tracer.install` replaces
each instrumentation point with a wrapper that opens a span (name, start,
end, parent) and restores the originals on :meth:`Tracer.uninstall`.
No file of the program is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (span name, module, attribute path) for every instrumentation point.
POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build", "repro.workloads.generator", "build_workload"),
    ("workloads.trace_for", "repro.workloads.traces", "TraceProvider.trace_for"),
    ("core.liveness", "repro.core.liveness", "LivenessAnalysis.run"),
    ("sim.gpu.construct", "repro.sim.gpu", "GPU.__init__"),
    ("sim.engine.run", "repro.sim.gpu", "GPU.run"),
    ("experiments.parallel.simulate", "repro.experiments.parallel",
     "simulate_request"),
)


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str,
                 start: float) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict:
        return {"id": self.span_id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span.span_id] = span.duration - covered
    return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn: Callable,
             on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, args, result)
                return result
            finally:
                tracer.close(span)
        return wrapper

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace a function in every loaded module that imported it."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self, points: Sequence[Tuple[str, str, str]] = POINTS) -> None:
        """Wrap every point whose module is already imported."""
        for name, module, path in points:
            if module not in sys.modules:
                continue
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, _ON_EXIT.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _record_engine(span: Span, args, result) -> None:
    span.attrs["engine"] = args[0].engine_used
    span.attrs["instructions"] = result.instructions


_ON_EXIT = {"sim.engine.run": _record_engine}
