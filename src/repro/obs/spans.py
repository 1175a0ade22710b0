"""Hierarchical wall-clock span tracing for the campaign tier.

A :class:`Span` is one timed region with a parent: the campaign is the
root, each :class:`~repro.experiments.parallel.RunRequest` is a ``request``
span under it, and sequential work regions (cache lookup, workload build,
engine run, store) are ``phase`` spans.  Phases are sequential by
construction, so the reconciliation invariant checked by
:func:`reconcile_spans` is: **the durations of a parent's phase children
sum to at most the parent's own duration**.  ``request`` spans are exempt
from the sum rule at their parent (pool requests run concurrently) but
their *own* phase children, recorded inside one worker, are sequential and
reconcile normally.

Worker processes record spans with a local :class:`SpanRecorder` and ship
them back as dicts; :meth:`SpanRecorder.merge` grafts them under the
parent-side request span, remapping ids so the merged tree stays
collision-free.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs import clock

#: Span kinds; ``phase`` children participate in the <=-parent sum rule.
SPAN_KINDS = ("campaign", "request", "phase")

#: Slack for the child-sum reconciliation: clock reads around nested
#: context-manager entries/exits are not perfectly nested in float time.
RECONCILE_SLACK_S = 1e-4


class Span:
    """One timed region of campaign work."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "t_start", "t_end",
                 "worker", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 kind: str, t_start: float,
                 worker: Optional[int] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.worker = worker
        self.attrs: Dict[str, object] = {}

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    @property
    def duration(self) -> float:
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def as_dict(self) -> Dict:
        out: Dict[str, object] = {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t_start": round(self.t_start, 6),
            "dur_s": round(self.duration, 6) if self.closed else None,
        }
        if self.worker is not None:
            out["worker"] = self.worker
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class SpanRecorder:
    """Creates, nests, and stores spans for one process.

    ``now`` is injectable for deterministic tests; the default is the one
    audited clock module.  The context-manager :meth:`span` nests under the
    current stack top; pool-side request spans (many open concurrently) use
    :meth:`start`/:meth:`finish` with an explicit :meth:`scope`.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None) -> None:
        self._now = now if now is not None else clock.monotonic
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def current_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def start(self, name: str, kind: str = "phase",
              parent: Optional[int] = None,
              worker: Optional[int] = None) -> Span:
        """Open a span (not pushed on the nesting stack)."""
        if parent is None:
            parent = self.current_id()
        span = Span(self._next_id, parent, name, kind, self._now(),
                    worker=worker)
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, **attrs: object) -> Span:
        span.t_end = self._now()
        if attrs:
            span.attrs.update(attrs)
        return span

    def push(self, span: Span) -> None:
        """Make ``span`` the nesting parent until :meth:`pop` (campaign
        open/close spans whose lifetime doesn't fit a ``with`` block)."""
        self._stack.append(span.span_id)

    def pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()

    @contextmanager
    def scope(self, span: Span) -> Iterator[Span]:
        """Make ``span`` the nesting parent for the duration of the block."""
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, kind: str = "phase",
             **attrs: object) -> Iterator[Span]:
        """Open a nested span for the duration of the block."""
        opened = self.start(name, kind)
        self._stack.append(opened.span_id)
        try:
            yield opened
        finally:
            self._stack.pop()
            self.finish(opened, **attrs)

    # ------------------------------------------------------------------
    def merge(self, span_dicts: Sequence[Dict], parent_id: int,
              worker: Optional[int] = None) -> List[Span]:
        """Graft worker-recorded span dicts under ``parent_id``.

        Ids are reassigned from this recorder's counter; local parent links
        are remapped, and local roots are re-parented to ``parent_id``.
        Worker recorders append parents before children, so a single pass
        suffices.
        """
        mapping: Dict[int, int] = {}
        merged: List[Span] = []
        for entry in span_dicts:
            local_parent = entry.get("parent")
            parent = (mapping[local_parent] if local_parent in mapping
                      else parent_id)
            span = Span(self._next_id, parent, str(entry["name"]),
                        str(entry["kind"]), float(entry["t_start"]),
                        worker=worker)
            self._next_id += 1
            dur = entry.get("dur_s")
            if dur is not None:
                span.t_end = span.t_start + float(dur)
            attrs = entry.get("attrs")
            if attrs:
                span.attrs.update(attrs)
            mapping[int(entry["span"])] = span.span_id
            self.spans.append(span)
            merged.append(span)
        return merged

    def as_dicts(self) -> List[Dict]:
        return [span.as_dict() for span in self.spans]


# ----------------------------------------------------------------------
def reconcile_spans(spans: Sequence[Span],
                    slack_s: float = RECONCILE_SLACK_S) -> List[str]:
    """Structural problems in a span tree (empty list = reconciles).

    Checks: every parent id exists; kinds are known; closed spans have
    ``t_end >= t_start``; and per parent, the summed durations of its
    *phase* children stay within the parent's duration (+``slack_s``).
    """
    problems: List[str] = []
    by_id = {span.span_id: span for span in spans}
    child_phase_sum: Dict[int, float] = {}
    for span in spans:
        label = f"span {span.span_id} ({span.name})"
        if span.kind not in SPAN_KINDS:
            problems.append(f"{label} has unknown kind {span.kind!r}")
        if span.parent_id is not None and span.parent_id not in by_id:
            problems.append(f"{label} references missing parent "
                            f"{span.parent_id}")
            continue
        if not span.closed:
            problems.append(f"{label} was never closed")
            continue
        if span.t_end is not None and span.t_end < span.t_start:
            problems.append(f"{label} ends before it starts")
        if span.kind == "phase" and span.parent_id is not None:
            child_phase_sum[span.parent_id] = \
                child_phase_sum.get(span.parent_id, 0.0) + span.duration
    for parent_id, total in sorted(child_phase_sum.items()):
        parent = by_id.get(parent_id)
        if parent is None or not parent.closed:
            continue
        if total > parent.duration + slack_s:
            problems.append(
                f"phase children of span {parent_id} ({parent.name}) sum to "
                f"{total:.6f}s > parent {parent.duration:.6f}s")
    return problems
