"""In-memory span recorder for the benchmark harness.

The harness records one span around each call it makes into a layer of the
library: name, start, end, the span that caused it (the innermost span
open at the time) and a ``workload/rep`` identifier shared by every span
of one pass.  Spans stay in memory and are written once, on request, as
Chrome-trace JSON (``chrome://tracing`` / Perfetto).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover — :func:`self_time`.

Nothing here touches the library: spans come from the benchmark's own
files, around the calls it makes (tracing inside ``src/`` is a later
issue).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Optional

__all__ = ["Span", "Tracer", "self_time"]


@dataclass
class Span:
    """One timed interval.  ``parent`` indexes :attr:`Tracer.spans`."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals.

    Children are clipped to the parent and overlapping children are
    counted once, so the result is exact for any nesting the recorder can
    produce and never negative.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class Tracer:
    """Span recorder: a stack of open spans plus the finished list."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        """Record a span around the ``with`` body; yields it (``end`` is
        filled in on exit, so read ``duration`` after the block)."""
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), 0.0, parent, self.trace_id, args)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval the caller timed itself (a wrapped bound
        method), as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, end, parent, self.trace_id))

    # -- queries -----------------------------------------------------------------
    def select(self, name: str, trace_id: Optional[str] = None) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name and (trace_id is None or s.trace_id == trace_id)
        ]

    def total(self, name: str, trace_id: Optional[str] = None) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.select(name, trace_id))

    def self_times(self, trace_id: Optional[str] = None) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for index, s in enumerate(self.spans):
            if trace_id is not None and s.trace_id != trace_id:
                continue
            out[s.name] = out.get(s.name, 0.0) + self_time(
                s, children.get(index, [])
            )
        return out

    # -- export ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome-trace "complete" events, one lane per ``workload/rep``."""
        lanes: dict[str, int] = {}
        events = []
        origin = min((s.start for s in self.spans), default=0.0)
        for index, s in enumerate(self.spans):
            tid = lanes.setdefault(s.trace_id, len(lanes) + 1)
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((s.start - origin) * 1e6, 3),
                    "dur": round(s.duration * 1e6, 3),
                    "args": {
                        "id": index,
                        "parent": s.parent,
                        "trace_id": s.trace_id,
                        **s.args,
                    },
                }
            )
        for trace_id, tid in lanes.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": trace_id},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
