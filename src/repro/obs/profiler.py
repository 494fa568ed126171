"""Scoped phase timing for the engine and detector.

:class:`PhaseProfiler` accumulates wall-clock time and call counts per
named phase.  The engine wraps its per-cycle stages (generate / allocate /
move / detect) in pre-bound :class:`PhaseTimer` context managers; the
detector accounts its region pipeline with :meth:`PhaseProfiler.add` so the
``obs_level=0`` path pays a single ``None``-check instead of a context
manager.

Timers are plain non-reentrant context managers reused across cycles
(allocation-free per use: entering just stores a start time).  When a
:class:`~repro.obs.trace.TraceRecorder` is attached, every timer exit also
emits a span event, which is what puts the phase lanes on the Chrome-trace
timeline.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import TraceRecorder

__all__ = ["PhaseProfiler", "PhaseTimer"]


class PhaseTimer:
    """Reusable scoped timer for one named phase (non-reentrant)."""

    __slots__ = ("name", "total", "calls", "_tracer", "_t0")

    def __init__(self, name: str, tracer: Optional["TraceRecorder"]) -> None:
        self.name = name
        self.total = 0.0
        self.calls = 0
        self._tracer = tracer
        self._t0 = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t0 = self._t0
        dur = perf_counter() - t0
        self.total += dur
        self.calls += 1
        if self._tracer is not None:
            self._tracer.span(self.name, t0, dur)


class PhaseProfiler:
    """Named phase accounting with optional trace-span emission."""

    def __init__(self, tracer: Optional["TraceRecorder"] = None) -> None:
        self.tracer = tracer
        self.timers: dict[str, PhaseTimer] = {}

    def timer(self, name: str) -> PhaseTimer:
        """The (stable) timer for ``name``, created on first use."""
        t = self.timers.get(name)
        if t is None:
            self.timers[name] = t = PhaseTimer(name, self.tracer)
        return t

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Manual accounting for code that times itself (no span emitted)."""
        t = self.timer(name)
        t.total += seconds
        t.calls += calls

    def snapshot(self) -> dict[str, dict]:
        """``{name: {"total_s": ..., "calls": ...}}`` for every phase."""
        return {
            name: {"total_s": t.total, "calls": t.calls}
            for name, t in sorted(self.timers.items())
        }

    def table(self, title: str = "phase profile") -> str:
        """A printable per-phase time table, widest share first."""
        rows = [
            (name, t.total, t.calls)
            for name, t in self.timers.items()
            if t.calls
        ]
        if not rows:
            return f"{title}\n  (no phases recorded)"
        rows.sort(key=lambda r: -r[1])
        total = sum(r[1] for r in rows if "/" not in r[0]) or sum(
            r[1] for r in rows
        )
        width = max(len(r[0]) for r in rows)
        lines = [title, "-" * len(title)]
        for name, seconds, calls in rows:
            avg_us = 1e6 * seconds / calls
            share = 100.0 * seconds / total if total else 0.0
            lines.append(
                f"  {name.ljust(width)}  {seconds * 1e3:10.2f} ms  "
                f"{calls:>9} calls  {avg_us:10.1f} us/call  {share:5.1f}%"
            )
        return "\n".join(lines)
