"""Scoped phase timing for the engine and detector.

:class:`PhaseProfiler` accumulates wall-clock time and call counts per
named phase.  The engine reads the clock at the boundaries of its
per-cycle stages (generate / allocate / move / detect) and books each
stage's interval on a pre-bound :class:`PhaseTimer` (:meth:`PhaseTimer.book`:
four method calls a cycle cost less than four ``with`` blocks, which
matters on a cycle of ~100 µs); recovery runs inside a timer used as a
context manager; the detector accounts its region pipeline with
:meth:`PhaseProfiler.add` so the ``obs_level=0`` path pays a single
``None``-check instead of a context manager.

Timers are plain non-reentrant objects reused across cycles
(allocation-free per use: entering just stores a start time).  When a
:class:`~repro.obs.trace.TraceRecorder` is attached, every booked interval
also emits a span event, which is what puts the phase lanes on the
Chrome-trace timeline.

:func:`phase_rows` is the one place phase nesting is resolved: a raw
snapshot is inclusive (``engine/detect`` contains the time the detector
also books under ``detect/*`` and the engine under ``engine/recover``), so
it subtracts each nested phase from its enclosing one and takes every
share of the top-level total.  :func:`phase_table` renders those rows.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import TraceRecorder

__all__ = [
    "PhaseProfiler",
    "PhaseTimer",
    "phase_rows",
    "phase_table",
    "share_pct",
]


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
        self.book(self._t0, perf_counter())

    def book(self, t0: float, t1: float) -> None:
        """Account one call that ran from clock reading ``t0`` to ``t1``."""
        dur = t1 - t0
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


#: nested phase-name prefix -> the phase whose timer runs around it.  The
#: detector books its pipeline stages under ``detect/*`` and the engine
#: times recovery as ``engine/recover``, both inside ``engine/detect``.
NESTED_UNDER = {"detect/": "engine/detect", "engine/recover": "engine/detect"}


def share_pct(part_s: float, total_s: float) -> float:
    """Percentage share rounded to 1 decimal, never collapsed to zero.

    A sub-permille phase (a cheap stage inside a heavy engine total) would
    round to 0.0%, which reads as "never ran"; instead keep adding a
    decimal until the share survives rounding, so a 0.004% phase reports
    as 0.004 rather than 0.0.
    """
    if part_s <= 0.0 or total_s <= 0.0:
        return 0.0
    pct = 100.0 * part_s / total_s
    for decimals in range(1, 10):
        rounded = round(pct, decimals)
        if rounded:
            return rounded
    return pct


def phase_rows(phases: dict) -> dict[str, dict]:
    """``{name: {total_ms, self_ms, calls, share_pct}}`` per recorded phase.

    ``phases`` is a ``{name: {"total_s", "calls"}}`` table
    (:meth:`PhaseProfiler.snapshot`, or several merged).  ``total_ms`` is
    inclusive; ``self_ms`` subtracts the phases nested inside it
    (:data:`NESTED_UNDER`), clamped at zero against timer jitter.  Self
    times are disjoint and add up to the top-level total, and each
    ``share_pct`` is a self time's share of that total, so the shares sum
    to 100%.
    """
    self_s = {name: rec["total_s"] for name, rec in phases.items()}
    for name, rec in phases.items():
        for prefix, parent in NESTED_UNDER.items():
            if name.startswith(prefix) and parent in self_s:
                self_s[parent] -= rec["total_s"]
    self_s = {name: max(0.0, s) for name, s in self_s.items()}
    total_s = sum(self_s.values())
    return {
        name: {
            "total_ms": round(1e3 * rec["total_s"], 2),
            "self_ms": round(1e3 * self_s[name], 2),
            "calls": rec["calls"],
            "share_pct": share_pct(self_s[name], total_s),
        }
        for name, rec in sorted(phases.items())
        if rec["calls"]
    }


def phase_table(rows: dict, title: str = "phase profile") -> str:
    """A printable table of :func:`phase_rows` output, widest total first."""
    if not rows:
        return f"{title}\n  (no phases recorded)"
    width = max(len(name) for name in rows)
    lines = [
        title,
        "-" * len(title),
        f"  {'phase'.ljust(width)}  {'self ms':>10}  {'total ms':>10}  "
        f"{'calls':>9}  {'us/call':>9}  {'share':>6}",
    ]
    for name in sorted(rows, key=lambda n: -rows[n]["total_ms"]):
        row = rows[name]
        per_call_us = 1e3 * row["total_ms"] / row["calls"]
        lines.append(
            f"  {name.ljust(width)}  {row['self_ms']:10.2f}  "
            f"{row['total_ms']:10.2f}  {row['calls']:>9}  "
            f"{per_call_us:9.1f}  {row['share_pct']:>5}%"
        )
    return "\n".join(lines)
