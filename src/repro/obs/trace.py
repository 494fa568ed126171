"""Cycle-level trace recording and export.

:class:`TraceRecorder` keeps a **bounded ring buffer** of run events —
phase spans from the profiler plus instants for message blocks and wakes,
detector passes, detected deadlocks and recoveries.  The bound
(``SimulationConfig.obs_trace_capacity``) makes tracing safe to leave on
for arbitrarily long runs: old events fall off the front and a ``dropped``
counter records how many, so a truncated export is never mistaken for a
complete one.

Two export formats:

* **JSONL** (:meth:`write_jsonl`) — one JSON object per line, trivially
  greppable and streamable;
* **Chrome trace JSON** (:meth:`write_chrome` / :meth:`to_chrome`) — the
  ``chrome://tracing`` / Perfetto "JSON Array Format": complete (``"X"``)
  duration events for phase spans and instant (``"i"``) events for
  everything else, timestamps in microseconds since the recorder started.
  Open the file at https://ui.perfetto.dev or ``chrome://tracing`` to see
  the run on a timeline (see ``docs/OBSERVABILITY.md``).

Recording is pure observation: events carry wall-clock timestamps but no
simulation state escapes *into* the run, so a traced run is bit-identical
to an untraced one (``tests/integration/test_obs_equivalence.py``).
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter

__all__ = ["TraceRecorder"]

#: ring-buffer slots: (kind, name, cycle, ts_us, dur_us, args)
_SPAN = "X"
_INSTANT = "i"


class TraceRecorder:
    """Bounded ring buffer of cycle-stamped run events."""

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: deque[tuple] = deque(maxlen=capacity)
        self.dropped = 0
        #: current simulation cycle; the engine stamps it every step so
        #: recording sites don't need a simulator reference
        self.cycle = 0
        self._t0 = perf_counter()

    def _push(self, event: tuple) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    # -- recording ---------------------------------------------------------------
    def span(self, name: str, start_s: float, dur_s: float) -> None:
        """A completed duration event (profiler phase exit)."""
        self._push(
            (
                _SPAN,
                name,
                self.cycle,
                (start_s - self._t0) * 1e6,
                dur_s * 1e6,
                None,
            )
        )

    def instant(self, name: str, **args) -> None:
        """A point event at the current cycle (block, wake, detection...)."""
        self._push(
            (
                _INSTANT,
                name,
                self.cycle,
                (perf_counter() - self._t0) * 1e6,
                0.0,
                args or None,
            )
        )

    # -- export -------------------------------------------------------------------
    def _rows(self):
        for kind, name, cycle, ts, dur, args in self.events:
            row = {
                "name": name,
                "ph": kind,
                "ts": round(ts, 3),
                "pid": 0,
                "tid": 0,
                "cat": "phase" if kind == _SPAN else "event",
                "args": {"cycle": cycle, **(args or {})},
            }
            if kind == _SPAN:
                row["dur"] = round(dur, 3)
            else:
                row["s"] = "t"  # instant scope: thread
            yield row

    def to_chrome(self) -> dict:
        """The trace as a ``chrome://tracing`` JSON object."""
        return {
            "traceEvents": list(self._rows()),
            "displayTimeUnit": "ms",
            "otherData": {
                "recorded_events": len(self.events),
                "dropped_events": self.dropped,
            },
        }

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
            fh.write("\n")

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for row in self._rows():
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def stats(self) -> dict:
        return {"events": len(self.events), "dropped": self.dropped}
