"""Observability: metrics registry, phase profiler, cycle-level tracing.

An always-available, zero-overhead-when-disabled instrumentation layer for
the simulation engine and the deadlock detector, controlled by two
configuration knobs:

* ``SimulationConfig.obs_level`` — ``0`` off (the default), ``1`` metrics
  registry + phase profiler, ``2`` adds the cycle-level trace ring buffer;
* ``SimulationConfig.obs_trace_capacity`` — trace ring-buffer bound.

Pieces (see each module's docstring and ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket histograms
  with mergeable snapshots for cross-process sweep rollups;
* :mod:`repro.obs.profiler` — scoped wall-clock timers around the
  engine's per-cycle phases and the detector's region pipeline;
* :mod:`repro.obs.trace` — bounded ring buffer of cycle-stamped events,
  exported as JSONL or Chrome-trace JSON (``chrome://tracing`` /
  Perfetto);
* :mod:`repro.obs.observer` — the per-run session a simulator holds as
  ``sim.obs``.
"""

from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer
from repro.obs.profiler import PhaseProfiler, PhaseTimer
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import TraceRecorder

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "merge_snapshots",
    "PhaseProfiler",
    "PhaseTimer",
    "TraceRecorder",
]
