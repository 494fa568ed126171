"""Per-run observability session: registry + profiler + tracer.

:class:`Observer` is what a :class:`~repro.network.simulator.
NetworkSimulator` holds as ``sim.obs``.  ``Observer.from_config`` returns
the process-global :data:`NULL_OBSERVER` when ``obs_level=0``, so the
engine's instrumentation points reduce to one attribute lookup plus a
``None``/flag check — a run with observability off is indistinguishable
(in both cost and behaviour) from one built before this subsystem existed.

Levels:

* ``0`` — off: ``NULL_OBSERVER`` (no registry, no profiler, no tracer);
* ``1`` — metrics + phase profiler (per-phase wall-clock accounting,
  detector pass counters, per-pass histograms);
* ``2`` — level 1 plus the cycle-level trace ring buffer
  (:class:`~repro.obs.trace.TraceRecorder`).

Everything here is pure observation — no RNG draws, no simulation-state
mutation — so any level produces bit-identical simulation results
(asserted by ``tests/integration/test_obs_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.profiler import PhaseProfiler, phase_rows, phase_table
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SimulationConfig
    from repro.network.simulator import NetworkSimulator

__all__ = ["Observer", "NullObserver", "NULL_OBSERVER"]


class Observer:
    """A live observability session for one simulation run."""

    enabled = True

    def __init__(self, level: int = 1, trace_capacity: int = 65_536) -> None:
        if level < 1:
            raise ValueError("use NULL_OBSERVER for obs_level=0")
        self.level = level
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(trace_capacity) if level >= 2 else None
        )
        self.registry: MetricsRegistry = MetricsRegistry()
        self.profiler: Optional[PhaseProfiler] = PhaseProfiler(self.tracer)

    @classmethod
    def from_config(cls, config: "SimulationConfig") -> "Observer":
        """The observer a configuration asks for (``NULL_OBSERVER`` at 0)."""
        if config.obs_level == 0:
            return NULL_OBSERVER
        return cls(
            level=config.obs_level, trace_capacity=config.obs_trace_capacity
        )

    def finalize(self, sim: "NetworkSimulator") -> None:
        """Pull end-of-run stats from the engine into the registry.

        Called by the engine when a run completes; cheap enough to call
        more than once (values are overwritten, not accumulated).
        """
        reg = self.registry
        reg.gauge("engine/cycles").set(sim.cycle)
        reg.gauge("engine/blocked_epoch").set(sim.blocked_epoch)
        reg.gauge("engine/messages_in_network").set(sim.messages_in_network)
        if sim.fast_path:  # the reference engine tracks no activity
            reg.set_counters(sim.activity_counters(), prefix="engine/")
        reg.set_counters(sim.detector.cache_stats(), prefix="detector/")

    def snapshot(self) -> dict:
        """A JSON-able rollup of everything this observer accumulated.

        The shape is what :func:`repro.obs.registry.merge_snapshots`
        consumes: registry sections plus the profiler's ``"phases"`` table
        and trace-buffer metadata.
        """
        snap = self.registry.snapshot()
        snap["level"] = self.level
        if self.profiler is not None:
            snap["phases"] = self.profiler.snapshot()
        if self.tracer is not None:
            snap["trace"] = self.tracer.stats()
        return snap

    def phase_table(self, title: str = "phase profile") -> str:
        return phase_table(phase_rows(self.profiler.snapshot()), title)


class NullObserver:
    """The do-nothing observer handed out at ``obs_level=0``."""

    enabled = False
    level = 0
    registry = None
    profiler = None
    tracer = None

    def finalize(self, sim: "NetworkSimulator") -> None:
        pass

    def snapshot(self) -> None:
        return None


#: the process-global no-op observer (see module docstring)
NULL_OBSERVER = NullObserver()
