"""Statistics collection and run results.

The collector mirrors the paper's reporting:

* **normalized deadlocks** — detected deadlocks per message delivered,
* deadlock/resource set sizes and knot cycle densities per event,
* resource-dependency **cycle counts** at every detection (the leading
  indicator used when no deadlocks occur),
* **blocked messages** (count and percentage of messages in the network),
* plus standard throughput / latency / population metrics.

All counters respect the measurement window: events before
``measure_start`` (the warmup) are recorded but excluded from results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.detector import DeadlockEvent, DetectionRecord
    from repro.network.message import Message
    from repro.network.simulator import NetworkSimulator
    from repro.network.topology import Topology

__all__ = ["RunResult", "StatsCollector"]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@dataclass
class RunResult:
    """Aggregated outcome of one simulation run."""

    config: SimulationConfig
    measured_cycles: int

    # message accounting (measurement window only)
    generated: int = 0
    injected: int = 0
    delivered: int = 0
    recovered: int = 0  # removed by recovery and delivered via recovery lane
    aborted: int = 0  # removed by recovery without delivery
    delivered_flits: int = 0

    # deadlock characterization
    deadlocks: int = 0
    single_cycle_deadlocks: int = 0
    multi_cycle_deadlocks: int = 0
    deadlock_set_sizes: list[int] = field(default_factory=list)
    resource_set_sizes: list[int] = field(default_factory=list)
    knot_cycle_densities: list[int] = field(default_factory=list)
    dependent_counts: list[int] = field(default_factory=list)

    # per-detection samples
    cycle_counts: list[int] = field(default_factory=list)
    cycle_count_saturated: bool = False
    blocked_samples: list[int] = field(default_factory=list)
    blocked_fraction_samples: list[float] = field(default_factory=list)
    in_network_samples: list[int] = field(default_factory=list)

    # timeout-heuristic recovery accounting (detection_mode="timeout")
    timeout_recoveries: int = 0
    unnecessary_recoveries: int = 0  # timeout victims not truly deadlocked

    # timing & starvation
    latency_sum: int = 0
    latency_count: int = 0
    max_latency: int = 0
    max_blocked_duration: int = 0  # longest observed header-blocked stretch

    # -- derived metrics -----------------------------------------------------------
    @property
    def delivered_total(self) -> int:
        """Messages that reached their destination, including via recovery."""
        return self.delivered + self.recovered

    @property
    def normalized_deadlocks(self) -> float:
        """Deadlocks per message delivered (the paper's headline metric)."""
        if self.delivered_total == 0:
            return float("inf") if self.deadlocks else 0.0
        return self.deadlocks / self.delivered_total

    @property
    def avg_deadlock_set_size(self) -> float:
        return _mean(self.deadlock_set_sizes)

    @property
    def avg_resource_set_size(self) -> float:
        return _mean(self.resource_set_sizes)

    @property
    def avg_knot_cycle_density(self) -> float:
        return _mean(self.knot_cycle_densities)

    @property
    def avg_cycle_count(self) -> float:
        return _mean(self.cycle_counts)

    @property
    def max_cycle_count(self) -> int:
        return max(self.cycle_counts, default=0)

    @property
    def avg_blocked_fraction(self) -> float:
        return _mean(self.blocked_fraction_samples)

    @property
    def avg_messages_in_network(self) -> float:
        return _mean(self.in_network_samples)

    @property
    def avg_latency(self) -> float:
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    @property
    def throughput_flits_per_node_cycle(self) -> float:
        if self.measured_cycles == 0:
            return 0.0
        return self.delivered_flits / (
            self.measured_cycles * self.config.num_nodes
        )

    def normalized_throughput(self, capacity: float) -> float:
        """Delivered throughput as a fraction of network capacity."""
        if capacity <= 0:
            return 0.0
        return self.throughput_flits_per_node_cycle / capacity

    def summary(self) -> str:
        """A compact single-line report used by examples and experiments."""
        return (
            f"load={self.config.load:.2f} delivered={self.delivered_total} "
            f"deadlocks={self.deadlocks} "
            f"norm={self.normalized_deadlocks:.4f} "
            f"cycles(avg)={self.avg_cycle_count:.1f} "
            f"blocked%={100 * self.avg_blocked_fraction:.1f} "
            f"latency={self.avg_latency:.1f}"
        )


class StatsCollector:
    """Accumulates statistics during a run; produces a :class:`RunResult`."""

    def __init__(self, config: SimulationConfig, topology: "Topology") -> None:
        self.config = config
        self.capacity = topology.capacity_flits_per_node_cycle
        self.measure_start = config.warmup_cycles
        self._result = RunResult(config=config, measured_cycles=0)

    def _measuring(self, cycle: int) -> bool:
        return cycle > self.measure_start

    # -- event hooks ----------------------------------------------------------------
    def on_generated(self, cycle: int) -> None:
        if self._measuring(cycle):
            self._result.generated += 1

    def on_injected(self, cycle: int) -> None:
        if self._measuring(cycle):
            self._result.injected += 1

    def on_delivered(self, message: "Message", cycle: int) -> None:
        if not self._measuring(cycle):
            return
        r = self._result
        r.delivered += 1
        r.delivered_flits += message.length
        latency = message.latency
        if latency is not None:
            r.latency_sum += latency
            r.latency_count += 1
            if latency > r.max_latency:
                r.max_latency = latency

    def on_recovered(self, message: "Message", cycle: int) -> None:
        if not self._measuring(cycle):
            return
        r = self._result
        if message.status.value == "recovered":
            r.recovered += 1
            r.delivered_flits += message.length
        else:
            r.aborted += 1

    def on_timeout_recovery(self, cycle: int, *, necessary: bool) -> None:
        if not self._measuring(cycle):
            return
        self._result.timeout_recoveries += 1
        if not necessary:
            self._result.unnecessary_recoveries += 1

    def on_detection(self, record: "DetectionRecord", sim: "NetworkSimulator") -> None:
        if not self._measuring(record.cycle):
            return
        r = self._result
        for event in record.events:
            r.deadlocks += 1
            if event.classification == "single-cycle":
                r.single_cycle_deadlocks += 1
            else:
                r.multi_cycle_deadlocks += 1
            r.deadlock_set_sizes.append(event.deadlock_set_size)
            r.resource_set_sizes.append(event.resource_set_size)
            r.knot_cycle_densities.append(event.knot_cycle_density)
            r.dependent_counts.append(len(event.dependent))
        if record.cycle_count is not None:
            r.cycle_counts.append(record.cycle_count.count)
            if record.cycle_count.saturated:
                r.cycle_count_saturated = True
        # Use the population captured at the detection instant (before any
        # recovery removals) so blocked fractions stay in [0, 1].
        in_net = record.messages_in_network
        # waiting_messages() is exactly the blocked_since-bearing subset of
        # the population; the fast path maintains it incrementally so this
        # is not a full-population scan there
        for m in sim.waiting_messages():
            stretch = record.cycle - m.blocked_since
            if stretch > r.max_blocked_duration:
                r.max_blocked_duration = stretch
        r.blocked_samples.append(record.blocked_messages)
        r.blocked_fraction_samples.append(
            record.blocked_messages / in_net if in_net else 0.0
        )
        r.in_network_samples.append(in_net)

    # -- finalization -------------------------------------------------------------------
    def finalize(self, sim: "NetworkSimulator") -> RunResult:
        self._result.measured_cycles = max(0, sim.cycle - self.measure_start)
        return self._result
