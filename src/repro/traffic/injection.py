"""Message generation and load normalization.

Offered load is expressed as a fraction of network capacity, following the
paper: "Normalized load rate is calculated based on total link bandwidth and
average internode distance" — so a load of 1.0 means each node injects
``capacity_flits_per_node_cycle`` flits per cycle on average, which differs
between (say) the uni- and bidirectional tori of Figure 5.

Generation is a Bernoulli process per node per cycle with success
probability ``load * capacity / message_length``; each success creates one
message whose destination comes from the traffic pattern.  Source queues are
unbounded (the paper applies loads "up to full network capacity or until the
network saturates"); a per-source cap can bound queue growth deep into
saturation so that offered load stays meaningful.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.network.draws import Draws
from repro.network.message import Message
from repro.network.topology import Topology
from repro.traffic.lengths import FixedLength, LengthSampler
from repro.traffic.patterns import TrafficPattern

__all__ = ["MessageGenerator"]


class MessageGenerator:
    """Bernoulli message source for every node of the network."""

    def __init__(
        self,
        topology: Topology,
        pattern: TrafficPattern,
        load: float,
        message_length: int,
        draws: Draws,
        max_queued_per_node: Optional[int] = None,
        lengths: Optional[LengthSampler] = None,
        max_messages: Optional[int] = None,
    ) -> None:
        if load < 0:
            raise ConfigurationError(f"load must be >= 0, got {load}")
        if message_length < 1:
            raise ConfigurationError(
                f"message_length must be >= 1, got {message_length}"
            )
        self.topology = topology
        self.pattern = pattern
        self.load = load
        self.message_length = message_length
        self.lengths = lengths if lengths is not None else FixedLength(message_length)
        self.draws = draws
        self.max_queued_per_node = max_queued_per_node
        # total-generation cap (None = unbounded): once this many messages
        # exist the sources fall silent and consume no further RNG — the
        # bounded-in-flight hook of the model-checking oracle
        # (repro.validation.oracle)
        self.max_messages = max_messages
        capacity = topology.capacity_flits_per_node_cycle
        self.flit_rate = load * capacity  # flits per node per cycle
        # Load is a *flit* rate: normalize by the mean message length so a
        # hybrid-length mix offers the same flit throughput as a fixed one.
        self.message_probability = min(1.0, self.flit_rate / self.lengths.mean)
        self._next_id = 0
        self.generated = 0
        self.suppressed = 0  # generation attempts dropped by the queue cap

    def tick(self, cycle: int, queue_lengths: list[int]) -> list[Message]:
        """Messages created this cycle (possibly none).

        ``queue_lengths[node]`` is the current source-queue depth at each
        node, used only when a queue cap is configured.
        """
        out: list[Message] = []
        p = self.message_probability
        if p <= 0.0:
            return out
        total_cap = self.max_messages
        if total_cap is not None and self.generated >= total_cap:
            return out
        draws = self.draws
        cap = self.max_queued_per_node
        for node in draws.bernoulli(p, self.topology.num_nodes):
            if cap is not None and queue_lengths[node] >= cap:
                self.suppressed += 1
                continue
            dest = self.pattern.dest_for(node, draws)
            if dest is None:
                continue
            msg = Message(self._next_id, node, dest, self.lengths(draws), cycle)
            self._next_id += 1
            self.generated += 1
            out.append(msg)
            if total_cap is not None and self.generated >= total_cap:
                break  # sources fall silent mid-cycle: no further draws
        return out
