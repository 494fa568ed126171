"""Turn-model routing (Glass & Ni): avoidance by forbidding turns.

The negative-first turn model for n-dimensional meshes: a message takes all
hops in negative directions before any hop in a positive direction.  Both
phases are fully adaptive within their permitted direction set, and the
scheme is deadlock-free with a **single** virtual channel — forbidding a
quarter of the turns breaks every abstract cycle.  The paper cites the turn
model [2] as a representative avoidance-based algorithm whose restrictions
the characterization study shows to be often overly conservative.

Defined for meshes only (wraparound links would reintroduce ring cycles).
"""

from __future__ import annotations

from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import Mesh
from repro.routing.base import RoutingFunction

__all__ = ["NegativeFirstRouting"]


class NegativeFirstRouting(RoutingFunction):
    """Negative-first turn-model routing for k-ary n-meshes."""

    name = "negative-first"
    deadlock_free = True
    topology_class = Mesh

    def candidates(
        self,
        message: Message,
        node: int,
        topology: Mesh,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        productive = topology.productive_directions(node, message.dest)
        negative = [(d, s) for d, s in productive if s < 0]
        phase = negative if negative else productive
        out: list[VirtualChannel] = []
        for dim, direction in phase:
            link = topology.link_between(
                node, topology.neighbour(node, dim, direction)
            )
            out.extend(pool.vcs_of_link(link))
        return self._require_progress(message, node, out)
