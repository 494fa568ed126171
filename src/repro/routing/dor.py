"""Dimension-order routing (DOR) with unrestricted virtual-channel use.

The paper's static routing subject: each message corrects its address one
dimension at a time, lowest dimension first, always taking a minimal
direction.  All VCs of the selected physical channel may be used without
restriction, so in a torus DOR **can deadlock** (the classic ring cycle of
Figure 1); the paper measures exactly how often.

Direction choice within a dimension is fixed per (source, destination): the
shorter way around the ring, breaking the even-radix tie toward ``+``.  A
static choice is required for DOR to be truly non-adaptive.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import IrregularTorus, KAryNCube, Topology
from repro.routing.base import RoutingFunction

__all__ = ["DimensionOrderRouting"]


class DimensionOrderRouting(RoutingFunction):
    """Static dimension-order routing for k-ary n-cubes and meshes."""

    name = "DOR"
    deadlock_free = False
    topology_class = KAryNCube

    def validate(self, topology: Topology, pool: ChannelPool) -> None:
        super().validate(topology, pool)
        if isinstance(topology, IrregularTorus):
            raise RoutingError(
                "the DOR family (dor, dor-dateline, duato's escape) routes one "
                "path per pair, with no detour around a failed link; route a "
                "failed-link torus with tfar or tfar-mis"
            )

    def candidates(
        self,
        message: Message,
        node: int,
        topology: KAryNCube,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        link = self._next_link(message, node, topology)
        return self._require_progress(message, node, pool.vcs_of_link(link))

    @staticmethod
    def _next_link(message: Message, node: int, topology: KAryNCube):
        productive = topology.productive_directions(node, message.dest)
        if not productive:
            raise RoutingError(
                f"message {message.id} routed at its destination node {node}"
            )
        lowest = min(dim for dim, _ in productive)
        # An even-radix torus offers both directions when the offset is
        # exactly k/2; a static algorithm must pick one, so prefer ``+``.
        direction = max(d for dim, d in productive if dim == lowest)
        return topology.link_between(
            node, topology.neighbour(node, lowest, direction)
        )
