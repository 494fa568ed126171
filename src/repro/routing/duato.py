"""Duato-protocol adaptive routing: avoidance with escape channels.

Duato's theory (the paper's reference [3]/[7]) permits cyclic dependencies
among *adaptive* channels as long as an acyclic *escape* sub-network remains
reachable from every blocked state.  Here the escape sub-network is dateline
dimension-order routing pinned to VC classes {0, 1} (class 0 before the
dateline, class 1 after), and classes {2..V-1} are fully adaptive on any
minimal physical channel.  On a torus this needs >= 3 VCs; on a mesh the
escape is plain DOR on class 0 and >= 2 VCs suffice.

Escape VCs are reserved: adaptive traffic never occupies them, preserving
the acyclicity of the escape dependency graph.  This is the canonical
cyclic-non-deadlock generator: its CWGs routinely contain cycles (Figure 4
of the paper) yet never a knot, because the escape VC is always an outgoing
arc leaving the would-be knot.
"""

from __future__ import annotations

from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import KAryNCube, Mesh, Topology
from repro.routing.base import RoutingFunction
from repro.routing.dateline import DatelineDOR
from repro.routing.dor import DimensionOrderRouting

__all__ = ["DuatoProtocolRouting"]


class DuatoProtocolRouting(RoutingFunction):
    """Fully adaptive routing over adaptive VCs plus a dateline-DOR escape."""

    name = "Duato"
    deadlock_free = True
    min_vcs = 3
    topology_class = KAryNCube

    def validate(self, topology: Topology, pool: ChannelPool) -> None:
        super().validate(topology, pool)
        # the escape sub-network is refused wherever dateline DOR is
        DatelineDOR().validate(topology, pool)

    def vcs_required(self, topology: Topology) -> int:
        # one adaptive class above the escape classes: two escape classes on
        # a torus, one on a mesh, whose DOR is acyclic on its own
        return self.min_vcs - 1 if isinstance(topology, Mesh) else self.min_vcs

    def candidates(
        self,
        message: Message,
        node: int,
        topology: KAryNCube,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        adaptive_start = 1 if isinstance(topology, Mesh) else 2
        out: list[VirtualChannel] = []
        for link in topology.productive_links(node, message.dest):
            out.extend(pool.vcs_of_link(link)[adaptive_start:])
        out.append(self._escape_vc(message, node, topology, pool))
        return self._require_progress(message, node, out)

    def cache_key(self, message, node):
        return (node, message.dest, message.src)

    @staticmethod
    def _escape_vc(
        message: Message, node: int, topology: KAryNCube, pool: ChannelPool
    ) -> VirtualChannel:
        """The single escape VC: dateline-DOR on classes {0, 1}."""
        link = DimensionOrderRouting._next_link(message, node, topology)
        # mesh DOR is acyclic on its own: class 0 throughout
        crossed = not isinstance(topology, Mesh) and (
            DatelineDOR._crossed_dateline(message, node, link, topology)
        )
        return pool.vcs_of_link(link)[1 if crossed else 0]
