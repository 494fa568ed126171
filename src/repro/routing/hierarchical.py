"""Routing for the hierarchical topology-zoo classes: dragonfly, full mesh.

All four relations here keep the paper's "unrestricted VC use" discipline —
no dateline classes, no escape channels — so the knot characterization
applies unchanged:

* :class:`DragonflyMinimal` ("df-min") — classic hierarchical minimal
  routing (local to a gateway, one global hop, local to the destination).
  Hold-and-wait chains span the local/global boundary, so cycles — and
  deadlocks — can form; this is the dragonfly study subject.
* :class:`DragonflyValiant` ("df-val") — a Valiant-style non-minimal
  adapter: from the source group a message may take *any* global channel
  (routing via a random intermediate group, the randomness supplied by the
  allocator's adaptive choice), then routes minimally.  Spreads load off
  hot global channels at the cost of longer paths.
* :class:`FullMeshDirect` ("fm-direct") — single-hop direct routing.  A
  message holds at most one virtual channel and waits only on reception,
  which always drains, so no hold-and-wait cycle can close: provably
  deadlock free without any VC discipline.
* :class:`FullMeshMisroute` ("fm-2hop") — direct plus one optional
  intermediate hop.  Two-hop paths reintroduce hold-and-wait (a worm can
  hold its first-leg channel while waiting for its second leg), so cycles
  and knots return; this is the full-mesh study subject.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import Dragonfly, FullMesh
from repro.routing.base import RoutingFunction

__all__ = [
    "DragonflyMinimal",
    "DragonflyValiant",
    "FullMeshDirect",
    "FullMeshMisroute",
]


class DragonflyMinimal(RoutingFunction):
    """Hierarchical minimal routing on a dragonfly (local-global-local).

    At each hop:

    * in the destination group — the direct local channel to the
      destination router;
    * elsewhere, at a router with a global channel to the destination
      group — that global channel;
    * otherwise — the local channels to this group's gateway routers
      (those owning a global channel to the destination group).

    Every VC of each selected physical channel is a candidate
    (unrestricted VC use), so deadlock is possible.
    """

    name = "df-min"
    deadlock_free = False
    topology_class = Dragonfly

    def _minimal_links(self, dest: int, node: int, topology: Dragonfly):
        g = topology.group_of(node)
        gd = topology.group_of(dest)
        if g == gd:
            return [topology.link_between(node, dest)]
        direct = [
            link
            for link in topology.global_links(node)
            if topology.group_of(link.dst) == gd
        ]
        if direct:
            return direct
        out = []
        for link in topology.out_links(node):
            if link.dim != 0:
                continue
            gateway = link.dst
            if any(
                topology.group_of(gl.dst) == gd
                for gl in topology.global_links(gateway)
            ):
                out.append(link)
        if out:
            return out
        # No single-global path from this group (only possible with a
        # truncated groups count); fall back to graph-minimal hops.
        return topology.productive_links(node, dest)

    def candidates(
        self,
        message: Message,
        node: int,
        topology: Dragonfly,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        out: list[VirtualChannel] = []
        for link in self._minimal_links(message.dest, node, topology):
            out.extend(pool.vcs_of_link(link))
        return self._require_progress(message, node, out)


class DragonflyValiant(DragonflyMinimal):
    """Valiant-style non-minimal dragonfly routing.

    While the header is still inside its *source* group (and the
    destination lies elsewhere), the message may leave through any global
    channel — routing via a random intermediate group, the choice made by
    the allocator among free candidates — or hop to any local peer to
    reach its globals; a message that has taken one local hop must then
    take a global channel.  Once outside the source group it routes
    minimally (:class:`DragonflyMinimal`), so paths are bounded and
    livelock free.
    """

    name = "df-val"
    deadlock_free = False

    def cache_key(self, message, node):
        # the spread phase depends on the source group
        return (node, message.dest, message.src)

    def candidates(
        self,
        message: Message,
        node: int,
        topology: Dragonfly,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        g = topology.group_of(node)
        gd = topology.group_of(message.dest)
        gs = topology.group_of(message.src)
        if g != gs or gd == gs:
            return super().candidates(message, node, topology, pool)
        if node == message.src:
            links = list(topology.out_links(node))
        else:
            # one local hop taken inside the source group: leave now
            links = topology.global_links(node)
            if not links:  # truncated dragonfly: router without globals
                return super().candidates(message, node, topology, pool)
        out: list[VirtualChannel] = []
        for link in links:
            out.extend(pool.vcs_of_link(link))
        return self._require_progress(message, node, out)


class FullMeshDirect(RoutingFunction):
    """Direct (single-hop) routing on a full mesh; provably deadlock free.

    Every message uses only the dedicated channel from its source to its
    destination: it holds at most one virtual channel and waits only on
    that channel or on reception.  Reception always drains, so ownership
    chains have length one and no wait-for cycle can close — deadlock
    freedom without virtual-channel restrictions (cf. arXiv 2510.14730).
    """

    name = "fm-direct"
    deadlock_free = True
    topology_class = FullMesh

    def candidates(
        self,
        message: Message,
        node: int,
        topology: FullMesh,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        if node == message.dest:
            raise RoutingError(
                f"message {message.id} routed at its destination node {node}"
            )
        link = topology.link_between(node, message.dest)
        return self._require_progress(message, node, pool.vcs_of_link(link))


class FullMeshMisroute(FullMeshDirect):
    """Full-mesh routing with one optional intermediate hop ("2-hop").

    At the source the message may take the direct channel *or* misroute
    through any intermediate node; at an intermediate node only the direct
    channel to the destination remains.  The two-hop option restores
    hold-and-wait — a worm can occupy its first-leg channel while its
    header waits for the second leg — so wait-for cycles (and knots) can
    form again.  This is what adaptive misrouting costs on a topology
    whose minimal routing is deadlock free.
    """

    name = "fm-2hop"
    deadlock_free = False

    def cache_key(self, message, node):
        # the misroute option exists only at the source node
        return (node, message.dest, message.src)

    def candidates(
        self,
        message: Message,
        node: int,
        topology: FullMesh,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        if node == message.dest:
            raise RoutingError(
                f"message {message.id} routed at its destination node {node}"
            )
        if node != message.src:
            link = topology.link_between(node, message.dest)
            return self._require_progress(message, node, pool.vcs_of_link(link))
        out: list[VirtualChannel] = []
        for link in topology.out_links(node):
            out.extend(pool.vcs_of_link(link))
        return self._require_progress(message, node, out)
