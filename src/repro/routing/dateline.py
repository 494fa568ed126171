"""Dateline dimension-order routing: the classic deadlock-*avoidance* baseline.

Dally & Seitz's scheme for tori: each unidirectional ring is split into two
virtual-channel classes with a *dateline* at the wraparound link.  A message
travels on low-class VCs until it crosses the dateline in the dimension it is
currently correcting, then switches to high-class VCs.  The resulting channel
dependency graph is acyclic, so this router is provably deadlock-free — the
detector must never report a knot for it (a key validation test), and it
serves as the avoidance side of the recovery-vs-avoidance comparison the
paper motivates.

Requires at least 2 VCs per physical channel on a torus.
"""

from __future__ import annotations

from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import KAryNCube, Mesh, Topology
from repro.routing.dor import DimensionOrderRouting

__all__ = ["DatelineDOR"]


class DatelineDOR(DimensionOrderRouting):
    """Dimension-order routing restricted by dateline VC classes."""

    name = "DOR-dateline"
    deadlock_free = True
    min_vcs = 2

    def vcs_required(self, topology: Topology) -> int:
        # A mesh has no wraparound, so plain DOR is already acyclic and one
        # VC suffices; the class split goes unused there.
        return 1 if isinstance(topology, Mesh) else self.min_vcs

    def candidates(
        self,
        message: Message,
        node: int,
        topology: KAryNCube,
        pool: ChannelPool,
    ) -> list[VirtualChannel]:
        link = self._next_link(message, node, topology)
        vcs = pool.vcs_of_link(link)
        if isinstance(topology, Mesh):
            return self._require_progress(message, node, vcs)
        high = self._crossed_dateline(message, node, link, topology)
        split = max(1, pool.num_vcs // 2)
        chosen = vcs[split:] if high else vcs[:split]
        return self._require_progress(message, node, chosen)

    def cache_key(self, message, node):
        # dateline classes depend on where the message entered the ring
        return (node, message.dest, message.src)

    @staticmethod
    def _crossed_dateline(
        message: Message, node: int, link, topology: KAryNCube
    ) -> bool:
        """Has (or will, with this hop) the message crossed the dateline?

        The dateline of each ring sits on its wraparound link: coordinate
        ``k-1 -> 0`` in the ``+`` direction, ``0 -> k-1`` in ``-``.  Because
        DOR corrects dimensions in order and travels minimally, a message's
        position within the current dimension always lies between its source
        and destination coordinates along the travel direction, so crossing
        can be decided from coordinates alone — no per-message state.
        """
        dim = link.dim
        cur = topology.coords(node)[dim]
        src = topology.coords(message.src)[dim]
        k = topology.dims[dim]
        if link.direction == +1:
            if cur == k - 1:  # this hop *is* the wraparound
                return True
            return cur < src
        if cur == 0:
            return True
        return cur > src
