"""Routing-function interface.

A routing function is a relation ``R(node, message) -> set of output VCs``:
given the router at which a message's header currently resides, it supplies
every virtual channel the message is *permitted* to acquire next.  The
candidate set defines both behaviour (the allocator picks a free candidate)
and the channel wait-for graph (a blocked header waits on exactly its
candidates), so the same object drives the simulation and the deadlock
detector.

The paper's two subject algorithms — dimension-order routing (DOR) and
minimal true fully adaptive routing (TFAR) — place **no restrictions** on
VC use, so deadlock is possible and recovery is required.  The avoidance
baselines (dateline, Duato, turn model) restrict VC use to provably avoid
deadlock and are used to validate the detector and to compare approaches.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import Topology

__all__ = ["RoutingFunction"]


class RoutingFunction:
    """Base class for routing relations.

    Subclasses implement ``candidates(message, node, topology, pool) ->
    list[VirtualChannel]``: all VCs the message may legally acquire at
    ``node``.  The list includes busy VCs — the caller filters for free ones
    when allocating, and uses the busy ones as wait-for arcs when blocked.
    A routing function must be *connected*: for every (node, destination)
    pair with remaining distance, it supplies at least one candidate VC.
    Connectivity is what makes the knot criterion exact (Warnakulasuriya &
    Pinkston, TR CENG 97-05).

    The contract is two declarations, both enforced once by
    :meth:`validate` when the simulator is built: :attr:`topology_class`,
    the topologies the relation routes, and :meth:`cache_key`, which names
    everything ``candidates`` reads.  ``candidates`` itself may then assume
    a topology of its class.
    """

    #: short name used in reports and experiment labels
    name: str = "base"
    #: True when the algorithm provably avoids deadlock (used by tests)
    deadlock_free: bool = False
    #: minimum virtual channels per physical channel the algorithm requires
    min_vcs: int = 1
    #: the topology class the relation routes; :meth:`validate` refuses others
    topology_class: type[Topology] = Topology

    def cache_key(self, message: Message, node: int):
        """Hashable key naming everything :meth:`candidates` reads.

        The engines memoize candidate sets under it (a blocked header
        re-requests the same set every cycle), and both engines and the
        detector read that one memo, so two positions with equal keys must
        have equal candidate sets.  Relations whose candidates read more
        than the node and the destination override this to add it.
        """
        return (node, message.dest)

    def validate(self, topology: Topology, pool: ChannelPool) -> None:
        """Refuse a topology or VC count the relation is not defined for."""
        if not isinstance(topology, self.topology_class):
            raise RoutingError(
                f"{self.name} is defined for {self.topology_class.__name__} "
                f"topologies, got {type(topology).__name__}"
            )
        required = self.vcs_required(topology)
        if pool.num_vcs < required:
            raise RoutingError(
                f"{self.name} requires >= {required} virtual channels on "
                f"this topology, got {pool.num_vcs}"
            )

    def vcs_required(self, topology: Topology) -> int:
        """Virtual channels per physical channel needed on ``topology``."""
        return self.min_vcs

    # -- helpers shared by subclasses ------------------------------------------
    @staticmethod
    def _require_progress(
        message: Message, node: int, out: list[VirtualChannel]
    ) -> list[VirtualChannel]:
        if not out:
            raise RoutingError(
                f"routing produced no candidates for message {message.id} "
                f"at node {node} toward {message.dest} (disconnected relation)"
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
