"""The engine's candidate memo, keyed by each relation's ``cache_key``.

Every relation names in :meth:`~repro.routing.base.RoutingFunction.cache_key`
everything its ``candidates`` reads, so a candidate set is a pure function
of that key.  :class:`CandidateTable` is the one memo every consumer
shares — the allocate loops, :meth:`NetworkSimulator.route_candidates` and
through it the detector's CWG rebuild — so a position is routed once per
run, not once per reader.  Per key it holds:

* the candidate VC objects (for the serve loop), and
* their global indices as a ready-made tuple (the production engine's
  wait-key registration consumes exactly this tuple, so it is not rebuilt
  per blocked attempt).

Entries are built lazily through the relation's own ``candidates`` call,
so contents equal an unmemoized query by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import Topology
    from repro.routing.base import RoutingFunction

__all__ = ["CandidateTable"]


class CandidateTable:
    """Lazily-built ``cache_key -> (candidates, indices)`` table."""

    def __init__(
        self,
        routing: "RoutingFunction",
        topology: "Topology",
        pool: "ChannelPool",
    ) -> None:
        self.routing = routing
        self.topology = topology
        self.pool = pool
        #: the memo itself; the engines' serve loops read and fill it
        #: directly to spare a call per request
        self.table: dict = {}

    def lookup(self, message: "Message", node: int) -> tuple:
        """``(candidates, index_tuple)`` for the message's position."""
        key = self.routing.cache_key(message, node)
        entry = self.table.get(key)
        if entry is None:
            cands = self.routing.candidates(
                message, node, self.topology, self.pool
            )
            entry = (cands, tuple(vc.index for vc in cands))
            self.table[key] = entry
        return entry
