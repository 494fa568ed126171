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

The indices are a function of the key and the network shape alone, so
they live in an index memo every simulator of one shape shares
(:func:`repro.network.simulator.network_shape`); a table only maps them
onto its own pool's VC objects.  Index entries are built lazily through
the relation's own ``candidates`` call, so contents equal an unmemoized
query by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import Topology
    from repro.routing.base import RoutingFunction

__all__ = ["CandidateTable", "MEMO_KEPT"]

#: index entries one shape's memo takes; past it a table keeps new keys to
#: itself, so a long-lived process holds at most this many per shape
MEMO_KEPT = 1 << 16


class CandidateTable:
    """Lazily-built ``cache_key -> (candidates, indices)`` table over a
    ``cache_key -> indices`` memo."""

    def __init__(
        self,
        routing: "RoutingFunction",
        topology: "Topology",
        pool: "ChannelPool",
        memo: dict,
    ) -> None:
        self.routing = routing
        self.topology = topology
        self.pool = pool
        self.memo = memo
        #: the memo itself; the engines' serve loops read and fill it
        #: directly to spare a call per request
        self.table: dict = {}

    def lookup(self, message: "Message", node: int) -> tuple:
        """``(candidates, index_tuple)`` for the message's position."""
        key = self.routing.cache_key(message, node)
        entry = self.table.get(key)
        if entry is None:
            idxs = self.memo.get(key)
            if idxs is None:
                cands = self.routing.candidates(
                    message, node, self.topology, self.pool
                )
                idxs = tuple(vc.index for vc in cands)
                if len(self.memo) < MEMO_KEPT:
                    self.memo[key] = idxs
            else:
                vcs = self.pool.vcs
                cands = [vcs[i] for i in idxs]
            entry = self.table[key] = (cands, idxs)
        return entry
