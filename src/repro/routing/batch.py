"""The engine's candidate memo for position-pure routing relations.

Every built-in relation (DOR, TFAR and friends) exposes a
:meth:`~repro.routing.base.RoutingRelation.cache_key` making its candidate
set a pure function of message position.  :class:`CandidateTable` is the
one memo every consumer shares — the allocate loops,
:meth:`NetworkSimulator.route_candidates` and through it the detector's
CWG rebuild — so a position is routed once per run, not once per reader.
Per key it holds:

* the candidate VC objects (for the serve loop), and
* their global indices as a ready-made tuple (the production engine's
  wait-key registration consumes exactly this tuple, so it is not rebuilt
  per blocked attempt).

Entries are built lazily through the relation's own ``candidates`` call,
so contents equal an unmemoized query by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import Topology
    from repro.routing.base import RoutingRelation

__all__ = ["CandidateTable"]


class CandidateTable:
    """Lazily-built ``cache_key -> (candidates, indices)`` table."""

    def __init__(
        self,
        routing: "RoutingRelation",
        topology: "Topology",
        pool: "ChannelPool",
    ) -> None:
        self.routing = routing
        self.topology = topology
        self.pool = pool
        #: per-VC link dimension (the straight-through selection collapse),
        #: plain list for scalar hot-path reads
        self.vc_dim: list[int] = [vc.link.dim for vc in pool.vcs]
        #: the memo itself; the engines' serve loops read and fill it
        #: directly to spare a call per request
        self.table: dict = {}

    def lookup(self, message: "Message", node: int) -> Optional[tuple]:
        """``(candidates, index_tuple)`` for the message's position.

        Returns None when the relation declines memoization (``cache_key``
        None) — the caller falls back to a direct relation call.
        """
        key = self.routing.cache_key(message, node)
        if key is None:
            return None
        entry = self.table.get(key)
        if entry is None:
            cands = self.routing.candidates(
                message, node, self.topology, self.pool
            )
            entry = (cands, tuple(vc.index for vc in cands))
            self.table[key] = entry
        return entry
