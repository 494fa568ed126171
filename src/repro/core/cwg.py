"""Channel wait-for graphs (CWGs).

The paper's central modelling device (Section 2.1): a snapshot of the
network's *dynamic* resource state at one instant.

* **Vertices** are virtual channels (plus reception channels, which messages
  can also wait on).
* **Solid arcs** chain the VCs a message currently owns, in the temporal
  order they were acquired; every solid arc is labelled with its owner.
* **Dashed arcs** connect a blocked message's most recently acquired VC to
  every VC its routing function supplies at the blocked header's node — the
  alternatives it is waiting for.

Unlike the channel *dependency* graphs of avoidance theory, which encode the
static relation a routing algorithm permits, a CWG reflects the allocations
and requests that exist right now, so the CWG of an entire network need not
be connected.

This class is deliberately decoupled from the simulator: tests build CWGs
directly from the paper's Figures 1–4, and the detector builds them from
live network state.  :func:`worm_graph` is the one wait-for graph over
*messages*; :func:`packet_wait_for_graph` is a projection of it.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.errors import SimulationError

__all__ = ["ChannelWaitForGraph", "worm_graph", "packet_wait_for_graph"]

Vertex = Hashable


class ChannelWaitForGraph:
    """A snapshot wait-for graph over channel resources."""

    def __init__(self) -> None:
        #: vertex -> owning message id (None for free/virtual vertices)
        self.owner: dict[Vertex, int | None] = {}
        #: message id -> its owned chain, tail-to-head acquisition order
        self.chains: dict[int, list[Vertex]] = {}
        #: message id -> vertices it is waiting for (dashed arc targets)
        self.requests: dict[int, list[Vertex]] = {}
        #: message id -> source vertex of its dashed arcs (its newest VC)
        self.request_from: dict[int, Vertex] = {}

    # -- construction ---------------------------------------------------------------
    def add_ownership_chain(self, message: int, chain: Iterable[Vertex]) -> None:
        """Record the solid-arc chain of ``message`` (acquisition order)."""
        chain = list(chain)
        if message in self.chains:
            raise SimulationError(f"message {message} already has a chain")
        if not chain:
            raise SimulationError(f"empty ownership chain for message {message}")
        for v in chain:
            prior = self.owner.get(v)
            if prior is not None and prior != message:
                raise SimulationError(
                    f"vertex {v!r} owned by both {prior} and {message}: "
                    "exclusive ownership violated"
                )
            self.owner[v] = message
        self.chains[message] = chain

    def add_request(self, message: int, targets: Iterable[Vertex]) -> None:
        """Record the dashed arcs of blocked ``message``.

        The arcs originate at the message's most recently acquired vertex,
        so the message must already have an ownership chain.
        """
        targets = list(targets)
        if message not in self.chains:
            raise SimulationError(
                f"blocked message {message} owns no resources; requests from "
                "source-queued messages are not part of the CWG"
            )
        if message in self.requests:
            raise SimulationError(f"message {message} already has requests")
        if not targets:
            raise SimulationError(f"blocked message {message} waits on nothing")
        for t in targets:
            self.owner.setdefault(t, None)
        self.requests[message] = targets
        self.request_from[message] = self.chains[message][-1]

    # -- queries ----------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.owner)

    @property
    def num_arcs(self) -> int:
        solid = sum(len(c) - 1 for c in self.chains.values())
        dashed = sum(len(t) for t in self.requests.values())
        return solid + dashed

    def blocked_messages(self) -> list[int]:
        """Messages with outstanding dashed arcs."""
        return list(self.requests)

    def messages_owning(self, vertices: Iterable[Vertex]) -> set[int]:
        """Distinct owners of the given vertices (ignoring free vertices)."""
        out = set()
        for v in vertices:
            o = self.owner.get(v)
            if o is not None:
                out.add(o)
        return out

    def resources_of(self, messages: Iterable[int]) -> set[Vertex]:
        """Every vertex owned by any of the given messages."""
        out: set[Vertex] = set()
        for m in messages:
            out.update(self.chains.get(m, ()))
        return out

    def adjacency(self) -> dict[Vertex, list[Vertex]]:
        """Successor lists combining solid and dashed arcs."""
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in self.owner}
        for chain in self.chains.values():
            for u, v in zip(chain, chain[1:]):
                adj[u].append(v)
        for message, targets in self.requests.items():
            src = self.request_from[message]
            adj[src].extend(targets)
        return adj


def worm_graph(cwg: ChannelWaitForGraph) -> dict[int, list]:
    """The worm multigraph ``W`` of a CWG (THEORY.md §3.1).

    One node per message that owns resources and one arc ``m -> owner(t)``
    per request target ``t`` of a blocked ``m``, in request order.  An arc
    to a free target goes to ``None`` — the free sentinel ``⊥``, which has
    no arcs — and a target in ``m``'s own chain is a self-loop.  Unblocked
    messages map to ``()``.
    """
    owner = cwg.owner  # every request target is a vertex (add_request)
    succ: dict = dict.fromkeys(cwg.chains, ())
    for mid, targets in cwg.requests.items():
        succ[mid] = [owner[t] for t in targets]
    return succ


def packet_wait_for_graph(cwg: ChannelWaitForGraph) -> dict[int, list[int]]:
    """The message-level wait-for graph of Dally & Aoki (paper §2.3).

    The projection of :func:`worm_graph` that drops exactly what makes
    ``W`` exact: arcs to ``⊥``, self-waits and parallel arcs (deduplicated
    in first-seen order).  An arc ``a -> b`` means blocked ``a`` waits on a
    channel ``b`` owns; messages owning resources but waiting on nothing
    (the m2/m4 of Figure 1) are arcless vertices.
    """
    return {
        m: [w for w in dict.fromkeys(arcs) if w is not None and w != m]
        for m, arcs in worm_graph(cwg).items()
    }
