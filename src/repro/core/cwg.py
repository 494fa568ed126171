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
live network state.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.errors import SimulationError

__all__ = ["ChannelWaitForGraph"]

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
    def add_vertex(self, vertex: Vertex, owner: int | None = None) -> None:
        """Register a vertex, optionally with an owner but no chain arcs."""
        if vertex in self.owner and self.owner[vertex] is not None:
            if owner is not None and self.owner[vertex] != owner:
                raise SimulationError(
                    f"vertex {vertex!r} already owned by {self.owner[vertex]}"
                )
            return
        self.owner[vertex] = owner

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
    def vertices(self) -> list[Vertex]:
        return list(self.owner)

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

    def fan_out(self, message: int) -> int:
        """Number of alternatives a blocked message waits on (dashed arcs).

        The paper observes that vertex fan-out — set by routing adaptivity
        and the VC count — governs how many unique cycles can form.
        """
        return len(self.requests.get(message, ()))

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

    def solid_arcs(self) -> list[tuple[Vertex, Vertex, int]]:
        """(u, v, owner) triples for every solid arc."""
        out = []
        for message, chain in self.chains.items():
            out.extend((u, v, message) for u, v in zip(chain, chain[1:]))
        return out

    def dashed_arcs(self) -> list[tuple[Vertex, Vertex, int]]:
        """(u, v, requester) triples for every dashed arc."""
        out = []
        for message, targets in self.requests.items():
            src = self.request_from[message]
            out.extend((src, t, message) for t in targets)
        return out

    def to_dot(self) -> str:
        """Graphviz rendering (solid vs dashed arcs), for documentation."""
        lines = ["digraph CWG {", "  rankdir=LR;"]
        for v, o in self.owner.items():
            label = f"{v}" + (f"\\n(m{o})" if o is not None else "")
            lines.append(f'  "{v}" [label="{label}"];')
        for u, v, m in self.solid_arcs():
            lines.append(f'  "{u}" -> "{v}" [label="m{m}"];')
        for u, v, m in self.dashed_arcs():
            lines.append(f'  "{u}" -> "{v}" [style=dashed, label="m{m}"];')
        lines.append("}")
        return "\n".join(lines)
