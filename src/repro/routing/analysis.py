"""Static analysis of routing relations: channel dependency graphs.

The avoidance-theory counterpart of the CWG.  Where a CWG snapshots the
*dynamic* waits existing at one instant, the **channel dependency graph**
(CDG) of Dally & Seitz encodes every dependency a routing relation *could*
create: an arc ``u -> v`` whenever some message may hold VC ``u`` while
requesting VC ``v``.  A routing algorithm with an acyclic CDG is
deadlock-free; Duato's refinement only requires an acyclic *escape*
sub-relation.

These tools let users statically audit a routing function the way the
test-suite audits the built-in baselines:

* :func:`channel_dependency_graph` — build the CDG by enumerating every
  (source, destination) pair and following the relation;
* :func:`dependency_cycles` — the simple cycles of a CDG (bounded);
* :func:`is_acyclic` / :func:`certify_deadlock_free` — acyclicity check
  and a human-readable certification report;
* :func:`is_connected_routing` — the premise under which the CWG-knot
  criterion is exact: the relation supplies at least one candidate at
  every non-destination (node, destination) state.

For adaptive relations the CDG is built over *all* candidate continuations
at each reachable (node, destination) state, which is exact for the
minimal relations in this package (candidate sets depend only on the
current node, destination, and — for dateline classes — the source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cycles import CycleCount, count_simple_cycles
from repro.core.knots import strongly_connected_components
from repro.errors import RoutingError
from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.message import Message
from repro.network.topology import Topology
from repro.routing.base import RoutingFunction

__all__ = [
    "channel_dependency_graph",
    "dependency_cycles",
    "is_acyclic",
    "DeadlockFreedomReport",
    "certify_deadlock_free",
    "is_connected_routing",
]


def channel_dependency_graph(
    routing: RoutingFunction,
    topology: Topology,
    pool: ChannelPool,
    *,
    max_hops: Optional[int] = None,
) -> dict[int, list[int]]:
    """The CDG induced by ``routing`` over every (src, dest) pair.

    Vertices are global VC indices; an arc ``u -> v`` is added whenever a
    message travelling src→dest may occupy ``u`` at some hop and ``v`` is a
    candidate for its next hop.  All candidate branches are explored
    (breadth-first over (node, held-VC) states), so adaptive relations are
    covered exactly.  A pair the relation is not defined for raises
    :class:`~repro.errors.RoutingError` (:meth:`RoutingFunction.validate`).
    """
    routing.validate(topology, pool)
    if max_hops is None:
        max_hops = 4 * topology.num_nodes  # generous loop guard
    arcs: set[tuple[int, int]] = set()
    vertices: set[int] = set()
    for src in range(topology.num_nodes):
        for dest in range(topology.num_nodes):
            if src == dest:
                continue
            message = Message(0, src, dest, 2, 0)
            # state: (node, vc just acquired or None at injection)
            frontier: list[tuple[int, Optional[VirtualChannel]]] = [(src, None)]
            seen: set[tuple[int, Optional[int]]] = set()
            hops = 0
            while frontier and hops <= max_hops:
                hops += 1
                nxt: list[tuple[int, Optional[VirtualChannel]]] = []
                for node, held in frontier:
                    if node == dest:
                        continue
                    # The relation may consult the held chain (e.g. the
                    # misrouting variant); present a minimal facsimile.
                    message.vcs = [held] if held is not None else []
                    candidates = routing.candidates(message, node, topology, pool)
                    for vc in candidates:
                        vertices.add(vc.index)
                        if held is not None:
                            arcs.add((held.index, vc.index))
                        state = (vc.dst, vc.index)
                        if state not in seen:
                            seen.add(state)
                            nxt.append((vc.dst, vc))
                frontier = nxt
            message.vcs = []
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in sorted(arcs):
        adj[u].append(v)
    return adj


def dependency_cycles(
    adj: dict[int, list[int]], limit: int = 10_000
) -> CycleCount:
    """Number of simple cycles in a CDG (capped)."""
    return count_simple_cycles(adj, limit=limit)


def is_acyclic(adj: dict[int, list[int]]) -> bool:
    """True when the CDG contains no cycle (Dally/Seitz criterion)."""
    for comp in strongly_connected_components(adj):
        if len(comp) > 1:
            return False
        (v,) = comp
        if v in adj.get(v, ()):
            return False
    return True


@dataclass(frozen=True)
class DeadlockFreedomReport:
    """Outcome of a static deadlock-freedom certification."""

    routing_name: str
    vertices: int
    arcs: int
    acyclic: bool
    cycle_count: int
    cycle_count_saturated: bool
    #: one example dependency cycle, if any (VC indices)
    example_cycle: Optional[tuple[int, ...]]

    @property
    def certified(self) -> bool:
        """Acyclicity is sufficient (not necessary) for deadlock freedom."""
        return self.acyclic

    def summary(self) -> str:
        if self.acyclic:
            return (
                f"{self.routing_name}: CDG acyclic over {self.vertices} VCs / "
                f"{self.arcs} dependencies -> deadlock-free (Dally-Seitz)"
            )
        more = "+" if self.cycle_count_saturated else ""
        return (
            f"{self.routing_name}: CDG has {self.cycle_count}{more} dependency "
            f"cycles (e.g. {self.example_cycle}) -> deadlock possible unless "
            "an escape sub-relation exists (Duato)"
        )


def certify_deadlock_free(
    routing: RoutingFunction,
    topology: Topology,
    pool: ChannelPool,
    *,
    cycle_limit: int = 10_000,
) -> DeadlockFreedomReport:
    """Build the CDG and report acyclicity plus cycle statistics."""
    adj = channel_dependency_graph(routing, topology, pool)
    acyclic = is_acyclic(adj)
    example: Optional[tuple[int, ...]] = None
    count = CycleCount(0, False)
    if not acyclic:
        from repro.core.cycles import enumerate_simple_cycles

        cycles, saturated = enumerate_simple_cycles(adj, limit=cycle_limit)
        count = CycleCount(len(cycles), saturated)
        example = tuple(cycles[0]) if cycles else None
    return DeadlockFreedomReport(
        routing_name=routing.name,
        vertices=len(adj),
        arcs=sum(len(v) for v in adj.values()),
        acyclic=acyclic,
        cycle_count=count.count,
        cycle_count_saturated=count.saturated,
        example_cycle=example,
    )


def is_connected_routing(
    routing: RoutingFunction,
    topology: Topology,
    pool: ChannelPool,
) -> bool:
    """Verify the connectivity premise of the knot criterion.

    For every ordered (node, destination) pair with ``node != destination``
    the relation must supply at least one candidate VC whose link makes
    progress possible (the CWG-knot equivalence assumes blocked messages
    always have *some* requestable resource).  Routing functions in this
    package raise :class:`~repro.errors.RoutingError` on empty candidate
    sets, so this checker doubles as an exhaustive probe of that guard.  A
    pair :meth:`RoutingFunction.validate` refuses is not connected either.
    """
    try:
        routing.validate(topology, pool)
    except RoutingError:
        return False
    probe = Message(0, 0, 1, 2, 0)
    for src in range(topology.num_nodes):
        for dest in range(topology.num_nodes):
            if src == dest:
                continue
            probe.src, probe.dest = src, dest
            # check every node reachable on *some* minimal path
            frontier = {src}
            seen = set()
            while frontier:
                node = frontier.pop()
                if node == dest or node in seen:
                    continue
                seen.add(node)
                try:
                    candidates = routing.candidates(probe, node, topology, pool)
                except RoutingError:
                    return False
                if not candidates:
                    return False
                frontier.update(vc.dst for vc in candidates)
    return True
