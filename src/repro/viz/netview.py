"""ASCII visualization of live network state and detected deadlocks.

For 2-D networks (the paper's primary subject) these renderers draw the
router grid with per-node congestion, mark blocked headers, and highlight
the channels of a detected knot — making the anatomy of a deadlock (which
the paper illustrates with hand-drawn Figures 1-4) visible for *live*
simulations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.network.topology import KAryNCube

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.detector import DeadlockEvent
    from repro.network.simulator import NetworkSimulator

__all__ = ["render_occupancy", "render_knot", "describe_event"]


def _require_2d(sim: "NetworkSimulator") -> KAryNCube:
    topo = sim.topology
    if not isinstance(topo, KAryNCube) or topo.n != 2:
        raise ConfigurationError("network views require a 2-D k-ary n-cube")
    return topo


def render_occupancy(sim: "NetworkSimulator") -> str:
    """The router grid with buffered-flit counts and blocked-header marks.

    Each cell shows the total flits buffered at the node's input VCs; a
    ``*`` suffix marks nodes where at least one header is blocked.  Row 0
    is printed at the bottom so coordinates read like axes.
    """
    topo = _require_2d(sim)
    flits = [0] * topo.num_nodes
    for vc in sim.pool.vcs:
        flits[vc.dst] += vc.occupancy
    from repro.core.detector import DeadlockDetector

    blocked_at = {
        sim.message_by_id(mid).head_node
        for mid in DeadlockDetector.build_cwg(sim).blocked_messages()
    }
    width = max(3, len(str(max(flits, default=0))) + 1)
    lines = [
        f"cycle {sim.cycle}: {sim.messages_in_network} msgs in flight, "
        f"{len(blocked_at)} nodes with blocked headers"
    ]
    for y in reversed(range(topo.k)):
        row = []
        for x in range(topo.k):
            node = topo.node_at((x, y))
            mark = "*" if node in blocked_at else " "
            row.append(f"{flits[node]}{mark}".rjust(width))
        lines.append(f"y={y:<2} " + " ".join(row))
    lines.append("     " + " ".join(f"x={x}".rjust(width) for x in range(topo.k)))
    return "\n".join(lines)


def render_knot(sim: "NetworkSimulator", event: "DeadlockEvent") -> str:
    """The router grid with the knot's channels drawn as directed marks.

    Nodes whose in- or outgoing channels participate in the knot are
    boxed; the legend lists the deadlock set.
    """
    topo = _require_2d(sim)
    knot_nodes: set[int] = set()
    for v in event.knot:
        if isinstance(v, int):
            vc = sim.pool.vcs[v]
            knot_nodes.add(vc.src)
            knot_nodes.add(vc.dst)
    lines = [
        f"deadlock at cycle {event.cycle}: knot of {len(event.knot)} channels "
        f"across {len(knot_nodes)} routers ({event.classification}, "
        f"density {event.knot_cycle_density})"
    ]
    for y in reversed(range(topo.k)):
        row = []
        for x in range(topo.k):
            node = topo.node_at((x, y))
            row.append("[#]" if node in knot_nodes else " . ")
        lines.append(f"y={y:<2} " + "".join(row))
    lines.append("     " + "".join(f" x{x} "[:3] for x in range(topo.k)))
    lines.append(
        f"deadlock set: messages {sorted(event.deadlock_set)}; "
        f"resource set {event.resource_set_size} channels"
    )
    return "\n".join(lines)


def describe_event(event: "DeadlockEvent") -> str:
    """A multi-line anatomy of one detected deadlock."""
    lines = [
        f"deadlock @ cycle {event.cycle} ({event.classification})",
        f"  knot               : {len(event.knot)} channels",
        f"  deadlock set       : {sorted(event.deadlock_set)}",
        f"  resource set       : {event.resource_set_size} channels",
        f"  knot cycle density : {event.knot_cycle_density}"
        + (" (capped)" if event.density_saturated else ""),
    ]
    if event.dependent:
        lines.append(f"  dependent messages : {sorted(event.dependent)}")
    if event.transient_dependent:
        lines.append(
            f"  transient deps     : {sorted(event.transient_dependent)}"
        )
    return "\n".join(lines)
