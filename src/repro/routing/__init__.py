"""Routing algorithms and channel-selection policies.

Subjects of the paper's study (deadlock possible, recovery required):

* :class:`DimensionOrderRouting` — static DOR, unrestricted VC use.
* :class:`TrueFullyAdaptiveRouting` — minimal TFAR, unrestricted VC use.
* :class:`MisroutingTFAR` — non-minimal extension (future-work section).

Avoidance-based baselines (provably deadlock-free):

* :class:`DatelineDOR` — Dally/Seitz dateline VC classes on tori.
* :class:`DuatoProtocolRouting` — adaptive with escape channels.
* :class:`NegativeFirstRouting` — Glass/Ni turn model on meshes.

Topology-zoo relations (see docs/TOPOLOGIES.md):

* :class:`DragonflyMinimal` / :class:`DragonflyValiant` — hierarchical
  minimal and Valiant-style non-minimal dragonfly routing (deadlock
  possible in both).
* :class:`FullMeshDirect` — single-hop direct routing, deadlock-free
  without VC restrictions.
* :class:`FullMeshMisroute` — one optional intermediate hop; misrouting
  reintroduces hold-and-wait cycles.
"""

from repro.routing.analysis import (
    DeadlockFreedomReport,
    certify_deadlock_free,
    channel_dependency_graph,
    is_acyclic,
    is_connected_routing,
)
from repro.routing.base import RoutingFunction
from repro.routing.dateline import DatelineDOR
from repro.routing.dor import DimensionOrderRouting
from repro.routing.duato import DuatoProtocolRouting
from repro.routing.selection import (
    LowestIndexFirst,
    RandomSelection,
    SelectionPolicy,
    StraightThroughFirst,
    make_selection,
)
from repro.routing.hierarchical import (
    DragonflyMinimal,
    DragonflyValiant,
    FullMeshDirect,
    FullMeshMisroute,
)
from repro.routing.tfar import MisroutingTFAR, TrueFullyAdaptiveRouting
from repro.routing.turnmodel import NegativeFirstRouting

__all__ = [
    "RoutingFunction",
    "DeadlockFreedomReport",
    "certify_deadlock_free",
    "channel_dependency_graph",
    "is_acyclic",
    "is_connected_routing",
    "DimensionOrderRouting",
    "TrueFullyAdaptiveRouting",
    "MisroutingTFAR",
    "DatelineDOR",
    "DuatoProtocolRouting",
    "NegativeFirstRouting",
    "DragonflyMinimal",
    "DragonflyValiant",
    "FullMeshDirect",
    "FullMeshMisroute",
    "SelectionPolicy",
    "StraightThroughFirst",
    "RandomSelection",
    "LowestIndexFirst",
    "make_selection",
    "make_routing",
]

_ROUTERS = {
    "dor": DimensionOrderRouting,
    "tfar": TrueFullyAdaptiveRouting,
    "tfar-mis": MisroutingTFAR,
    "dor-dateline": DatelineDOR,
    "duato": DuatoProtocolRouting,
    "negative-first": NegativeFirstRouting,
    "df-min": DragonflyMinimal,
    "df-val": DragonflyValiant,
    "fm-direct": FullMeshDirect,
    "fm-2hop": FullMeshMisroute,
}


def make_routing(name: str) -> RoutingFunction:
    """Instantiate a routing function by its short name (case-insensitive)."""
    try:
        return _ROUTERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown routing algorithm {name!r}; choose from {sorted(_ROUTERS)}"
        ) from None
