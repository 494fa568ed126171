"""The paper's contribution: CWGs, knots, cycles, detection, recovery."""

from repro.core.cwg import ChannelWaitForGraph, packet_wait_for_graph, worm_graph
from repro.core.gallery import figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg
from repro.core.cycles import (
    ContractedGraph,
    CycleCount,
    contract_graph,
    count_cycles_contracted,
    count_simple_cycles,
    enumerate_simple_cycles,
)
from repro.core.detector import (
    DeadlockDetector,
    DeadlockEvent,
    DetectionRecord,
)
from repro.core.knots import (
    find_knots,
    knot_of_vertex,
    strongly_connected_components,
)
from repro.core.recovery import (
    AbortAllRecovery,
    DishaRecovery,
    NoRecovery,
    RecoveryPolicy,
    make_recovery,
)

__all__ = [
    "ChannelWaitForGraph",
    "worm_graph",
    "packet_wait_for_graph",
    "figure1_cwg",
    "figure2_cwg",
    "figure3_cwg",
    "figure4_cwg",
    "ContractedGraph",
    "CycleCount",
    "contract_graph",
    "count_cycles_contracted",
    "count_simple_cycles",
    "enumerate_simple_cycles",
    "DeadlockDetector",
    "DeadlockEvent",
    "DetectionRecord",
    "find_knots",
    "knot_of_vertex",
    "strongly_connected_components",
    "RecoveryPolicy",
    "DishaRecovery",
    "AbortAllRecovery",
    "NoRecovery",
    "make_recovery",
]
