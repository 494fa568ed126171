"""The paper's contribution: CWGs, knots, cycles, detection, recovery."""

from repro.core.cwg import ChannelWaitForGraph
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
    classify_event,
)
from repro.core.knots import (
    find_knots,
    find_knots_contracted,
    knot_of_vertex,
    strongly_connected_components,
)
from repro.core.pwfg import (
    is_connected_routing,
    packet_wait_for_graph,
    pwfg_cycle_count,
    pwfg_knots,
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
    "classify_event",
    "find_knots",
    "find_knots_contracted",
    "knot_of_vertex",
    "strongly_connected_components",
    "packet_wait_for_graph",
    "pwfg_cycle_count",
    "pwfg_knots",
    "is_connected_routing",
    "RecoveryPolicy",
    "DishaRecovery",
    "AbortAllRecovery",
    "NoRecovery",
    "make_recovery",
]
