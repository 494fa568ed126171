"""Reproduction of Warnakulasuriya & Pinkston, "Characterization of
Deadlocks in Interconnection Networks" (IPPS 1997).

A flit-level k-ary n-cube network simulator with *true* deadlock detection:
the network's resource state is snapshotted into a channel wait-for graph
(CWG) and deadlocks are identified exactly as knots.  The package also
implements the paper's full characterization study (effects of
bidirectionality, adaptivity, virtual channels, buffer depth, node degree
and traffic pattern on deadlock formation).

Quickstart::

    from repro import SimulationConfig, NetworkSimulator

    cfg = SimulationConfig(k=8, n=2, routing="dor", num_vcs=1, load=0.6,
                           message_length=16, warmup_cycles=500,
                           measure_cycles=3000)
    result = NetworkSimulator(cfg).run()
    print(result.summary())
"""

from repro.config import SimulationConfig, bench_default, paper_default, tiny_default
from repro.core import (
    ChannelWaitForGraph,
    DeadlockDetector,
    DeadlockEvent,
    count_simple_cycles,
    find_knots,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.metrics import RunResult, SweepResult, run_load_sweep
from repro.network import (
    IrregularTorus,
    KAryNCube,
    Mesh,
    Message,
    NetworkSimulator,
    Topology,
    build_topology,
)
from repro.routing import make_routing, make_selection
from repro.traffic import make_pattern

__version__ = "1.0.0"

__all__ = [
    "SimulationConfig",
    "paper_default",
    "bench_default",
    "tiny_default",
    "NetworkSimulator",
    "build_topology",
    "RunResult",
    "SweepResult",
    "run_load_sweep",
    "ChannelWaitForGraph",
    "DeadlockDetector",
    "DeadlockEvent",
    "find_knots",
    "count_simple_cycles",
    "Topology",
    "KAryNCube",
    "Mesh",
    "IrregularTorus",
    "Message",
    "make_routing",
    "make_selection",
    "make_pattern",
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "RoutingError",
    "SimulationError",
]
