"""Simulation configuration.

:class:`SimulationConfig` captures every knob the paper's study turns:
topology radix/dimension, link directionality, routing algorithm, virtual
channels per physical channel, edge-buffer depth, message length, traffic
pattern, offered load, deadlock-detection interval and recovery policy.

The paper's default configuration is a 16-ary 2-cube bidirectional torus,
32-flit messages, 2-flit edge buffers, one injection and one reception
channel per node, detection every 50 cycles, and straight-through-preferring
channel selection — see :func:`paper_default`.  Because a pure-Python
flit-level simulation of 256 nodes is slow, :func:`bench_default` scales the
radix down while preserving every behavioural ratio the experiments measure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["SimulationConfig", "paper_default", "bench_default", "tiny_default"]


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run."""

    # -- topology ---------------------------------------------------------------
    k: int = 16  #: radix (nodes per dimension)
    n: int = 2  #: dimensions
    bidirectional: bool = True  #: physical channel in each direction?
    mesh: bool = False  #: mesh instead of torus (for turn-model baselines)
    failed_links: tuple[tuple[int, int], ...] = ()  #: removed (src, dst) pairs
    #: topology class: "torus" (the paper's k-ary n-cube family, shaped by
    #: ``k``/``n``/``mesh``/``failed_links`` above) or one of the zoo
    #: classes — "mesh3d" / "torus3d" (mixed-radix 3D grids, ``dims`` =
    #: 3 radices), "dragonfly" (``dims`` = (a, p, h)) or "fullmesh"
    #: (``dims`` = (num_nodes,)).  See docs/TOPOLOGIES.md.
    topology: str = "torus"
    #: shape parameters for the zoo topologies (must stay () for "torus")
    dims: tuple[int, ...] = ()
    #: per-class link latencies in cycles/flit: per-dimension for grid
    #: topologies (a TSV vertical-link penalty on "mesh3d"/"torus3d"),
    #: (local, global) for "dragonfly", (latency,) for "fullmesh".
    #: Empty = 1 everywhere, the paper's model.
    link_latencies: tuple[int, ...] = ()

    # -- router -----------------------------------------------------------------
    num_vcs: int = 1  #: virtual channels per physical channel
    buffer_depth: int = 2  #: edge-buffer depth in flits
    router_delay: int = 0  #: cycles between header arrival and routing
    rx_channels: int = 1  #: reception (ejection) channels per node
    routing: str = "tfar"  #: routing algorithm short name
    selection: str = "straight"  #: channel-selection policy short name
    arbitration: str = "random"  #: service order: "random"|"oldest-first"|"round-robin"

    # -- workload ----------------------------------------------------------------
    message_length: int = 32  #: flits per message
    #: optional hybrid lengths: ((length, weight), ...); empty = fixed length
    length_mix: tuple[tuple[int, float], ...] = ()
    traffic: str = "uniform"  #: traffic pattern short name
    #: components for traffic="hybrid": ((pattern_name, weight), ...)
    traffic_mix: tuple[tuple[str, float], ...] = ()
    load: float = 0.5  #: normalized offered load (1.0 = capacity)
    hotspot_fraction: float = 0.1  #: only used by hot-spot traffic
    max_queued_per_node: Optional[int] = 64  #: source-queue cap (None = unbounded)
    #: total-generation cap: the Bernoulli sources stop creating messages
    #: once this many exist (None = unbounded).  Bounds the reachable state
    #: space for the exhaustive model-checking oracle
    #: (:mod:`repro.validation.oracle`); honoured identically by every
    #: engine tier.
    max_messages: Optional[int] = None

    # -- deadlock handling --------------------------------------------------------
    detection_interval: int = 50  #: cycles between detector invocations
    detection_mode: str = "knot"  #: "knot" (true detection) or "timeout"
    #: deprecated and inert: "rebuild" and "incremental" both run the
    #: detector's per-pass CWG rebuild.  Kept, and still validated, only
    #: because stored result digests embed every config field.
    cwg_maintenance: str = "rebuild"
    timeout_threshold: int = 500  #: blocked-cycles threshold for timeout mode
    recovery: str = "disha"  #: recovery policy short name
    recovery_teardown: str = "instant"  #: "instant" or "flit-by-flit"
    count_cycles: bool = True  #: enumerate CWG cycles at each detection?
    max_cycles_counted: int = 50_000  #: cap on cycle enumeration per detection
    #: the detector's contracted analysis pipeline: chain-contract the CWG,
    #: one SCC decomposition shared by the knot test and the cycle census,
    #: each SCC re-contracted before enumeration, once per pass over the
    #: whole CWG.  Bit-identical records to the uncached pass; off selects
    #: the plain global Tarjan + uncontracted Johnson reference for A/B tests.
    detector_caching: bool = True
    record_blocked_durations: bool = False  #: keep per-message blocked times

    # -- run control ----------------------------------------------------------------
    warmup_cycles: int = 1_000  #: cycles before statistics collection starts
    measure_cycles: int = 30_000  #: measured cycles (paper: 30,000 past steady state)
    seed: int = 1  #: RNG seed (runs are fully deterministic given the seed)
    check_invariants: bool = False  #: run conservation checks every cycle (slow)
    #: runtime invariant checker (:mod:`repro.validation.invariants`):
    #: 0 = off (the default — benchmarks and production sweeps must not pay
    #: for validation), 1 = run the full check battery every
    #: ``validation_interval`` cycles, 2 = run it every cycle.  Levels 1–2
    #: also verify every detector-reported deadlock against the knot
    #: definition at each detection, before recovery acts on it.
    validation_level: int = 0
    validation_interval: int = 100  #: sampling period for validation_level=1
    #: the production engine
    #: (:class:`repro.network.production.ProductionEngine`): activity
    #: tracking in the hot loops, an inline C-backed arbitration stream and
    #: detection short-circuiting, on every topology.  Bit-identical to the
    #: legacy full-rescan reference (same seed -> same RunResult and
    #: deadlock-event stream); off selects the reference for A/B tests and
    #: the model-checking oracle.
    engine_fast_path: bool = True
    #: deprecated and inert: the engine tiers these two selected are gone
    #: (their loops and whole-phase skips live in the production engine) and
    #: every engine was bit-identical, so ignoring them changes no result.
    #: They stay only because stored result digests embed every config
    #: field (``benchmarks/e2e/expected_digests.json``, campaign stores);
    #: the PR that next re-pins those deletes them.
    engine_vectorized: bool = False
    engine_kernels: bool = False
    #: observability (:mod:`repro.obs`): 0 = off (the default — instrumented
    #: call sites cost one attribute lookup against a no-op singleton),
    #: 1 = metrics registry + per-phase profiler, 2 = level 1 plus the
    #: cycle-level trace ring buffer (exportable as JSONL / Chrome trace).
    #: Pure observation at every level: simulation results are bit-identical
    #: across levels (same seed -> same RunResult and event stream).
    obs_level: int = 0
    obs_trace_capacity: int = 65_536  #: trace ring-buffer bound (events)

    #: latency count expected from ``link_latencies`` per topology class
    #: (None = per-dimension, derived from the grid shape)
    _TOPOLOGIES = ("torus", "mesh3d", "torus3d", "dragonfly", "fullmesh")

    def _validate_topology(self) -> None:
        if self.topology not in self._TOPOLOGIES:
            raise ConfigurationError(
                f"topology must be one of {self._TOPOLOGIES}, got {self.topology!r}"
            )
        if any(lat < 1 for lat in self.link_latencies):
            raise ConfigurationError(
                f"link latencies must be >= 1, got {self.link_latencies}"
            )
        if self.topology == "torus":
            if self.dims:
                raise ConfigurationError(
                    "dims shapes the zoo topologies only; the 'torus' family "
                    "is shaped by k and n"
                )
            if self.k < 2:
                raise ConfigurationError(f"k must be >= 2, got {self.k}")
            if self.n < 1:
                raise ConfigurationError(f"n must be >= 1, got {self.n}")
            if self.link_latencies and len(self.link_latencies) != self.n:
                raise ConfigurationError(
                    f"expected {self.n} per-dimension link latencies, "
                    f"got {len(self.link_latencies)}"
                )
            if self.link_latencies and self.failed_links:
                raise ConfigurationError(
                    "link_latencies and failed_links cannot be combined"
                )
            return
        if self.mesh:
            raise ConfigurationError(
                "the mesh flag applies to the 'torus' family only; "
                "use topology='mesh3d' for a 3D mesh"
            )
        if self.failed_links:
            raise ConfigurationError(
                "failed links are modelled on the 'torus' family only"
            )
        if not self.bidirectional and self.topology != "torus3d":
            raise ConfigurationError(
                f"topology {self.topology!r} is always bidirectional"
            )
        expected_lat = {"mesh3d": 3, "torus3d": 3, "dragonfly": 2, "fullmesh": 1}
        want = expected_lat[self.topology]
        if self.link_latencies and len(self.link_latencies) != want:
            raise ConfigurationError(
                f"topology {self.topology!r} takes {want} link latencies "
                f"({'per dimension' if want == 3 else 'see docs/TOPOLOGIES.md'}), "
                f"got {len(self.link_latencies)}"
            )
        if self.topology in ("mesh3d", "torus3d"):
            if len(self.dims) != 3 or any(d < 2 for d in self.dims):
                raise ConfigurationError(
                    f"topology {self.topology!r} needs dims = 3 radices >= 2, "
                    f"got {self.dims}"
                )
        elif self.topology == "dragonfly":
            if len(self.dims) != 3:
                raise ConfigurationError(
                    f"dragonfly needs dims = (a, p, h), got {self.dims}"
                )
            a, p, h = self.dims
            if a < 2 or p < 1 or h < 1:
                raise ConfigurationError(
                    f"dragonfly needs a >= 2, p >= 1, h >= 1, got {self.dims}"
                )
        else:  # fullmesh
            if len(self.dims) != 1 or self.dims[0] < 2:
                raise ConfigurationError(
                    f"fullmesh needs dims = (num_nodes >= 2,), got {self.dims}"
                )

    def validate(self) -> None:
        self._validate_topology()
        if self.num_vcs < 1:
            raise ConfigurationError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.buffer_depth < 1:
            raise ConfigurationError(
                f"buffer_depth must be >= 1, got {self.buffer_depth}"
            )
        if self.router_delay < 0:
            raise ConfigurationError(
                f"router_delay must be >= 0, got {self.router_delay}"
            )
        if self.rx_channels < 1:
            raise ConfigurationError(
                f"rx_channels must be >= 1, got {self.rx_channels}"
            )
        if self.message_length < 1:
            raise ConfigurationError(
                f"message_length must be >= 1, got {self.message_length}"
            )
        if self.load < 0:
            raise ConfigurationError(f"load must be >= 0, got {self.load}")
        if self.max_messages is not None and self.max_messages < 1:
            raise ConfigurationError(
                f"max_messages must be >= 1 or None, got {self.max_messages}"
            )
        if self.detection_interval < 1:
            raise ConfigurationError(
                f"detection_interval must be >= 1, got {self.detection_interval}"
            )
        if self.warmup_cycles < 0 or self.measure_cycles < 1:
            raise ConfigurationError("invalid warmup/measure cycle counts")
        if self.validation_level not in (0, 1, 2):
            raise ConfigurationError(
                f"validation_level must be 0, 1 or 2, got {self.validation_level}"
            )
        if self.validation_interval < 1:
            raise ConfigurationError(
                f"validation_interval must be >= 1, got {self.validation_interval}"
            )
        if self.obs_level not in (0, 1, 2):
            raise ConfigurationError(
                f"obs_level must be 0, 1 or 2, got {self.obs_level}"
            )
        if self.obs_trace_capacity < 1:
            raise ConfigurationError(
                f"obs_trace_capacity must be >= 1, got {self.obs_trace_capacity}"
            )
        if self.mesh and not self.bidirectional:
            raise ConfigurationError("meshes are always bidirectional")
        if self.mesh and self.failed_links:
            raise ConfigurationError("failed links are modelled on tori only")
        if self.arbitration not in ("random", "oldest-first", "round-robin"):
            raise ConfigurationError(
                "arbitration must be 'random', 'oldest-first' or "
                f"'round-robin', got {self.arbitration!r}"
            )
        if self.cwg_maintenance not in ("rebuild", "incremental"):
            raise ConfigurationError(
                "cwg_maintenance must be 'rebuild' or 'incremental', "
                f"got {self.cwg_maintenance!r}"
            )
        if self.detection_mode not in ("knot", "timeout"):
            raise ConfigurationError(
                f"detection_mode must be 'knot' or 'timeout', got {self.detection_mode!r}"
            )
        if self.timeout_threshold < 1:
            raise ConfigurationError(
                f"timeout_threshold must be >= 1, got {self.timeout_threshold}"
            )
        if self.recovery_teardown not in ("instant", "flit-by-flit"):
            raise ConfigurationError(
                "recovery_teardown must be 'instant' or 'flit-by-flit', "
                f"got {self.recovery_teardown!r}"
            )
        if self.traffic == "hybrid" and not self.traffic_mix:
            raise ConfigurationError("hybrid traffic requires traffic_mix")
        for length, weight in self.length_mix:
            if length < 1 or weight <= 0:
                raise ConfigurationError(
                    f"invalid length_mix entry ({length}, {weight})"
                )

    def replace(self, **changes) -> "SimulationConfig":
        """A copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @property
    def num_nodes(self) -> int:
        if self.topology in ("mesh3d", "torus3d"):
            out = 1
            for d in self.dims:
                out *= d
            return out
        if self.topology == "dragonfly":
            a, _p, h = self.dims
            return a * (a * h + 1)
        if self.topology == "fullmesh":
            return self.dims[0]
        return self.k**self.n

    @property
    def is_cut_through(self) -> bool:
        """Virtual cut-through: a buffer can hold an entire message."""
        return self.buffer_depth >= self.message_length

    def label(self) -> str:
        """Short human-readable tag used in experiment tables."""
        if self.topology in ("mesh3d", "torus3d"):
            shape = "x".join(str(d) for d in self.dims)
            head = f"{self.topology}({shape})"
            if self.link_latencies:
                head += "/lat" + ",".join(str(l) for l in self.link_latencies)
        elif self.topology == "dragonfly":
            a, p, h = self.dims
            head = f"dragonfly(a{a} p{p} h{h})"
        elif self.topology == "fullmesh":
            head = f"fullmesh({self.dims[0]})"
        else:
            kind = "mesh" if self.mesh else ("bi" if self.bidirectional else "uni")
            head = f"{self.k}-ary {self.n}-cube/{kind}"
        return (
            f"{head} {self.routing.upper()}"
            f"{self.num_vcs} buf={self.buffer_depth} L={self.load:.2f}"
        )


def paper_default(**overrides) -> SimulationConfig:
    """The paper's default configuration (Section 3): 16-ary 2-cube."""
    return SimulationConfig().replace(**overrides)


def bench_default(**overrides) -> SimulationConfig:
    """Scaled-down configuration used by the benchmark harness.

    An 8-ary 2-cube with 16-flit messages: every structural property the
    experiments exercise (wraparound rings, even radix, minimal-path
    multiplicity) is preserved while a load-sweep point runs in seconds
    rather than hours of pure-Python simulation.
    """
    cfg = SimulationConfig(
        k=8,
        n=2,
        message_length=16,
        warmup_cycles=500,
        measure_cycles=4_000,
    )
    return cfg.replace(**overrides)


def tiny_default(**overrides) -> SimulationConfig:
    """Minimal configuration for unit/integration tests."""
    cfg = SimulationConfig(
        k=4,
        n=2,
        message_length=8,
        warmup_cycles=100,
        measure_cycles=1_000,
        max_queued_per_node=16,
    )
    return cfg.replace(**overrides)
