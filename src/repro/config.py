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

Every field carries one metadata entry, the single source for each
per-field list: ``group`` (its docs/API.md section), ``kind`` (:data:`KINDS`),
``domain`` (a :class:`Domain`: what :meth:`SimulationConfig.validate` accepts
and how :func:`config_from_json` decodes it), ``elide`` (dropped from
:func:`config_to_json` at its default) and ``cli`` (its ``repro simulate``
:class:`Flag`, or None).
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.errors import ConfigurationError

__all__ = [
    "SimulationConfig",
    "paper_default",
    "bench_default",
    "tiny_default",
    "config_to_json",
    "config_from_json",
    "defaults_of",
]

#: ``semantic`` fields change results; ``implementation`` fields select code
#: contracted bit-identical to the default; ``observation`` fields only watch
SEMANTIC, IMPLEMENTATION, OBSERVATION = "semantic", "implementation", "observation"
KINDS = (SEMANTIC, IMPLEMENTATION, OBSERVATION)


class Domain(NamedTuple):
    """The values one field accepts."""

    text: str  #: "" = "one of" the choices
    check: Callable[[object], bool]
    choices: Callable[[], tuple] = tuple  #: the finite value set, () if open
    decode: Optional[Callable] = None  #: JSON value -> field value

    def describe(self) -> str:
        return self.text or "one of " + ", ".join(map(repr, self.choices()))


def at_least(low, *, optional=False, finite=False) -> Domain:
    def check(value):
        if value is None:
            return optional
        return value >= low and (not finite or math.isfinite(value))

    prefix = ("None or " if optional else "") + ("finite and " if finite else "")
    return Domain(f"{prefix}>= {low}", check)


def one_of(*values) -> Domain:
    return Domain("", values.__contains__, lambda: values)


def registered(module: str, registry: str, fold_case: bool = False) -> Domain:
    """A key of a factory registry, imported on first use: the registries
    import this module (through ``repro.network``)."""
    def names():
        return getattr(importlib.import_module(module), registry)

    return Domain(
        "",
        lambda value: (value.lower() if fold_case else value) in names(),
        lambda: tuple(names()),
    )


def ints(low: int) -> Domain:
    return Domain(
        f"a tuple of ints >= {low}", lambda v: all(x >= low for x in v), decode=tuple
    )


PAIRS = Domain(
    "a tuple of pairs",
    lambda v: all(len(entry) == 2 for entry in v),
    decode=lambda v: tuple(tuple(entry) for entry in v),
)
NAME = Domain(
    "a name (checked when the simulator builds it)", lambda v: isinstance(v, str)
)
BOOL = one_of(False, True)


def only(default, replacement: str) -> Domain:
    """Its default alone; the error for another value names the replacement."""
    return Domain(
        f"{default!r} (its only value; {replacement})",
        lambda value: type(value) is type(default) and value == default,
        lambda: (default,),
    )


class Flag(NamedTuple):
    """A field's ``repro simulate`` option."""

    name: str
    help: Optional[str] = None
    metavar: Optional[str] = None


def _field(group, default, domain, kind=SEMANTIC, *, elide=False, cli=None):
    return dataclasses.field(default=default, metadata=dict(
        group=group, kind=kind, domain=domain, elide=elide, cli=cli
    ))


_topology = partial(_field, "topology")
_router = partial(_field, "router")
_workload = partial(_field, "workload")
_deadlock = partial(_field, "deadlock handling")
_run = partial(_field, "run control")
_validation = partial(_field, "validation")
_obs = partial(_field, "observability")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run (fields in CLI flag order)."""

    # -- topology ---------------------------------------------------------------
    #: topology class: "torus" (the paper's k-ary n-cube family, shaped by
    #: ``k``/``n``/``mesh``/``failed_links``) or one of the zoo
    #: classes — "mesh3d" / "torus3d" (mixed-radix 3D grids, ``dims`` =
    #: 3 radices), "dragonfly" (``dims`` = (a, p, h)) or "fullmesh"
    #: (``dims`` = (num_nodes,)).  See docs/TOPOLOGIES.md.
    topology: str = _topology(
        "torus", one_of("torus", "mesh3d", "torus3d", "dragonfly", "fullmesh"),
        elide=True,
        cli=Flag("--topology", "topology class (default torus: k-ary n-cube)"),
    )
    k: int = _topology(16, at_least(2), cli=Flag("--k", "radix (default 8)"))
    n: int = _topology(2, at_least(1), cli=Flag("--n", "dimensions (default 2)"))
    #: shape parameters for the zoo topologies (must stay () for "torus")
    dims: tuple[int, ...] = _topology((), ints(1), elide=True, cli=Flag(
        "--dims", "topology shape: per-dimension radices for mesh3d/torus3d "
        "(e.g. 4,4,4), 'a,p,h' for dragonfly, 'N' for fullmesh", "A,B,..."))
    #: per-class link latencies in cycles/flit: per-dimension for grid
    #: topologies (a TSV vertical-link penalty on "mesh3d"/"torus3d"),
    #: (local, global) for "dragonfly", (latency,) for "fullmesh".
    #: Empty = 1 everywhere, the paper's model.
    link_latencies: tuple[int, ...] = _topology((), ints(1), elide=True, cli=Flag(
        "--link-latencies", "per-dimension link latency in cycles (e.g. "
        "1,1,4 for a slow TSV dimension; dragonfly takes 'local,global', "
        "fullmesh one value)", "L,L,..."))
    bidirectional: bool = _topology(True, BOOL)  #: a channel each direction?
    mesh: bool = _topology(False, BOOL, cli=Flag("--mesh"))  #: mesh, not torus
    failed_links: tuple[tuple[int, int], ...] = _topology((), PAIRS)  #: (src, dst)

    # -- router -----------------------------------------------------------------
    #: routing algorithm short name
    routing: str = _router("tfar", registered(
        "repro.routing", "_ROUTERS", fold_case=True), cli=Flag("--routing"))
    #: virtual channels per physical channel
    num_vcs: int = _router(1, at_least(1), cli=Flag("--vcs", "virtual channels"))
    #: edge-buffer depth in flits
    buffer_depth: int = _router(2, at_least(1), cli=Flag(
        "--buffer", "buffer depth (flits)"))
    router_delay: int = _router(0, at_least(0))  #: header arrival -> routing
    rx_channels: int = _router(1, at_least(1))  #: reception channels per node
    #: channel-selection policy short name
    selection: str = _router("straight", registered(
        "repro.routing.selection", "_POLICIES"))
    #: service order of competing requests
    arbitration: str = _router("random", one_of(
        "random", "oldest-first", "round-robin"))

    # -- workload ----------------------------------------------------------------
    message_length: int = _workload(32, at_least(1), cli=Flag(
        "--length", "message length"))  #: flits per message
    #: optional hybrid lengths: ((length, weight), ...); empty = fixed length
    length_mix: tuple[tuple[int, float], ...] = _workload((), PAIRS)
    traffic: str = _workload("uniform", NAME, cli=Flag("--traffic"))  #: pattern
    #: components for traffic="hybrid": ((pattern_name, weight), ...)
    traffic_mix: tuple[tuple[str, float], ...] = _workload((), PAIRS)
    #: normalized offered load (1.0 = capacity)
    load: float = _workload(0.5, at_least(0, finite=True), cli=Flag(
        "--load", "normalized load"))
    #: only used by hot-spot traffic
    hotspot_fraction: float = _workload(0.1, at_least(0, finite=True))
    #: source-queue cap (None = unbounded)
    max_queued_per_node: Optional[int] = _workload(64, at_least(1, optional=True))
    #: total-generation cap: the Bernoulli sources stop creating messages
    #: once this many exist (None = unbounded).  Bounds the reachable state
    #: space for the exhaustive model-checking oracle
    #: (:mod:`repro.validation.oracle`); honoured identically by every
    #: engine tier.
    max_messages: Optional[int] = _workload(None, at_least(1, optional=True))

    # -- deadlock handling --------------------------------------------------------
    detection_interval: int = _deadlock(50, at_least(1))  #: cycles between passes
    #: "knot" (true detection) or "timeout"
    detection_mode: str = _deadlock("knot", one_of("knot", "timeout"))
    #: single-valued, like detector_caching, check_invariants and engine_*:
    #: kept only because stored result digests (campaign stores, the e2e
    #: benchmark's) embed every config field, until the next re-pin
    cwg_maintenance: str = _deadlock("rebuild", only(
        "rebuild", "every detector pass rebuilds the CWG"), IMPLEMENTATION)
    #: blocked-cycles threshold for timeout mode
    timeout_threshold: int = _deadlock(500, at_least(1))
    #: recovery policy short name
    recovery: str = _deadlock("disha", registered(
        "repro.core.recovery", "_POLICIES", fold_case=True), cli=Flag("--recovery"))
    recovery_teardown: str = _deadlock("instant", one_of("instant", "flit-by-flit"))
    #: enumerate CWG cycles at each detection?
    count_cycles: bool = _deadlock(True, BOOL)
    #: cap on cycle enumeration per detection
    max_cycles_counted: int = _deadlock(50_000, at_least(1))
    detector_caching: bool = _deadlock(True, only(
        True, "the reference pass is repro.validation.reference_pass(config)"
    ), IMPLEMENTATION)
    #: keep per-message blocked times
    record_blocked_durations: bool = _deadlock(False, BOOL)

    # -- run control ----------------------------------------------------------------
    #: cycles before statistics collection starts
    warmup_cycles: int = _run(1_000, at_least(0), cli=Flag("--warmup"))
    #: measured cycles (paper: 30,000 past steady state)
    measure_cycles: int = _run(30_000, at_least(1), cli=Flag(
        "--cycles", "measured cycles"))
    #: RNG seed (runs are fully deterministic given the seed)
    seed: int = _run(1, at_least(0), cli=Flag("--seed"))
    check_invariants: bool = _run(False, only(
        False, "use validation_level=2"), OBSERVATION)
    engine_fast_path: bool = _run(True, only(
        True, "the reference engine is repro.validation.ReferenceEngine"
    ), IMPLEMENTATION)
    engine_vectorized: bool = _run(False, only(
        False, "the production engine runs that tier's loops"), IMPLEMENTATION)
    engine_kernels: bool = _run(False, only(
        False, "the production engine runs that tier's loops"), IMPLEMENTATION)

    # -- validation -----------------------------------------------------------------
    #: runtime invariant checker (:mod:`repro.validation.invariants`):
    #: 0 = off (the default — benchmarks and production sweeps must not pay
    #: for validation), 1 = run the full check battery every
    #: ``validation_interval`` cycles, 2 = run it every cycle.  Levels 1–2
    #: also verify every detector-reported deadlock against the knot
    #: definition at each detection, before recovery acts on it.
    validation_level: int = _validation(0, one_of(0, 1, 2), OBSERVATION)
    #: sampling period for validation_level=1
    validation_interval: int = _validation(100, at_least(1), OBSERVATION)

    # -- observability --------------------------------------------------------------
    #: observability (:mod:`repro.obs`): 0 = off (the default — no registry,
    #: profiler or tracer; instrumented call sites test one ``None``),
    #: 1 = metrics registry + per-phase profiler, 2 = level 1 plus the
    #: cycle-level trace ring buffer (exportable as JSONL / Chrome trace).
    #: Pure observation at every level: simulation results are bit-identical
    #: across levels (same seed -> same RunResult and event stream).
    obs_level: int = _obs(0, one_of(0, 1, 2), OBSERVATION, cli=Flag(
        "--obs-level", "observability: 0 off, 1 metrics+profiler, 2 adds "
        "cycle-level tracing (default 0)"))
    #: trace ring-buffer bound (events)
    obs_trace_capacity: int = _obs(65_536, at_least(1), OBSERVATION, cli=Flag(
        "--trace-capacity", "trace ring-buffer bound in events (default 65536)"))

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` unless every field lies in its
        domain and the cross-field rules hold."""
        for name, domain in _DOMAINS:
            value = getattr(self, name)
            if not domain.check(value):
                raise ConfigurationError(
                    f"{name} must be {domain.describe()}, got {value!r}"
                )
        self._validate_topology()
        self._validate_mesh()
        self._validate_hybrid()
        self._validate_length_mix()

    def _validate_topology(self) -> None:
        if self.topology == "torus":
            if self.dims:
                raise ConfigurationError(
                    "dims shapes the zoo topologies only; the 'torus' family "
                    "is shaped by k and n"
                )
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
            if len(self.dims) != 3 or self.dims[0] < 2:
                raise ConfigurationError(
                    f"dragonfly needs dims = (a >= 2, p, h), got {self.dims}"
                )
        elif len(self.dims) != 1 or self.dims[0] < 2:  # fullmesh
            raise ConfigurationError(
                f"fullmesh needs dims = (num_nodes >= 2,), got {self.dims}"
            )

    def _validate_mesh(self) -> None:
        if self.mesh and not self.bidirectional:
            raise ConfigurationError("meshes are always bidirectional")
        if self.mesh and self.failed_links:
            raise ConfigurationError("failed links are modelled on tori only")

    def _validate_hybrid(self) -> None:
        if self.traffic == "hybrid" and not self.traffic_mix:
            raise ConfigurationError("hybrid traffic requires traffic_mix")

    def _validate_length_mix(self) -> None:
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


#: the field table, in declaration order
FIELDS = dataclasses.fields(SimulationConfig)
_DOMAINS = [(f.name, f.metadata["domain"]) for f in FIELDS]
_DECODED = [(name, d.decode) for name, d in _DOMAINS if d.decode]
_ELIDED = [(f.name, f.default) for f in FIELDS if f.metadata["elide"]]


def defaults_of(kind: str) -> dict:
    """Every field of ``kind`` at its default value."""
    return {f.name: f.default for f in FIELDS if f.metadata["kind"] == kind}


def config_to_json(config: SimulationConfig) -> dict:
    """Canonical JSON-able form of a config (``elide`` fields dropped at
    their default, so digests of older configs never move)."""
    data = {f.name: getattr(config, f.name) for f in FIELDS}
    for name, default in _ELIDED:
        if data[name] == default:
            del data[name]
    return data


def config_from_json(data: dict) -> SimulationConfig:
    """Rebuild a config from :func:`config_to_json` output or a full
    ``dataclasses.asdict`` payload, restoring the tuples JSON made lists."""
    data = dict(data)
    for name, decode in _DECODED:
        if name in data:
            data[name] = decode(data[name])
    return SimulationConfig(**data)


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
    return paper_default(
        k=8, n=2, message_length=16, warmup_cycles=500, measure_cycles=4_000
    ).replace(**overrides)


def tiny_default(**overrides) -> SimulationConfig:
    """Minimal configuration for unit/integration tests."""
    return paper_default(
        k=4, n=2, message_length=8, warmup_cycles=100, measure_cycles=1_000,
        max_queued_per_node=16,
    ).replace(**overrides)
