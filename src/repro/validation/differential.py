"""Deterministic differential fuzzing of the simulator's optimized paths.

The repo carries two pairs of independently-implemented equivalents:

* **engine** — the production engine (activity tracking, inline
  arbitration stream, whole-phase quiescence skips, detection
  short-circuiting) vs the legacy full-rescan reference
  (``engine_fast_path``),
* **detector** — the contracted pipeline vs the plain global Tarjan +
  uncontracted Johnson reference pass (``detector_caching``).

Each pair is documented bit-identical; the hand-written equivalence suites cover
a fixed case matrix.  This module covers the space *between* the hand-picked
cases: :func:`random_config` draws a seeded random configuration across
topology / routing / VC / buffer / traffic / detection / recovery space,
:func:`check_config` cross-checks all the axes on it, and
:func:`shrink_config` greedily minimizes any mismatching configuration to
a smallest one that still reproduces, suitable for dumping as a replayable
JSON artifact (:func:`dump_artifact` / :func:`load_artifact`).

Everything is deterministic: a fuzz run is a pure function of its seed, so
CI failures replay exactly, and artifacts re-check byte-for-byte.

``scripts/fuzz_differential.py`` is the command-line front end.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.network.simulator import NetworkSimulator

__all__ = [
    "AXES",
    "FuzzMismatch",
    "random_config",
    "check_config",
    "shrink_config",
    "run_fuzz",
    "dump_artifact",
    "load_artifact",
]

#: the two differential axes, in checking order
AXES = ("engine", "detector")


@dataclass(frozen=True)
class FuzzMismatch:
    """One confirmed divergence between paired implementations."""

    axis: str  #: "engine" | "detector"
    config: SimulationConfig  #: a configuration reproducing the divergence
    detail: str  #: human-readable description of the first difference

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.axis}] {self.detail}\n  config: {self.config.label()}"


# -- configuration generation --------------------------------------------------------
def random_config(rng: random.Random) -> SimulationConfig:
    """One valid random configuration, drawn deterministically from ``rng``.

    The draw favours small, saturated, deadlock-prone networks (the
    interesting regime for every axis) while sweeping every behavioural
    knob the engine and detector branch on.  Every returned configuration
    validates, constructs, and runs in well under a second; draws that hit
    an invalid combination are discarded and redrawn (deterministically —
    rejection consumes the stream in a seed-reproducible way).
    """
    while True:
        config = _draw_config(rng)
        try:
            config.validate()
            NetworkSimulator(config)  # rejects e.g. routing/VC/topology combos
        except (SimulationError, ValueError):
            continue
        return config


def _draw_config(rng: random.Random) -> SimulationConfig:
    routing = rng.choice(
        ["dor", "dor", "tfar", "tfar", "tfar", "tfar-mis", "dor-dateline", "duato"]
    )
    mesh = routing in ("dor", "tfar") and rng.random() < 0.15
    if mesh and rng.random() < 0.3:
        routing = "negative-first"
    k = rng.choice([3, 4, 4, 5])
    n = rng.choice([1, 2, 2])
    min_vcs = {"dor-dateline": 2, "duato": 3}.get(routing, 1)
    num_vcs = max(min_vcs, rng.choice([1, 1, 2, 2, 3, 4]))
    traffic_choices = ["uniform"] * 4 + ["hot-spot"]
    if not mesh:
        traffic_choices.append("tornado")
    if k == 4 and n == 2:
        traffic_choices.extend(["transpose", "bit-reversal"])
    detection_mode = rng.choice(["knot"] * 3 + ["timeout"])
    return SimulationConfig(
        k=k,
        n=n,
        bidirectional=True if mesh else rng.random() < 0.8,
        mesh=mesh,
        routing=routing,
        num_vcs=num_vcs,
        buffer_depth=rng.choice([1, 2, 2, 4, 8]),
        router_delay=rng.choice([0, 0, 0, 1, 2]),
        rx_channels=rng.choice([1, 1, 1, 2]),
        selection=rng.choice(["straight", "straight", "random", "lowest"]),
        arbitration=rng.choice(["random", "random", "oldest-first", "round-robin"]),
        message_length=rng.choice([2, 4, 4, 8, 16]),
        traffic=rng.choice(traffic_choices),
        load=rng.choice([0.5, 0.8, 1.0, 1.0, 1.3]),
        max_queued_per_node=rng.choice([8, 16]),
        detection_interval=rng.choice([10, 25, 25, 50]),
        detection_mode=detection_mode,
        timeout_threshold=100,
        recovery=rng.choice(["disha", "disha", "abort-all", "none"]),
        recovery_teardown=rng.choice(["instant", "instant", "flit-by-flit"]),
        # keep the census mostly on (it exercises the per-SCC contracted
        # census) but cap it low: saturated misrouting nets otherwise
        # spend tens of seconds enumerating cycles per detection, blowing
        # the smoke budget
        count_cycles=rng.random() < 0.75,
        max_cycles_counted=1_000,
        record_blocked_durations=rng.random() < 0.3,
        warmup_cycles=0,
        measure_cycles=rng.choice([300, 400, 600]),
        seed=rng.randrange(2**32),
    )


# -- fingerprints --------------------------------------------------------------------
def _result_fingerprint(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("config")  # differs by construction (the toggled flag)
    return fields


def _event_fingerprint(events) -> list:
    return [
        (
            e.cycle,
            tuple(sorted(e.deadlock_set)),
            tuple(sorted(e.resource_set, key=str)),
            tuple(sorted(e.knot, key=str)),
            e.knot_cycle_density,
            e.density_saturated,
            tuple(sorted(e.dependent)),
            tuple(sorted(e.transient_dependent)),
        )
        for e in events
    ]


def _first_diff(a: dict, b: dict) -> str:
    """Name and abbreviate the first differing field of two field dicts."""
    for key in a:
        if a[key] != b[key]:
            va, vb = repr(a[key]), repr(b[key])
            if len(va) > 120:
                va = va[:120] + "..."
            if len(vb) > 120:
                vb = vb[:120] + "..."
            return f"field {key!r}: {va} != {vb}"
    return "fingerprints differ"


# -- the axes -------------------------------------------------------------------------
def compare_engine(config: SimulationConfig) -> Optional[str]:
    """Production vs legacy engine; None when bit-identical."""
    outcomes = []
    for fast_path in (True, False):
        sim = NetworkSimulator(config.replace(engine_fast_path=fast_path))
        result = sim.run()
        outcomes.append(
            (_result_fingerprint(result), _event_fingerprint(sim.detector.events))
        )
    (prod_res, prod_ev), (ref_res, ref_ev) = outcomes
    if prod_res != ref_res:
        return f"production engine diverges: {_first_diff(prod_res, ref_res)}"
    if prod_ev != ref_ev:
        return (
            "production engine deadlock events diverge: "
            f"{len(prod_ev)} production vs {len(ref_ev)} legacy events"
        )
    return None


def _detector_records(config: SimulationConfig, **overrides) -> list:
    sim = NetworkSimulator(config.replace(**overrides))
    sim.run()
    return sim.detector.records


def compare_detector(config: SimulationConfig) -> Optional[str]:
    """Contracted pipeline vs the uncached from-scratch pass.

    The as-shipped default (``detector_caching=True``) must equal the
    reference pass record for record, blocked-listing order included.
    """
    rec_c = _detector_records(config, detector_caching=True)
    rec_u = _detector_records(config, detector_caching=False)
    if len(rec_c) != len(rec_u):
        return (
            f"detector pipeline diverges: {len(rec_c)} pipeline vs "
            f"{len(rec_u)} reference detection records"
        )
    for i, (a, b) in enumerate(zip(rec_c, rec_u)):
        if a != b:
            return (
                f"detector pipeline diverges at record {i} (cycle {a.cycle}): "
                f"{_first_diff(dataclasses.asdict(a), dataclasses.asdict(b))}"
            )
    return None


_AXIS_CHECKS: dict[str, Callable[[SimulationConfig], Optional[str]]] = {
    "engine": compare_engine,
    "detector": compare_detector,
}


def check_config(
    config: SimulationConfig, axes: Sequence[str] = AXES
) -> list[FuzzMismatch]:
    """Cross-check one configuration on the given axes."""
    mismatches = []
    for axis in axes:
        detail = _AXIS_CHECKS[axis](config)
        if detail is not None:
            mismatches.append(FuzzMismatch(axis, config, detail))
    return mismatches


# -- shrinking -----------------------------------------------------------------------
#: reduction candidates per field, tried in order, most-simplifying first
_REDUCTIONS: list[tuple[str, list]] = [
    ("measure_cycles", [150, 300]),
    ("n", [1]),
    ("k", [3, 4]),
    ("routing", ["dor", "tfar"]),
    ("num_vcs", [1, 2]),
    ("buffer_depth", [1, 2]),
    ("message_length", [2, 4]),
    ("traffic", ["uniform"]),
    ("mesh", [False]),
    ("bidirectional", [True]),
    ("detection_mode", ["knot"]),
    ("recovery", ["disha"]),
    ("recovery_teardown", ["instant"]),
    ("arbitration", ["random"]),
    ("selection", ["straight"]),
    ("router_delay", [0]),
    ("rx_channels", [1]),
    ("record_blocked_durations", [False]),
    ("detection_interval", [25]),
    ("load", [1.0]),
]


def shrink_config(
    config: SimulationConfig,
    axis: str,
    max_checks: int = 200,
) -> tuple[SimulationConfig, str]:
    """Greedily minimize a mismatching configuration.

    Repeatedly tries the per-field reductions, keeping any replacement
    under which the axis still mismatches, until a full pass accepts
    nothing (a local minimum) or ``max_checks`` re-checks were spent.
    Returns the minimized config and its mismatch detail.  The input must
    actually mismatch on ``axis``.
    """
    check = _AXIS_CHECKS[axis]
    detail = check(config)
    if detail is None:
        raise ValueError("shrink_config called on a non-mismatching config")
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for field_name, candidates in _REDUCTIONS:
            current = getattr(config, field_name)
            for value in candidates:
                if value == current or checks >= max_checks:
                    continue
                candidate = config.replace(**{field_name: value})
                try:
                    candidate.validate()
                    new_detail = check(candidate)
                except SimulationError:
                    # includes RoutingError/ConfigurationError: the reduced
                    # combination is invalid — not a divergence
                    continue
                except ValueError:
                    continue
                finally:
                    checks += 1
                if new_detail is not None:
                    config, detail = candidate, new_detail
                    improved = True
                    break
    return config, detail


# -- artifacts -----------------------------------------------------------------------
def dump_artifact(mismatch: FuzzMismatch, path: Path | str) -> Path:
    """Write a replayable JSON artifact for a mismatch."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "axis": mismatch.axis,
        "detail": mismatch.detail,
        "config": dataclasses.asdict(mismatch.config),
        "replay": "python scripts/fuzz_differential.py --replay "
        + path.name,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Path | str) -> tuple[str, SimulationConfig]:
    """Load an artifact back into (axis, config) for replay."""
    payload = json.loads(Path(path).read_text())
    fields = dict(payload["config"])
    # JSON turns tuples into lists; restore the tuple-typed fields
    fields["failed_links"] = tuple(
        tuple(pair) for pair in fields.get("failed_links", ())
    )
    fields["length_mix"] = tuple(
        (int(l), float(w)) for l, w in fields.get("length_mix", ())
    )
    fields["traffic_mix"] = tuple(
        (str(p), float(w)) for p, w in fields.get("traffic_mix", ())
    )
    fields["dims"] = tuple(int(d) for d in fields.get("dims", ()))
    fields["link_latencies"] = tuple(
        int(l) for l in fields.get("link_latencies", ())
    )
    return payload["axis"], SimulationConfig(**fields)


# -- driving -------------------------------------------------------------------------
def run_fuzz(
    num_configs: int,
    seed: int,
    axes: Sequence[str] = AXES,
    shrink: bool = True,
    time_budget: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
) -> tuple[list[FuzzMismatch], int]:
    """Fuzz ``num_configs`` seeded random configurations.

    Returns ``(mismatches, configs_checked)``.  Deterministic given
    ``seed`` — the same seed draws the same configurations in the same
    order.  ``time_budget`` (seconds) is a safety stop for CI: checking
    halts after the config that exceeds it, which trades config *count*
    (reported, never silent) for bounded wall-clock.
    """
    rng = random.Random(seed)
    started = time.monotonic()
    mismatches: list[FuzzMismatch] = []
    checked = 0
    for i in range(num_configs):
        config = random_config(rng)
        if log:
            log(f"[{i + 1}/{num_configs}] {config.label()} seed={config.seed}")
        for axis in axes:
            detail = _AXIS_CHECKS[axis](config)
            if detail is None:
                continue
            if log:
                log(f"  MISMATCH on {axis}: {detail}")
            if shrink:
                small, small_detail = shrink_config(config, axis)
                if log:
                    log(f"  shrunk to: {small.label()} ({small_detail})")
                mismatches.append(FuzzMismatch(axis, small, small_detail))
            else:
                mismatches.append(FuzzMismatch(axis, config, detail))
        checked += 1
        if time_budget is not None and time.monotonic() - started > time_budget:
            if log and checked < num_configs:
                log(
                    f"time budget {time_budget:.0f}s exhausted after "
                    f"{checked}/{num_configs} configs"
                )
            break
    return mismatches, checked
