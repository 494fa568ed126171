"""The bit-identity contract, and deterministic differential fuzzing of it.

The production engine and the detector's worm-level pipeline count as the
paper's instrument only because each is bit-identical to its reference.
This module is the one place that says what "bit-identical" means: a
run's :func:`fingerprint` is its :class:`RunResult` minus ``config``, its
full ``detector.records`` list and its post-run ``rng.getrandbits(64)``,
and :func:`compare` names the first difference between a config's run and
the same config with one field changed.  Every inert-field A/B test, the
goldens and the fuzzer go through it.

The fuzzer's :data:`AXES` name the two implementation fields with a
reference behind them:

* **engine** — the production engine (activity tracking, inline
  arbitration stream, whole-phase quiescence skips, detection
  short-circuiting) vs the legacy full-rescan reference
  (``engine_fast_path``),
* **detector** — the worm-level pipeline vs the plain global Tarjan +
  uncontracted Johnson reference pass (``detector_caching``).

:func:`random_config` draws a seeded random configuration across
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
from typing import Callable, Optional, Sequence

from repro.config import SimulationConfig, config_from_json
from repro.errors import ConfigurationError, RoutingError
from repro.network.simulator import NetworkSimulator

__all__ = [
    "AXES",
    "FuzzMismatch",
    "result_fields",
    "fingerprint",
    "compare",
    "random_config",
    "check_config",
    "shrink_config",
    "run_fuzz",
    "dump_artifact",
    "load_artifact",
]

#: the differential axes, in checking order: each names the implementation
#: field whose toggled run must be bit-identical to the run as configured
AXES = {"engine": "engine_fast_path", "detector": "detector_caching"}

#: what building a sim raises for a combination the config space does not
#: support (a routing that needs more VCs, a traffic pattern that needs a
#: power-of-two node count, ...): a draw or a reduction to skip
_INVALID_COMBINATION = (ConfigurationError, RoutingError)


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
        except _INVALID_COMBINATION:
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


# -- the contract --------------------------------------------------------------------
def result_fields(result) -> dict:
    """A :class:`RunResult` as a field dict, minus ``config`` (which an A/B
    pair differs in by construction: the toggled field)."""
    fields = dataclasses.asdict(result)
    fields.pop("config")
    return fields


def fingerprint(sim: NetworkSimulator, result) -> dict:
    """Everything two runs must share to count as bit-identical: the result,
    every detection record (events, census, blocked listings) and the next
    word of the shared RNG, which this draws."""
    return {
        "result": result_fields(result),
        "records": sim.detector.records,
        "rng": sim.rng.getrandbits(64),
    }


def _run_fingerprint(config: SimulationConfig) -> dict:
    """Run ``config`` to completion and fingerprint it."""
    sim = NetworkSimulator(config)
    return fingerprint(sim, sim.run())


def _abbrev(value) -> str:
    text = repr(value)
    return text[:120] + "..." if len(text) > 120 else text


def _first_difference(a: dict, b: dict) -> Optional[str]:
    """Name the first difference between two fingerprints; None if equal."""
    for key, va in a["result"].items():
        vb = b["result"][key]
        if va != vb:
            return f"result field {key!r}: {_abbrev(va)} != {_abbrev(vb)}"
    ra, rb = a["records"], b["records"]
    for i, (x, y) in enumerate(zip(ra, rb)):
        if x != y:
            xs, ys = dataclasses.asdict(x), dataclasses.asdict(y)
            key = next(k for k in xs if xs[k] != ys[k])
            return (
                f"record {i} (cycle {x.cycle}) field {key!r}: "
                f"{_abbrev(xs[key])} != {_abbrev(ys[key])}"
            )
    if len(ra) != len(rb):
        return f"{len(ra)} != {len(rb)} detection records"
    if a["rng"] != b["rng"]:
        return f"post-run RNG word: {a['rng']:#x} != {b['rng']:#x}"
    return None


def compare(
    config: SimulationConfig,
    field: str,
    value,
    base: Optional[dict] = None,
) -> Optional[str]:
    """Run ``config`` with ``field`` set to ``value`` and name its first
    difference from ``config`` itself; None when the two are bit-identical.

    ``base`` is ``config``'s fingerprint when the caller already has it.
    """
    if base is None:
        base = _run_fingerprint(config)
    other = _run_fingerprint(config.replace(**{field: value}))
    return _first_difference(base, other)


def _check_axis(
    config: SimulationConfig, axis: str, base: Optional[dict] = None
) -> Optional[str]:
    field = AXES[axis]
    value = not getattr(config, field)
    detail = compare(config, field, value, base)
    return None if detail is None else f"{field}={value} diverges: {detail}"


def check_config(
    config: SimulationConfig, axes: Sequence[str] = tuple(AXES)
) -> list[FuzzMismatch]:
    """Cross-check one configuration on the given axes: one run as
    configured, plus one run per axis with that axis's field toggled."""
    base = _run_fingerprint(config)
    mismatches = []
    for axis in axes:
        detail = _check_axis(config, axis, base)
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
    detail = _check_axis(config, axis)
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
                    new_detail = _check_axis(candidate, axis)
                except _INVALID_COMBINATION:
                    # the reduced combination is invalid — not a divergence
                    # (a SimulationError is a real engine failure: it raises)
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
    return payload["axis"], config_from_json(payload["config"])


# -- driving -------------------------------------------------------------------------
def run_fuzz(
    num_configs: int,
    seed: int,
    axes: Sequence[str] = tuple(AXES),
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
        for mismatch in check_config(config, axes):
            if log:
                log(f"  MISMATCH on {mismatch.axis}: {mismatch.detail}")
            if shrink:
                small, small_detail = shrink_config(config, mismatch.axis)
                if log:
                    log(f"  shrunk to: {small.label()} ({small_detail})")
                mismatch = FuzzMismatch(mismatch.axis, small, small_detail)
            mismatches.append(mismatch)
        checked += 1
        if time_budget is not None and time.monotonic() - started > time_budget:
            if log and checked < num_configs:
                log(
                    f"time budget {time_budget:.0f}s exhausted after "
                    f"{checked}/{num_configs} configs"
                )
            break
    return mismatches, checked
