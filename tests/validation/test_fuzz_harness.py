"""Tests for the differential fuzz harness (repro.validation.differential).

The critical test here is the *teeth* group: arming an intentional fault
via ``REPRO_INJECT_FAULT`` and proving the harness reports a mismatch.  A
differential net that cannot catch a deliberately broken engine is
decorative; these tests keep it honest.
"""

import dataclasses
import random

import pytest

from repro.config import SimulationConfig, tiny_default
from repro.errors import SimulationError
from repro.faults import ENV_VAR, KNOWN_FAULTS, active_faults
from repro.validation.differential import (
    AXES,
    FuzzMismatch,
    check_config,
    dump_artifact,
    load_artifact,
    random_config,
    run_fuzz,
    shrink_config,
)
from repro.network.simulator import NetworkSimulator

#: deadlocks quickly and is cheap — the engine-axis teeth scenario
SATURATED = SimulationConfig(
    k=4,
    n=2,
    num_vcs=1,
    buffer_depth=2,
    routing="dor",
    message_length=8,
    load=1.3,
    detection_interval=25,
    warmup_cycles=0,
    measure_cycles=400,
    max_cycles_counted=2_000,
    seed=97,
)

#: a unidirectional ring wedges *globally* (every in-flight message blocked
#: at once), which is what raises the production engine's maintained
#: all-immobile flag — the torus scenarios above always keep some traffic
#: mobile, so they never take that whole-phase skip (the second
#: engine-axis teeth scenario)
RING = SATURATED.replace(
    k=4, n=1, bidirectional=False, buffer_depth=1, message_length=4
)


# -- config generation ---------------------------------------------------------------
def test_random_config_deterministic():
    draws = [
        [dataclasses.asdict(random_config(random.Random(42))) for _ in range(5)]
        for _ in range(2)
    ]
    assert draws[0] == draws[1]


def test_random_configs_are_valid():
    rng = random.Random(7)
    for _ in range(10):
        random_config(rng).validate()  # raises on an invalid draw


# -- clean sweep ---------------------------------------------------------------------
def test_clean_configs_produce_no_mismatch():
    assert active_faults() == frozenset(), (
        f"unset {ENV_VAR} before running the test suite"
    )
    mismatches, checked = run_fuzz(num_configs=3, seed=3, shrink=False)
    assert checked == 3
    assert mismatches == []


# -- teeth: armed faults MUST be caught ----------------------------------------------
def test_skip_wake_is_caught_by_engine_axis(monkeypatch):
    """A fast path that forgets to wake waiters diverges from legacy."""
    monkeypatch.setenv(ENV_VAR, "skip-wake")
    mismatches = check_config(SATURATED, axes=("engine",))
    assert mismatches, "skip-wake fault was not detected: the net has no teeth"
    assert mismatches[0].axis == "engine"


def test_skip_block_epoch_is_caught_by_engine_axis(monkeypatch):
    """A blocked epoch that misses a header's first block lets the
    detector's short-circuit reuse a stale "no deadlock" record, so the
    production engine reports knots later than the legacy reference."""
    monkeypatch.setenv(ENV_VAR, "skip-block-epoch")
    # the stale record only matters when a detection lands between a
    # knot's last acquisition and its last first-block, so detect often on
    # the ring that wedges globally
    mismatches = check_config(
        RING.replace(detection_interval=5), axes=("engine",)
    )
    assert mismatches, (
        "skip-block-epoch fault was not detected: the net has no teeth"
    )
    assert mismatches[0].axis == "engine"


def test_as_shipped_pipeline_is_a_detector_axis_leg(miscounting_census):
    """The default config (the worm-level pipeline) is fuzzed: a
    contracted census that miscounts is caught by the detector axis."""
    mismatches = check_config(SATURATED, axes=("detector",))
    assert mismatches and mismatches[0].axis == "detector"
    assert "detector_caching=False diverges" in mismatches[0].detail


def test_wait_index_read_is_a_detector_axis_leg(dropped_wait_target):
    """The pipeline reads blocked requests from the production engine's
    wait index; the reference derives them from the routing relation.  A
    wait-index read that loses one target is caught by the detector axis."""
    mismatches = check_config(SATURATED, axes=("detector",))
    assert mismatches and mismatches[0].axis == "detector"
    assert "detector_caching=False diverges" in mismatches[0].detail


def test_unknown_fault_name_rejected(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "no-such-fault")
    with pytest.raises(ValueError, match="no-such-fault"):
        active_faults()


def test_known_faults_registry():
    assert KNOWN_FAULTS == {
        "skip-wake", "skip-immobile-clear", "skip-block-epoch",
        "steady-drain-gap", "crash-point", "flaky-point", "hang-point",
        "drop-lease-heartbeat",
    }


# -- shrinking -----------------------------------------------------------------------
def test_shrink_preserves_mismatch_and_simplifies(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "skip-wake")
    big = SATURATED.replace(measure_cycles=600, num_vcs=2)
    assert check_config(big, axes=("engine",)), "precondition: big mismatches"
    small, detail = shrink_config(big, "engine")
    assert detail, "shrinking must report the surviving mismatch"
    assert check_config(small, axes=("engine",)), "shrunk config must still fail"
    assert small.measure_cycles <= big.measure_cycles
    assert small.num_vcs <= big.num_vcs


def _building_check(monkeypatch, keep=lambda config: True):
    """Arm every axis with a comparison that builds the sim and reports a
    mismatch whenever ``keep(config)`` holds."""
    from repro.validation import differential

    def compare(config, field, value, base=None):
        NetworkSimulator(config)
        return "synthetic mismatch" if keep(config) else None

    monkeypatch.setattr(differential, "compare", compare)


@pytest.mark.parametrize(
    "config,keep",
    [
        # k=3 leaves transpose a 3-node network: ConfigurationError
        (tiny_default(traffic="transpose"), lambda c: True),
        # dor-dateline with one VC: RoutingError
        (
            tiny_default(routing="dor-dateline", num_vcs=2),
            lambda c: c.routing == "dor-dateline",
        ),
    ],
    ids=["transpose_power_of_two", "dateline_vcs"],
)
def test_shrink_skips_invalid_reductions(monkeypatch, config, keep):
    _building_check(monkeypatch, keep)
    small, detail = shrink_config(config, "engine")
    assert detail == "engine_fast_path=False diverges: synthetic mismatch"
    small.validate()
    NetworkSimulator(small)  # the minimum is a buildable config


def test_shrink_propagates_engine_failures(monkeypatch):
    """A SimulationError is a broken engine invariant, not an invalid
    combination: the shrinker must surface it."""
    base = tiny_default()

    def keep(config):
        if config != base:
            raise SimulationError("engine invariant violated")
        return True

    _building_check(monkeypatch, keep)
    with pytest.raises(SimulationError, match="engine invariant"):
        shrink_config(base, "engine")


# -- artifacts -----------------------------------------------------------------------
def test_artifact_roundtrip(tmp_path):
    mismatch = FuzzMismatch(
        axis="engine", config=SATURATED, detail="synthetic mismatch for test"
    )
    path = dump_artifact(mismatch, tmp_path / "artifact.json")
    axis, config = load_artifact(path)
    assert axis == "engine"
    assert dataclasses.asdict(config) == dataclasses.asdict(SATURATED)


def test_axes_are_the_documented_two():
    assert AXES == {"engine": "engine_fast_path", "detector": "detector_caching"}


def test_check_config_builds_one_sim_per_axis_plus_base(monkeypatch):
    """The as-configured run is shared: a config costs 1 + len(axes) sims."""
    from repro.validation import differential

    built = []

    def counting(config):
        built.append(config)
        return NetworkSimulator(config)

    monkeypatch.setattr(differential, "NetworkSimulator", counting)
    config = tiny_default(measure_cycles=100)
    assert check_config(config) == []
    assert len(built) == 1 + len(AXES)


def test_engine_axis_catches_a_record_only_divergence(monkeypatch):
    """A production engine whose detection records report one CWG arc too
    many: ``RunResult`` aggregates no arc count, so only a net that
    compares every record sees it."""
    from repro.network.production import ProductionEngine

    real = ProductionEngine._phase_detect

    def miscounting(self):
        record = real(self)
        if record is not None:
            self.detector.records[-1] = dataclasses.replace(
                record, cwg_arcs=record.cwg_arcs + 1
            )
        return record

    monkeypatch.setattr(ProductionEngine, "_phase_detect", miscounting)
    mismatches = check_config(SATURATED, axes=("engine",))
    assert mismatches and mismatches[0].axis == "engine"
    assert "record 0 (cycle 25) field 'cwg_arcs'" in mismatches[0].detail


def test_engine_axis_catches_an_rng_only_divergence(monkeypatch):
    """A production engine that draws once more after its last cycle: the
    result and every record agree, only the post-run RNG word differs."""
    from repro.network.production import ProductionEngine

    def overdrawing(self, progress_every=0):
        result = NetworkSimulator.run(self, progress_every)
        self.rng.random()
        return result

    monkeypatch.setattr(ProductionEngine, "run", overdrawing)
    mismatches = check_config(SATURATED, axes=("engine",))
    assert mismatches and mismatches[0].axis == "engine"
    assert "post-run RNG word" in mismatches[0].detail


def test_skip_immobile_clear_is_caught_by_engine_axis(monkeypatch):
    """A production engine whose all-immobile flag lies stays frozen forever.

    The fault leaves ``ProductionEngine._all_immobile`` raised after the
    wake-up events that should lower it, so once the ring wedges globally
    the faulty engine never moves another flit while the legacy reference
    drains the recovery — the engine axis must report that divergence.
    """
    monkeypatch.setenv(ENV_VAR, "skip-immobile-clear")
    mismatches = check_config(RING, axes=("engine",))
    assert mismatches, (
        "skip-immobile-clear fault was not detected: the engine axis "
        "has no teeth for the whole-phase skips"
    )
    assert mismatches[0].axis == "engine"


def test_skip_immobile_clear_does_not_trip_other_axes(monkeypatch):
    """Both legs of the detector axis run the same (faulty) production
    engine, so they must stay clean — pinning that the engine axis is the
    *necessary* net for this class of bug, not a redundant one."""
    monkeypatch.setenv(ENV_VAR, "skip-immobile-clear")
    mismatches = check_config(RING, axes=("detector",))
    assert mismatches == [], (
        "skip-immobile-clear leaked into the non-engine axes: "
        f"{[m.axis for m in mismatches]}"
    )


def test_steady_drain_gap_is_caught_by_engine_axis(monkeypatch):
    """A production engine that drains worms in steady state on a pool
    with sibling VCs: where another worm takes a draining worm's link,
    the reference leaves an owned VC empty while the faulty engine drains
    on — the engine axis must report that divergence."""
    monkeypatch.setenv(ENV_VAR, "steady-drain-gap")
    mismatches = check_config(SATURATED.replace(num_vcs=2), axes=("engine",))
    assert mismatches, (
        "steady-drain-gap fault was not detected: the engine axis has no "
        "teeth for the steady drains"
    )
    assert mismatches[0].axis == "engine"


def test_steady_drain_gap_does_not_trip_other_axes(monkeypatch):
    """Both legs of the detector axis run the same faulty engine."""
    monkeypatch.setenv(ENV_VAR, "steady-drain-gap")
    mismatches = check_config(SATURATED.replace(num_vcs=2), axes=("detector",))
    assert mismatches == [], (
        "steady-drain-gap leaked into the non-engine axes: "
        f"{[m.axis for m in mismatches]}"
    )


def test_steady_drain_gap_is_inert_on_a_steady_pool(monkeypatch):
    """With one VC per link and unit latency the gate the fault drops
    holds anyway, so the faulty engine stays bit-identical there."""
    monkeypatch.setenv(ENV_VAR, "steady-drain-gap")
    assert check_config(SATURATED, axes=("engine",)) == []
