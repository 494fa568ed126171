"""Tests for the differential fuzz harness (repro.validation.differential).

The critical test here is the *teeth* group: arming an intentional fault
via ``REPRO_INJECT_FAULT`` and proving the harness reports a mismatch.  A
differential net that cannot catch a deliberately broken engine is
decorative; these tests keep it honest.
"""

import dataclasses
import random

import pytest

from repro.config import SimulationConfig
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
    """The default config (the contracted pipeline) is fuzzed: a
    contracted census that miscounts is caught by the detector axis."""
    mismatches = check_config(SATURATED, axes=("detector",))
    assert mismatches and mismatches[0].axis == "detector"
    assert "detector pipeline diverges" in mismatches[0].detail


def test_unknown_fault_name_rejected(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "no-such-fault")
    with pytest.raises(ValueError, match="no-such-fault"):
        active_faults()


def test_known_faults_registry():
    assert KNOWN_FAULTS == {
        "skip-wake", "skip-immobile-clear", "skip-block-epoch",
        "crash-point", "flaky-point", "hang-point",
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
    assert AXES == ("engine", "detector")


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
