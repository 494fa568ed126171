"""Tests for the runtime invariant checker (repro.validation.invariants).

Three concerns:

* wiring — ``validation_level`` attaches a checker, counters advance, and
  a validated run is bit-identical to an unvalidated one (pure observer);
* teeth — hand-corrupted simulator state is caught by the right check;
* knot soundness — real detections on a deadlocking run are verified.
"""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.network.message import MessageStatus
from repro.network.simulator import NetworkSimulator
from repro.validation.differential import compare
from repro.validation.invariants import (
    DEFAULT_CHECKS,
    InvariantChecker,
    InvariantViolation,
)

#: small saturated torus that deadlocks within a few hundred cycles
DEADLOCKING = SimulationConfig(
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


def run_steps(config, cycles):
    sim = NetworkSimulator(config)
    for _ in range(cycles):
        sim.step()
    return sim


# -- wiring --------------------------------------------------------------------------
def test_from_config_levels():
    assert InvariantChecker.from_config(SimulationConfig()) is None
    lvl1 = InvariantChecker.from_config(
        SimulationConfig(validation_level=1, validation_interval=40)
    )
    assert lvl1 is not None and lvl1.interval == 40
    lvl2 = InvariantChecker.from_config(SimulationConfig(validation_level=2))
    assert lvl2 is not None and lvl2.interval == 1
    # the every-cycle battery has one name: its old alias is refused
    with pytest.raises(ConfigurationError, match="validation_level=2"):
        SimulationConfig(check_invariants=True).validate()


def test_engine_attaches_checker_and_counters_advance():
    cfg = DEADLOCKING.replace(validation_level=2, measure_cycles=60)
    sim = NetworkSimulator(cfg)
    sim.run()
    checker = sim.validation
    assert checker is not None
    assert checker.passes >= 60
    assert checker.checks_run == checker.passes * len(checker.checks)
    assert checker.last_checked_cycle == sim.cycle


def test_sampling_interval_respected():
    cfg = DEADLOCKING.replace(
        validation_level=1, validation_interval=25, measure_cycles=100
    )
    sim = NetworkSimulator(cfg)
    sim.run()
    assert sim.validation.passes == 4  # cycles 25, 50, 75, 100


def test_validated_run_is_bit_identical():
    """The checker must be a pure observer: level 2 changes nothing."""
    cfg = DEADLOCKING.replace(measure_cycles=150)
    assert compare(cfg, cfg.replace(validation_level=2)) is None


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="unknown invariant check"):
        InvariantChecker(checks=["no-such-check"])


def test_validation_level_validated():
    with pytest.raises(ConfigurationError):
        SimulationConfig(validation_level=3).validate()
    with pytest.raises(ConfigurationError):
        SimulationConfig(validation_level=1, validation_interval=0).validate()


# -- teeth: corrupted state must be caught -------------------------------------------
def corrupt_flit_count(sim):
    msg = next(
        m for m in sim.active.values() if m.status is MessageStatus.ACTIVE
    )
    msg.at_source += 1


def corrupt_worm_order(sim):
    msg = next(m for m in sim.active.values() if len(m.vcs) >= 2)
    msg.vcs.reverse()


def corrupt_wake_index(sim):
    # deregister a waiting message from one of its keys: the engine would
    # now never wake it when that resource frees (the skip-wake fault class)
    msg = next(m for m in sim.active.values() if m.wait_keys)
    sim._wake_index[msg.wait_keys[0]].discard(msg.id)


@pytest.mark.parametrize(
    "corrupt, expected_check",
    [
        (corrupt_flit_count, "flit-conservation"),
        (corrupt_worm_order, "worm-contiguity"),
        (corrupt_wake_index, "activity-coherence"),
    ],
)
def test_corruption_is_caught(corrupt, expected_check):
    sim = run_steps(DEADLOCKING, 80)
    checker = InvariantChecker()
    checker.check_now(sim)  # sanity: honest state passes
    try:
        corrupt(sim)
    except StopIteration:
        pytest.skip("run produced no state to corrupt (tune DEADLOCKING)")
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_now(sim)
    assert exc_info.value.check == expected_check


def test_violation_carries_context():
    sim = run_steps(DEADLOCKING, 80)
    corrupt_flit_count(sim)
    with pytest.raises(InvariantViolation) as exc_info:
        InvariantChecker().check_now(sim)
    err = exc_info.value
    assert err.cycle == sim.cycle
    assert "flit-conservation" in str(err)


# -- knot soundness ------------------------------------------------------------------
def test_real_detections_are_verified():
    cfg = DEADLOCKING.replace(validation_level=2)
    sim = NetworkSimulator(cfg)
    result = sim.run()
    assert result.deadlocks > 0, "scenario must deadlock for this test to bite"
    assert sim.validation.detections_verified > 0


def test_fabricated_knot_event_rejected():
    """on_detection rejects an event whose members are not truly blocked."""
    cfg = DEADLOCKING.replace(validation_level=2)
    sim = NetworkSimulator(cfg)
    sim.run()
    events = sim.detector.events
    assert events, "scenario must deadlock for this test to bite"
    fake = dataclasses.replace(events[-1], deadlock_set=frozenset({999_999}))
    record = dataclasses.replace(
        sim.detector.records[-1], events=[fake]
    )
    with pytest.raises(InvariantViolation, match="knot-soundness"):
        sim.validation.on_detection(sim, record)


def test_default_battery_is_complete():
    assert set(DEFAULT_CHECKS) == {
        "flit-conservation",
        "channel-exclusivity",
        "worm-contiguity",
        "activity-coherence",
    }
