"""Kitchen-sink interaction tests: every optional feature at once.

Individual features are tested in isolation elsewhere; these runs combine
them (hybrid lengths + hybrid traffic + multi-rx + pipeline delay +
flit-by-flit teardown + arbitration policies) with
per-cycle invariant checking, because feature interactions are where state
machines break.
"""

import pytest

from repro.config import SimulationConfig
from repro.core.detector import DeadlockDetector
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceDetector


def kitchen_sink_config(**overrides):
    params = dict(
        k=4,
        n=2,
        routing="dor",
        num_vcs=1,
        buffer_depth=2,
        message_length=8,
        length_mix=((2, 0.5), (12, 0.5)),
        traffic="hybrid",
        traffic_mix=(("uniform", 0.6), ("hot-spot", 0.2), ("transpose", 0.2)),
        load=1.0,
        rx_channels=2,
        router_delay=1,
        arbitration="round-robin",
        recovery="disha",
        recovery_teardown="flit-by-flit",
        detection_interval=25,
        warmup_cycles=0,
        measure_cycles=1500,
        max_queued_per_node=8,
        validation_level=2,
        seed=5,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def test_everything_at_once_stays_consistent():
    sim = NetworkSimulator(kitchen_sink_config())
    result = sim.run()
    assert result.delivered > 0
    # the contracted pipeline still agrees with the reference pass under
    # full feature load
    pipeline = DeadlockDetector().detect(sim)
    reference = ReferenceDetector().detect(sim)
    assert pipeline == reference


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_everything_at_once_multiple_seeds(seed):
    sim = NetworkSimulator(kitchen_sink_config(seed=seed, measure_cycles=800))
    result = sim.run()
    assert result.delivered > 0
    # conservation holds for every live message
    for m in sim.active.values():
        m.check_conservation()


def test_kitchen_sink_deterministic():
    a = NetworkSimulator(kitchen_sink_config(measure_cycles=600)).run()
    b = NetworkSimulator(kitchen_sink_config(measure_cycles=600)).run()
    assert (a.delivered, a.deadlocks, a.recovered, a.latency_sum) == (
        b.delivered, b.deadlocks, b.recovered, b.latency_sum
    )


def test_kitchen_sink_with_timeout_detection():
    cfg = kitchen_sink_config(
        detection_mode="timeout", timeout_threshold=150, measure_cycles=1200
    )
    sim = NetworkSimulator(cfg)
    result = sim.run()
    assert result.delivered > 0
    assert result.unnecessary_recoveries <= result.timeout_recoveries


def test_kitchen_sink_with_faults():
    cfg = kitchen_sink_config(
        traffic="uniform",
        traffic_mix=(),
        failed_links=((0, 1), (5, 6)),
        routing="tfar",
        measure_cycles=1000,
    )
    result = NetworkSimulator(cfg).run()
    assert result.delivered > 0
