"""Unit tests for hybrid (mixture) traffic patterns."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.network.draws import Draws
from repro.network.topology import KAryNCube
from repro.traffic.patterns import HybridTraffic, TransposeTraffic, make_pattern


@pytest.fixture
def torus():
    return KAryNCube(4, 2)


def test_components_by_name(torus):
    h = HybridTraffic(torus, [("uniform", 0.5), ("transpose", 0.5)])
    assert len(h.components) == 2


def test_components_by_instance(torus):
    h = HybridTraffic(torus, [(TransposeTraffic(torus), 1.0)])
    rng = Draws(random.Random(0))
    # pure transpose through the hybrid wrapper
    for src in range(16):
        x, y = torus.coords(src)
        expected = None if x == y else torus.node_at((y, x))
        assert h.dest_for(src, rng) == expected


def test_mixture_draws_from_both(torus):
    h = HybridTraffic(torus, [("uniform", 0.5), ("bit-complement", 0.5)])
    rng = Draws(random.Random(1))
    complement_hits = 0
    trials = 2000
    for _ in range(trials):
        dest = h.dest_for(3, rng)
        if dest == 12:  # ~(3) in 4 bits
            complement_hits += 1
    # bit-complement contributes ~50%, uniform adds ~1/15 of the rest
    assert complement_hits / trials == pytest.approx(0.53, abs=0.06)


def test_weights_respected(torus):
    h = HybridTraffic(torus, [("uniform", 0.9), ("bit-complement", 0.1)])
    rng = Draws(random.Random(2))
    hits = sum(1 for _ in range(4000) if h.dest_for(3, rng) == 12)
    assert hits / 4000 < 0.25


def test_empty_components_rejected(torus):
    with pytest.raises(ConfigurationError):
        HybridTraffic(torus, [])
    with pytest.raises(ConfigurationError):
        HybridTraffic(torus, None)


def test_nested_hybrid_rejected(torus):
    inner = HybridTraffic(torus, [("uniform", 1.0)])
    with pytest.raises(ConfigurationError):
        HybridTraffic(torus, [(inner, 1.0)])


def test_nonpositive_weight_rejected(torus):
    with pytest.raises(ConfigurationError):
        HybridTraffic(torus, [("uniform", 0.0)])


def test_factory_integration(torus):
    h = make_pattern("hybrid", torus, components=[("uniform", 1.0)])
    assert isinstance(h, HybridTraffic)


def test_simulation_with_hybrid_traffic():
    from repro.config import tiny_default
    from repro.network.simulator import NetworkSimulator

    cfg = tiny_default(
        traffic="hybrid",
        traffic_mix=(("uniform", 0.6), ("hot-spot", 0.4)),
        load=0.4,
        measure_cycles=600,
    )
    result = NetworkSimulator(cfg).run()
    assert result.delivered > 0


def test_hybrid_without_mix_rejected():
    from repro.config import tiny_default

    with pytest.raises(ConfigurationError):
        tiny_default(traffic="hybrid").validate()
