"""Unit tests for the message generator and load normalization."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.network.draws import Draws
from repro.network.topology import KAryNCube
from repro.traffic.injection import MessageGenerator
from repro.traffic.patterns import UniformTraffic


@pytest.fixture
def torus():
    return KAryNCube(4, 2)


def make_gen(torus, load=0.5, length=8, cap=None, seed=0):
    return MessageGenerator(
        torus, UniformTraffic(torus), load, length, Draws(random.Random(seed)), cap
    )


def test_zero_load_generates_nothing(torus):
    gen = make_gen(torus, load=0.0)
    for cycle in range(100):
        assert gen.tick(cycle, [0] * 16) == []


def test_rate_matches_load(torus):
    load, length = 0.5, 8
    gen = make_gen(torus, load=load, length=length)
    cycles = 4000
    total = sum(len(gen.tick(c, [0] * 16)) for c in range(cycles))
    expected = (
        load
        * torus.capacity_flits_per_node_cycle
        / length
        * cycles
        * torus.num_nodes
    )
    assert total == pytest.approx(expected, rel=0.1)


def test_message_fields(torus):
    gen = make_gen(torus, load=1.0)
    msgs = []
    cycle = 0
    while len(msgs) < 20:
        msgs.extend(gen.tick(cycle, [0] * 16))
        cycle += 1
    ids = [m.id for m in msgs]
    assert ids == sorted(set(ids))  # unique, increasing
    for m in msgs:
        assert m.src != m.dest
        assert m.length == 8
        assert 0 <= m.src < 16 and 0 <= m.dest < 16


def test_queue_cap_suppresses(torus):
    gen = make_gen(torus, load=2.0, cap=0)
    out = [gen.tick(c, [1] * 16) for c in range(50)]
    assert all(batch == [] for batch in out)
    assert gen.suppressed > 0


def test_probability_clamped_at_one(torus):
    gen = make_gen(torus, load=100.0, length=1)
    assert gen.message_probability == 1.0
    batch = gen.tick(0, [0] * 16)
    assert len(batch) == 16  # every node generated


def test_invalid_parameters(torus):
    with pytest.raises(ConfigurationError):
        make_gen(torus, load=-0.5)
    with pytest.raises(ConfigurationError):
        MessageGenerator(
            torus, UniformTraffic(torus), 0.5, 0, Draws(random.Random(0)), None
        )


def test_deterministic_given_seed(torus):
    a = make_gen(torus, seed=7)
    b = make_gen(torus, seed=7)
    for cycle in range(200):
        batch_a = a.tick(cycle, [0] * 16)
        batch_b = b.tick(cycle, [0] * 16)
        assert [(m.src, m.dest) for m in batch_a] == [
            (m.src, m.dest) for m in batch_b
        ]
