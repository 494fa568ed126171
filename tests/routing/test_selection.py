"""Unit tests for channel-selection policies."""

import random

import pytest

from repro.network.channels import ChannelPool
from repro.network.draws import Draws
from repro.network.message import Message
from repro.network.topology import KAryNCube
from repro.routing.selection import (
    LowestIndexFirst,
    RandomSelection,
    StraightThroughFirst,
    make_selection,
)


@pytest.fixture
def torus():
    return KAryNCube(4, 2)


@pytest.fixture
def pool(torus):
    return ChannelPool(torus, num_vcs=1, buffer_depth=2)


def test_straight_prefers_current_dimension(torus, pool):
    m = Message(0, 0, 10, 4, 0)
    vc_d0 = pool.vcs_of_link(torus.link_between(0, 1))[0]
    m.acquire_vc(vc_d0, 0)  # travelling in dimension 0
    straight = pool.vcs_of_link(torus.link_between(1, 2))[0]  # dim 0
    turn = pool.vcs_of_link(torus.link_between(1, 5))[0]  # dim 1
    policy = StraightThroughFirst()
    for seed in range(10):
        assert policy.choose(m, [turn, straight], Draws(random.Random(seed))) is straight


def test_straight_falls_back_when_no_straight_option(torus, pool):
    m = Message(0, 0, 10, 4, 0)
    vc_d0 = pool.vcs_of_link(torus.link_between(0, 1))[0]
    m.acquire_vc(vc_d0, 0)
    turn = pool.vcs_of_link(torus.link_between(1, 5))[0]
    assert StraightThroughFirst().choose(m, [turn], Draws(random.Random(0))) is turn


def test_straight_random_for_fresh_message(torus, pool):
    m = Message(0, 0, 10, 4, 0)  # owns nothing: no current dimension
    a = pool.vcs_of_link(torus.link_between(0, 1))[0]
    b = pool.vcs_of_link(torus.link_between(0, 4))[0]
    seen = {
        StraightThroughFirst().choose(m, [a, b], Draws(random.Random(s))).index
        for s in range(30)
    }
    assert seen == {a.index, b.index}  # both get picked over seeds


def test_policies_return_none_on_empty(torus, pool):
    m = Message(0, 0, 10, 4, 0)
    for policy in (StraightThroughFirst(), RandomSelection(), LowestIndexFirst()):
        assert policy.choose(m, [], Draws(random.Random(0))) is None


def test_lowest_index_deterministic(torus, pool):
    m = Message(0, 0, 10, 4, 0)
    vcs = pool.vcs[:5]
    assert LowestIndexFirst().choose(m, vcs[::-1], Draws(random.Random(0))) is vcs[0]


def test_random_uniformish(torus, pool):
    m = Message(0, 0, 10, 4, 0)
    vcs = pool.vcs[:4]
    rng = Draws(random.Random(42))
    counts = {vc.index: 0 for vc in vcs}
    for _ in range(400):
        counts[RandomSelection().choose(m, vcs, rng).index] += 1
    assert all(c > 50 for c in counts.values())


def test_factory():
    assert isinstance(make_selection("straight"), StraightThroughFirst)
    assert isinstance(make_selection("random"), RandomSelection)
    assert isinstance(make_selection("lowest"), LowestIndexFirst)
    with pytest.raises(ValueError):
        make_selection("bogus")
