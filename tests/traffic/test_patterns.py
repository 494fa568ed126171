"""Unit tests for traffic patterns."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.network.draws import Draws
from repro.network.topology import KAryNCube
from repro.traffic.patterns import (
    BitComplementTraffic,
    BitReversalTraffic,
    HotSpotTraffic,
    PerfectShuffleTraffic,
    TornadoTraffic,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
)


@pytest.fixture
def torus():
    return KAryNCube(4, 2)  # 16 nodes, 4 address bits


class TestUniform:
    def test_never_self(self, torus):
        p = UniformTraffic(torus)
        rng = Draws(random.Random(1))
        for src in range(torus.num_nodes):
            for _ in range(50):
                assert p.dest_for(src, rng) != src

    def test_covers_all_destinations(self, torus):
        p = UniformTraffic(torus)
        rng = Draws(random.Random(2))
        seen = {p.dest_for(0, rng) for _ in range(2000)}
        assert seen == set(range(1, 16))

    def test_roughly_uniform(self, torus):
        p = UniformTraffic(torus)
        rng = Draws(random.Random(3))
        counts = [0] * 16
        n = 6000
        for _ in range(n):
            counts[p.dest_for(5, rng)] += 1
        expected = n / 15
        for dest, c in enumerate(counts):
            if dest == 5:
                assert c == 0
            else:
                assert abs(c - expected) < 5 * expected**0.5


class TestPermutations:
    def test_bit_reversal_fixed_points_return_none(self, torus):
        p = BitReversalTraffic(torus)
        rng = Draws(random.Random(0))
        # 0b0000 and 0b1001 etc. are palindromic: no traffic
        assert p.dest_for(0, rng) is None
        assert p.dest_for(0b1001, rng) is None

    def test_bit_reversal_mapping(self, torus):
        p = BitReversalTraffic(torus)
        rng = Draws(random.Random(0))
        assert p.dest_for(0b0001, rng) == 0b1000
        assert p.dest_for(0b0011, rng) == 0b1100

    def test_bit_reversal_is_involution(self, torus):
        p = BitReversalTraffic(torus)
        rng = Draws(random.Random(0))
        for src in range(16):
            dest = p.dest_for(src, rng)
            if dest is not None:
                assert p.dest_for(dest, rng) == src

    def test_transpose_swaps_coordinates(self, torus):
        p = TransposeTraffic(torus)
        rng = Draws(random.Random(0))
        for src in range(16):
            dest = p.dest_for(src, rng)
            x, y = torus.coords(src)
            if x == y:
                assert dest is None
            else:
                assert torus.coords(dest) == (y, x)

    def test_perfect_shuffle_rotates_bits(self, torus):
        p = PerfectShuffleTraffic(torus)
        rng = Draws(random.Random(0))
        assert p.dest_for(0b0001, rng) == 0b0010
        assert p.dest_for(0b1000, rng) == 0b0001
        assert p.dest_for(0b1111, rng) is None  # fixed point

    def test_bit_complement(self, torus):
        p = BitComplementTraffic(torus)
        rng = Draws(random.Random(0))
        assert p.dest_for(0, rng) == 15
        assert p.dest_for(0b0101, rng) == 0b1010

    def test_power_of_two_required(self):
        odd = KAryNCube(3, 2)  # 9 nodes
        with pytest.raises(ConfigurationError):
            BitReversalTraffic(odd)

    def test_transpose_needs_even_bits(self):
        t = KAryNCube(8, 1)  # 8 nodes, 3 bits
        with pytest.raises(ConfigurationError):
            TransposeTraffic(t)


class TestTornado:
    def test_halfway_shift(self, torus):
        p = TornadoTraffic(torus)
        rng = Draws(random.Random(0))
        dest = p.dest_for(0, rng)
        # k=4: shift (k-1)//2 = 1 in each dimension
        assert torus.coords(dest) == (1, 1)

    def test_constant_distance(self, torus):
        p = TornadoTraffic(torus)
        rng = Draws(random.Random(0))
        dists = {
            torus.min_distance(s, p.dest_for(s, rng))
            for s in range(torus.num_nodes)
        }
        assert len(dists) == 1


class TestHotSpot:
    def test_hotspot_receives_excess_traffic(self, torus):
        p = HotSpotTraffic(torus, hotspot=5, fraction=0.3)
        rng = Draws(random.Random(4))
        counts = [0] * 16
        for _ in range(4000):
            counts[p.dest_for(0, rng)] += 1
        others = [c for i, c in enumerate(counts) if i not in (0, 5)]
        assert counts[5] > 3 * max(others)

    def test_hotspot_node_itself_sends_uniform(self, torus):
        p = HotSpotTraffic(torus, hotspot=5, fraction=1.0)
        rng = Draws(random.Random(4))
        for _ in range(100):
            assert p.dest_for(5, rng) != 5

    def test_invalid_fraction(self, torus):
        with pytest.raises(ConfigurationError):
            HotSpotTraffic(torus, fraction=0.0)
        with pytest.raises(ConfigurationError):
            HotSpotTraffic(torus, fraction=1.5)

    def test_invalid_hotspot_node(self, torus):
        with pytest.raises(ConfigurationError):
            HotSpotTraffic(torus, hotspot=99)


class TestFactory:
    def test_all_names(self, torus):
        for name in (
            "uniform",
            "bit-reversal",
            "transpose",
            "perfect-shuffle",
            "bit-complement",
            "tornado",
            "hot-spot",
        ):
            assert make_pattern(name, torus).name == name

    def test_unknown(self, torus):
        with pytest.raises(ConfigurationError):
            make_pattern("mystery", torus)

    def test_kwargs_passed(self, torus):
        p = make_pattern("hot-spot", torus, fraction=0.5)
        assert p.fraction == 0.5
