"""Unit tests for message-length distributions (hybrid message lengths)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.network.draws import Draws
from repro.traffic.lengths import FixedLength, LengthMix


class TestFixed:
    def test_constant(self):
        f = FixedLength(7)
        rng = Draws(random.Random(0))
        assert all(f(rng) == 7 for _ in range(20))
        assert f.mean == 7.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            FixedLength(0)


class TestMix:
    def test_mean(self):
        mix = LengthMix([(4, 0.5), (12, 0.5)])
        assert mix.mean == pytest.approx(8.0)

    def test_weights_normalized(self):
        mix = LengthMix([(4, 2), (12, 2)])
        assert mix.mean == pytest.approx(8.0)

    def test_only_listed_lengths_drawn(self):
        mix = LengthMix([(2, 0.3), (8, 0.7)])
        rng = Draws(random.Random(1))
        drawn = {mix(rng) for _ in range(500)}
        assert drawn == {2, 8}

    def test_frequencies_respect_weights(self):
        mix = LengthMix([(2, 0.8), (32, 0.2)])
        rng = Draws(random.Random(2))
        n = 8000
        short = sum(1 for _ in range(n) if mix(rng) == 2)
        assert short / n == pytest.approx(0.8, abs=0.03)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            LengthMix([])
        with pytest.raises(ConfigurationError):
            LengthMix([(0, 1.0)])
        with pytest.raises(ConfigurationError):
            LengthMix([(4, 0.0)])


class TestGeneratorIntegration:
    def test_flit_rate_invariant_under_mix(self):
        """A hybrid mix offers the same flit rate as fixed-length traffic."""
        from repro.network.topology import KAryNCube
        from repro.traffic.injection import MessageGenerator
        from repro.traffic.patterns import UniformTraffic

        topo = KAryNCube(4, 2)
        fixed = MessageGenerator(
            topo, UniformTraffic(topo), 0.5, 8, Draws(random.Random(0))
        )
        mixed = MessageGenerator(
            topo,
            UniformTraffic(topo),
            0.5,
            8,
            Draws(random.Random(0)),
            lengths=LengthMix([(4, 0.5), (12, 0.5)]),  # mean 8
        )
        assert mixed.message_probability == pytest.approx(
            fixed.message_probability
        )
        cycles = 3000
        fixed_flits = sum(
            m.length for c in range(cycles) for m in fixed.tick(c, [0] * 16)
        )
        mixed_flits = sum(
            m.length for c in range(cycles) for m in mixed.tick(c, [0] * 16)
        )
        assert mixed_flits == pytest.approx(fixed_flits, rel=0.1)

    def test_simulation_with_hybrid_lengths(self):
        from repro.config import tiny_default
        from repro.network.simulator import NetworkSimulator

        cfg = tiny_default(
            length_mix=((2, 0.7), (16, 0.3)),
            load=0.5,
            measure_cycles=600,
            validation_level=2,
        )
        result = NetworkSimulator(cfg).run()
        assert result.delivered > 0

    def test_invalid_length_mix_config(self):
        from repro.config import tiny_default
        from repro.errors import ConfigurationError as CE

        with pytest.raises(CE):
            tiny_default(length_mix=((0, 1.0),)).validate()
