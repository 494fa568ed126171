"""Tests for multiple reception channels per node."""

import pytest

from repro.config import tiny_default
from repro.errors import ConfigurationError, SimulationError
from repro.network.channels import ChannelPool
from repro.network.message import Message, MessageStatus
from repro.network.simulator import NetworkSimulator
from repro.network.topology import KAryNCube


class TestPool:
    def test_groups_created(self):
        pool = ChannelPool(KAryNCube(4, 2), 1, 2, rx_channels=3)
        assert all(len(g) == 3 for g in pool.reception_groups)
        assert [rx.index for rx in pool.reception_groups[5]] == [0, 1, 2]

    def test_free_reception_picks_first_free(self):
        pool = ChannelPool(KAryNCube(4, 2), 1, 2, rx_channels=2)
        group = pool.reception_groups[3]
        group[0].acquire(1)
        assert pool.free_reception(3) is group[1]
        group[1].acquire(2)
        assert pool.free_reception(3) is None

    def test_invalid_count(self):
        with pytest.raises(SimulationError):
            ChannelPool(KAryNCube(4, 2), 1, 2, rx_channels=0)
        with pytest.raises(ConfigurationError):
            tiny_default(rx_channels=0).validate()


class TestConcurrentEjection:
    def _race(self, rx_channels):
        """Two messages arrive at the same destination simultaneously."""
        cfg = tiny_default(load=0.0, routing="dor", rx_channels=rx_channels,
                           validation_level=2)
        sim = NetworkSimulator(cfg)
        a = Message(0, 1, 0, 8, created_cycle=0)
        b = Message(1, 4, 0, 8, created_cycle=0)
        for m in (a, b):
            sim.queues[m.src].append(m)
            sim._live[m.id] = m
        while not (a.is_done and b.is_done) and sim.cycle < 400:
            sim.step()
        assert a.status is MessageStatus.DELIVERED
        assert b.status is MessageStatus.DELIVERED
        return max(a.completed_cycle, b.completed_cycle)

    def test_two_rx_channels_faster_than_one(self):
        serial = self._race(rx_channels=1)
        concurrent = self._race(rx_channels=2)
        # with one channel the second message waits a full drain (8 cycles)
        assert concurrent < serial

    def test_single_rx_serializes(self):
        done = self._race(rx_channels=1)
        assert done >= 2 * 8  # two 8-flit drains cannot overlap


class TestDetectionWithMultiRx:
    def test_rx_waits_cover_whole_group(self):
        """A message blocked on ejection waits on *every* rx channel."""
        from repro.core.detector import DeadlockDetector

        cfg = tiny_default(load=0.0, routing="dor", rx_channels=2)
        sim = NetworkSimulator(cfg)
        msgs = [Message(i, src, 0, 8, created_cycle=0)
                for i, src in enumerate((1, 4, 3))]
        for m in msgs:
            sim.queues[m.src].append(m)
            sim._live[m.id] = m
        saw_group_wait = False
        while sim.cycle < 200 and not saw_group_wait:
            sim.step()
            g = DeadlockDetector.build_cwg(sim)
            for mid, targets in g.requests.items():
                rx_targets = [t for t in targets if isinstance(t, tuple)]
                if rx_targets:
                    assert sorted(rx_targets) == [("rx", 0, 0), ("rx", 0, 1)]
                    saw_group_wait = True
        assert saw_group_wait

    def test_pipeline_equivalence_with_multi_rx(self):
        """Reception waits fan out over the whole rx group; the contracted
        pipeline must agree with the reference pass on those arcs."""
        from repro.core.detector import DeadlockDetector
        from repro.validation.reference import ReferenceDetector

        cfg = tiny_default(
            load=1.0, routing="dor", num_vcs=1, rx_channels=2, seed=3,
            warmup_cycles=0, measure_cycles=600,
        )
        sim = NetworkSimulator(cfg)
        while sim.cycle < 600:
            sim.step()
            if sim.cycle % 50 == 0:
                pipeline = DeadlockDetector().detect(sim)
                reference = ReferenceDetector().detect(sim)
                assert pipeline == reference

    def test_extra_rx_channels_relieve_ejection_pressure(self):
        results = {}
        for rx in (1, 4):
            cfg = tiny_default(traffic="hot-spot", hotspot_fraction=0.4,
                               load=0.6, rx_channels=rx, seed=2,
                               measure_cycles=1500)
            results[rx] = NetworkSimulator(cfg).run()
        assert results[4].avg_latency <= results[1].avg_latency
