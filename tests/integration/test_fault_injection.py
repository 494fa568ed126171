"""Failure injection: faulty links, adaptivity exhaustion, wedged networks."""

import pytest

from repro.config import SimulationConfig, tiny_default
from repro.errors import TopologyError
from repro.network.simulator import NetworkSimulator


def run(**overrides):
    cfg = tiny_default(**overrides)
    sim = NetworkSimulator(cfg)
    return sim, sim.run()


class TestFaultyLinks:
    def test_network_survives_failed_links(self):
        _, result = run(
            failed_links=((0, 1), (5, 6)),
            routing="tfar",
            load=0.3,
            measure_cycles=1500,
            validation_level=2,
        )
        assert result.delivered > 0

    def test_routing_never_uses_failed_link(self):
        cfg = tiny_default(
            failed_links=((0, 1),), routing="tfar", load=0.5,
            measure_cycles=800, warmup_cycles=0,
        )
        sim = NetworkSimulator(cfg)
        assert not sim.topology.has_link(0, 1)
        sim.run()
        # no VC can exist on a removed physical channel
        for vc in sim.pool.vcs:
            assert (vc.link.src, vc.link.dst) != (0, 1)

    def test_disconnection_rejected(self):
        # sever node 0 completely in a 2-node ring
        with pytest.raises(TopologyError):
            NetworkSimulator(
                SimulationConfig(
                    k=2, n=1, failed_links=((0, 1), (1, 0)),
                    message_length=2,
                )
            )

    def test_faults_reduce_adaptivity_and_raise_blocking(self):
        """Removing links leaves fewer alternatives: blocking should not
        drop when many links fail (the Figure-2 exhaustion mechanism)."""
        base = dict(routing="tfar", num_vcs=1, load=0.8, measure_cycles=2000,
                    seed=5)
        _, healthy = run(**base)
        _, faulty = run(
            failed_links=((0, 1), (1, 2), (5, 6), (10, 11)), **base
        )
        assert (
            faulty.avg_blocked_fraction
            >= healthy.avg_blocked_fraction - 0.10
        )


class TestWedgedNetwork:
    def test_unrecovered_deadlock_persists_forever(self):
        """With recovery disabled, a knotted set of messages never moves."""
        cfg = tiny_default(
            routing="dor", num_vcs=1, load=1.0, recovery="none",
            measure_cycles=3000, seed=3,
        )
        sim = NetworkSimulator(cfg)
        sim.run()
        knotted = [r for r in sim.detector.records if r.events]
        if not knotted:
            pytest.skip("no deadlock formed with this seed")
        first = knotted[0]
        # every later detection must still contain the same wedged resources
        wedged = set().union(*(e.knot for e in first.events))
        later = [r for r in sim.detector.records if r.cycle > first.cycle]
        assert later
        for record in later[-3:]:
            current = set()
            for e in record.events:
                current |= e.knot
            assert wedged <= current

    def test_recovered_network_does_not_rewedge_on_same_messages(self):
        cfg = tiny_default(
            routing="dor", num_vcs=1, load=1.0, recovery="disha",
            measure_cycles=3000, seed=3,
        )
        sim = NetworkSimulator(cfg)
        result = sim.run()
        # each detected knot was broken: victims equal deadlock count
        assert result.recovered == result.deadlocks
