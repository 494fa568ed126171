"""Tests for flit-by-flit teardown and timeout-heuristic recovery."""

import pytest

from repro.config import tiny_default
from repro.errors import ConfigurationError
from repro.network.message import Message, MessageStatus
from repro.network.simulator import NetworkSimulator


class TestTeardownMechanics:
    def test_begin_teardown_discards_source_flits(self):
        m = Message(1, 0, 1, 8, created_cycle=0)
        m.begin_teardown()
        assert m.at_source == 0
        assert m.ejected == 8
        assert m.teardown_complete
        m.check_conservation()

    def test_teardown_step_drains_head(self):
        from repro.network.channels import ChannelPool
        from repro.network.topology import KAryNCube

        topo = KAryNCube(4, 2)
        pool = ChannelPool(topo, 1, 4)
        m = Message(1, 0, 2, 4, created_cycle=0)
        vc = pool.vcs_of_link(topo.link_between(0, 1))[0]
        m.acquire_vc(vc, 0)
        vc.occupancy = 4
        m.at_source = 0
        m.begin_teardown()
        drained = 0
        while not m.teardown_complete:
            drained += m.teardown_step()
        assert drained == 4
        m.check_conservation()

    def test_recovering_message_not_blocked(self):
        m = Message(1, 0, 1, 4, created_cycle=0)
        m.begin_teardown()
        assert not m.needs_next_vc
        assert not m.needs_reception


class TestFlitByFlitRecovery:
    def test_end_to_end_teardown(self):
        cfg = tiny_default(
            routing="dor",
            num_vcs=1,
            load=1.0,
            recovery_teardown="flit-by-flit",
            measure_cycles=3000,
            validation_level=2,
            seed=3,
        )
        sim = NetworkSimulator(cfg)
        result = sim.run()
        assert result.deadlocks > 0
        assert result.recovered > 0
        # teardown completions never exceed detected deadlocks
        assert result.recovered <= result.deadlocks + 5

    def test_victims_release_resources_progressively(self):
        """After teardown completes no resources remain owned by victims."""
        cfg = tiny_default(
            routing="dor", num_vcs=1, load=1.0,
            recovery_teardown="flit-by-flit", measure_cycles=2000, seed=3,
        )
        sim = NetworkSimulator(cfg)
        sim.run()
        for vc in sim.pool.vcs:
            if vc.owner is not None:
                assert vc.owner in sim.active
                assert sim.active[vc.owner].status is MessageStatus.ACTIVE

    def test_comparable_to_instant_recovery(self):
        results = {}
        for mode in ("instant", "flit-by-flit"):
            cfg = tiny_default(
                routing="dor", num_vcs=1, load=1.0,
                recovery_teardown=mode, measure_cycles=2500, seed=3,
            )
            results[mode] = NetworkSimulator(cfg).run()
        # both keep the network flowing past saturation
        assert results["flit-by-flit"].delivered > 0
        assert results["instant"].delivered > 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_default(recovery_teardown="magic").validate()


class TestTimeoutRecovery:
    def test_timeout_mode_recovers_congested_messages(self):
        cfg = tiny_default(
            routing="tfar",
            num_vcs=1,
            load=1.2,
            detection_mode="timeout",
            timeout_threshold=100,
            measure_cycles=3000,
            seed=1,
        )
        sim = NetworkSimulator(cfg)
        result = sim.run()
        assert result.timeout_recoveries > 0
        # the heuristic fires on congestion: most recoveries are unnecessary
        # whenever true deadlocks are rarer than timeouts
        assert result.unnecessary_recoveries <= result.timeout_recoveries

    def test_timeout_mode_false_positives_vs_truth(self):
        """TFAR rarely truly deadlocks, so an aggressive timeout mostly
        recovers messages that were merely congested."""
        cfg = tiny_default(
            routing="tfar",
            num_vcs=2,  # provably nearly deadlock-free in practice
            load=1.2,
            detection_mode="timeout",
            timeout_threshold=75,
            measure_cycles=3000,
            seed=2,
        )
        result = NetworkSimulator(cfg).run()
        if result.timeout_recoveries:
            assert result.unnecessary_recoveries == result.timeout_recoveries

    def test_large_threshold_never_fires_below_saturation(self):
        cfg = tiny_default(
            routing="dor",
            num_vcs=2,
            load=0.2,
            detection_mode="timeout",
            timeout_threshold=10_000,
            measure_cycles=1500,
        )
        result = NetworkSimulator(cfg).run()
        assert result.timeout_recoveries == 0

    def test_knot_stats_still_collected_in_timeout_mode(self):
        cfg = tiny_default(
            routing="dor", num_vcs=1, load=1.0,
            detection_mode="timeout", timeout_threshold=200,
            measure_cycles=2500, seed=3,
        )
        sim = NetworkSimulator(cfg)
        result = sim.run()
        # true detection ran alongside: records exist with ground truth
        assert sim.detector.records
        assert result.deadlocks >= 0  # knots counted even though not used

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_default(detection_mode="psychic").validate()
        with pytest.raises(ConfigurationError):
            tiny_default(timeout_threshold=0).validate()
