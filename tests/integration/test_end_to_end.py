"""End-to-end simulation behaviour across routing algorithms and loads."""

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator


def run(**overrides):
    cfg = tiny_default(**overrides)
    sim = NetworkSimulator(cfg)
    return sim, sim.run()


class TestDeliveryAcrossRouters:
    @pytest.mark.parametrize(
        "routing,num_vcs,mesh",
        [
            ("dor", 1, False),
            ("dor", 2, False),
            ("tfar", 1, False),
            ("tfar", 2, False),
            ("tfar-mis", 2, False),
            ("dor-dateline", 2, False),
            ("duato", 3, False),
            ("negative-first", 1, True),
        ],
    )
    def test_light_load_delivers_everything_offered(self, routing, num_vcs, mesh):
        sim, result = run(
            routing=routing,
            num_vcs=num_vcs,
            mesh=mesh,
            load=0.15,
            measure_cycles=1500,
            warmup_cycles=300,
            validation_level=2,
        )
        assert result.delivered > 0
        thr = result.normalized_throughput(
            sim.topology.capacity_flits_per_node_cycle
        )
        assert thr == pytest.approx(0.15, rel=0.35)
        # light load: latency near the unloaded bound
        assert result.avg_latency < 10 * (
            sim.topology.average_internode_distance + sim.config.message_length
        )


class TestDeadlockFormation:
    def test_dor_one_vc_deadlocks_at_saturation(self):
        _, result = run(routing="dor", num_vcs=1, load=1.0, measure_cycles=3000)
        assert result.deadlocks > 0
        assert result.multi_cycle_deadlocks == 0  # DOR fan-out is 1

    def test_uni_torus_deadlocks_more_than_bi(self):
        _, uni = run(
            routing="dor", num_vcs=1, bidirectional=False, load=0.8,
            measure_cycles=2500,
        )
        _, bi = run(routing="dor", num_vcs=1, load=0.8, measure_cycles=2500)
        assert uni.normalized_deadlocks > bi.normalized_deadlocks

    def test_dor_deadlock_characteristics(self):
        sim, result = run(routing="dor", num_vcs=1, load=1.0, measure_cycles=3000)
        for event in sim.detector.events:
            assert event.knot_cycle_density == 1
            assert event.deadlock_set_size >= 2
            assert event.resource_set_size >= event.deadlock_set_size
            # knot channels are a subset of the deadlock set's resources
            vcs_in_knot = {v for v in event.knot if isinstance(v, int)}
            assert vcs_in_knot <= {
                v for v in event.resource_set if isinstance(v, int)
            }

    def test_deadlocked_messages_marked(self):
        sim, result = run(
            routing="dor", num_vcs=1, load=1.0, measure_cycles=2500,
            recovery="abort-all",
        )
        if result.deadlocks:
            assert result.aborted > 0


class TestRecoveryIntegration:
    def test_disha_recovery_keeps_network_flowing(self):
        _, result = run(routing="dor", num_vcs=1, load=1.0, measure_cycles=3000)
        # with recovery enabled, delivery continues past saturation
        assert result.delivered > 100
        assert result.recovered == result.deadlocks  # one victim per knot

    def test_no_recovery_wedges_the_network(self):
        """Without recovery, deadlocked channels stay wedged: the same knot
        is re-detected and throughput collapses relative to recovery."""
        sim_none, none = run(
            routing="dor", num_vcs=1, load=1.0, measure_cycles=3000,
            recovery="none", seed=3,
        )
        _, disha = run(
            routing="dor", num_vcs=1, load=1.0, measure_cycles=3000,
            recovery="disha", seed=3,
        )
        if none.deadlocks:
            assert none.delivered < disha.delivered
            # a wedged knot persists across detections
            knotted_cycles = [r.cycle for r in sim_none.detector.records
                              if r.events]
            assert len(knotted_cycles) > 1

    def test_abort_all_clears_wider(self):
        _, result = run(
            routing="dor", num_vcs=1, load=1.0, measure_cycles=3000,
            recovery="abort-all",
        )
        if result.deadlocks:
            assert result.aborted >= result.deadlocks


class TestVirtualChannelEffect:
    def test_more_vcs_fewer_deadlocks(self):
        totals = {}
        for vcs in (1, 3):
            _, result = run(
                routing="dor", num_vcs=vcs, load=1.0, measure_cycles=2500
            )
            totals[vcs] = result.deadlocks
        assert totals[3] <= totals[1]

    def test_tfar_two_vcs_no_deadlocks(self):
        _, result = run(routing="tfar", num_vcs=2, load=1.2, measure_cycles=2500)
        assert result.deadlocks == 0


class TestBufferDepthEffect:
    def test_cut_through_fewer_deadlocks_than_wormhole(self):
        cfgs = dict(routing="tfar", num_vcs=1, load=1.2, measure_cycles=2500,
                    bidirectional=False)
        _, wormhole = run(buffer_depth=1, **cfgs)
        _, vct = run(buffer_depth=8, **cfgs)  # buffer == message length
        # per message in the network, shallow buffers deadlock at least as much
        assert (
            vct.deadlocks / vct.avg_messages_in_network
            <= wormhole.deadlocks / wormhole.avg_messages_in_network + 1e-9
        )


class TestTrafficPatterns:
    @pytest.mark.parametrize(
        "traffic",
        ["uniform", "bit-reversal", "transpose", "perfect-shuffle", "hot-spot",
         "bit-complement", "tornado"],
    )
    def test_all_patterns_run_clean(self, traffic):
        _, result = run(
            traffic=traffic, load=0.4, measure_cycles=1200,
            validation_level=2,
        )
        # permutations route fine; some (sparse senders) deliver less
        assert result.measured_cycles == 1200
