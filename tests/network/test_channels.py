"""Unit tests for virtual channels, reception channels, and the pool."""

import pytest

from repro.errors import SimulationError
from repro.network.channels import ChannelPool, ReceptionChannel, VirtualChannel
from repro.network.topology import KAryNCube


@pytest.fixture
def pool():
    return ChannelPool(KAryNCube(4, 2), num_vcs=2, buffer_depth=3)


class TestVirtualChannel:
    def test_acquire_release_cycle(self, pool):
        vc = pool.vcs[0]
        assert vc.owner is None
        vc.acquire(7)
        assert vc.owner == 7
        assert vc.owner is not None
        vc.release(7)
        assert vc.owner is None

    def test_double_acquire_rejected(self, pool):
        vc = pool.vcs[0]
        vc.acquire(1)
        with pytest.raises(SimulationError):
            vc.acquire(2)

    def test_release_by_non_owner_rejected(self, pool):
        vc = pool.vcs[0]
        vc.acquire(1)
        with pytest.raises(SimulationError):
            vc.release(2)

    def test_release_with_flits_rejected(self, pool):
        vc = pool.vcs[0]
        vc.acquire(1)
        vc.occupancy = 1
        with pytest.raises(SimulationError):
            vc.release(1)

    def test_src_dst_follow_link(self, pool):
        vc = pool.vcs[0]
        assert vc.src == vc.link.src
        assert vc.dst == vc.link.dst


class TestReceptionChannel:
    def test_acquire_release(self):
        rx = ReceptionChannel(3)
        rx.acquire(1)
        assert rx.owner is not None
        rx.release(1)
        assert rx.owner is None

    def test_exclusive(self):
        rx = ReceptionChannel(3)
        rx.acquire(1)
        with pytest.raises(SimulationError):
            rx.acquire(2)

    def test_release_wrong_owner(self):
        rx = ReceptionChannel(3)
        rx.acquire(1)
        with pytest.raises(SimulationError):
            rx.release(9)


class TestChannelPool:
    def test_vc_count(self, pool):
        assert len(pool.vcs) == pool.topology.num_links * 2

    def test_one_reception_channel_per_node(self, pool):
        assert len(pool.reception_groups) == 16
        assert [rx.node for rx in pool.reception_groups[5]] == [5]

    def test_vcs_of_link_grouping(self, pool):
        link = pool.topology.links[3]
        group = pool.vcs_of_link(link)
        assert len(group) == 2
        assert all(vc.link is link for vc in group)
        assert [vc.vc_index for vc in group] == [0, 1]

    def test_global_vc_indices_dense_and_unique(self, pool):
        indices = [vc.index for vc in pool.vcs]
        assert indices == list(range(len(pool.vcs)))

    def test_buffer_capacity_configured(self, pool):
        assert all(vc.capacity == 3 for vc in pool.vcs)

    def test_invalid_parameters(self):
        topo = KAryNCube(4, 2)
        with pytest.raises(SimulationError):
            ChannelPool(topo, num_vcs=0, buffer_depth=2)
        with pytest.raises(SimulationError):
            ChannelPool(topo, num_vcs=1, buffer_depth=0)

    def test_assert_consistent_catches_bad_occupancy(self, pool):
        pool.vcs[0].occupancy = 99
        with pytest.raises(SimulationError):
            pool.assert_consistent()

    def test_assert_consistent_catches_unowned_flits(self, pool):
        pool.vcs[0].occupancy = 1  # flits without an owner
        with pytest.raises(SimulationError):
            pool.assert_consistent()
