"""Unit tests for message state transitions and flit conservation."""

import pytest

from repro.errors import SimulationError
from repro.network.channels import ChannelPool, ReceptionChannel
from repro.network.message import Message, MessageStatus
from repro.network.topology import KAryNCube


@pytest.fixture
def pool():
    return ChannelPool(KAryNCube(4, 2), num_vcs=1, buffer_depth=2)


def vc_between(pool, a, b):
    return pool.vcs_of_link(pool.topology.link_between(a, b))[0]


class TestConstruction:
    def test_initial_state(self):
        m = Message(3, src=0, dest=5, length=8, created_cycle=10)
        assert m.status is MessageStatus.QUEUED
        assert m.at_source == 8
        assert m.head_node == 0
        m.check_conservation()

    def test_self_addressed_rejected(self):
        with pytest.raises(SimulationError):
            Message(1, src=2, dest=2, length=4, created_cycle=0)

    def test_zero_length_rejected(self):
        with pytest.raises(SimulationError):
            Message(1, src=0, dest=1, length=0, created_cycle=0)


class TestAcquisition:
    def test_first_vc_activates(self, pool):
        m = Message(1, src=0, dest=2, length=4, created_cycle=0)
        vc = vc_between(pool, 0, 1)
        m.acquire_vc(vc, cycle=5)
        assert m.status is MessageStatus.ACTIVE
        assert m.injected_cycle == 5
        assert vc.owner == 1
        assert m.head_node == 1

    def test_header_position_tracking(self, pool):
        m = Message(1, src=0, dest=2, length=4, created_cycle=0)
        vc = vc_between(pool, 0, 1)
        m.acquire_vc(vc, 0)
        assert not m.header_in_newest_vc  # header hasn't crossed the link
        vc.occupancy = 1
        assert m.header_in_newest_vc

    def test_needs_next_vc_progression(self, pool):
        m = Message(1, src=0, dest=2, length=4, created_cycle=0)
        assert m.needs_next_vc  # queued, routing from source
        vc01 = vc_between(pool, 0, 1)
        m.acquire_vc(vc01, 0)
        assert not m.needs_next_vc  # header not at node 1 yet
        vc01.occupancy = 1
        assert m.needs_next_vc  # at node 1, dest is 2
        vc12 = vc_between(pool, 1, 2)
        m.acquire_vc(vc12, 1)
        vc12.occupancy = 1
        vc01.occupancy = 0
        assert m.at_destination
        assert m.needs_reception
        assert not m.needs_next_vc

    def test_blocked_since_cleared_on_acquire(self, pool):
        m = Message(1, src=0, dest=2, length=4, created_cycle=0)
        m.blocked_since = 17
        m.acquire_vc(vc_between(pool, 0, 1), 20)
        assert m.blocked_since is None


class TestTailRelease:
    def test_release_waits_for_source_drain(self, pool):
        m = Message(1, src=0, dest=2, length=4, created_cycle=0)
        vc = vc_between(pool, 0, 1)
        m.acquire_vc(vc, 0)
        m.at_source = 2  # two flits still at the source
        vc.occupancy = 0
        m.release_drained_tail()
        assert m.vcs == [vc]  # not released: source flits still coming

    def test_release_drained_prefix(self, pool):
        m = Message(1, src=0, dest=3, length=2, created_cycle=0)
        vc01 = vc_between(pool, 0, 1)
        vc12 = vc_between(pool, 1, 2)
        m.acquire_vc(vc01, 0)
        m.acquire_vc(vc12, 0)
        m.at_source = 0
        vc01.occupancy = 0
        vc12.occupancy = 2
        m.release_drained_tail()
        assert m.vcs == [vc12]
        assert vc01.owner is None

    def test_interior_bubble_not_released(self, pool):
        m = Message(1, src=0, dest=3, length=4, created_cycle=0)
        vc01 = vc_between(pool, 0, 1)
        vc12 = vc_between(pool, 1, 2)
        vc23 = vc_between(pool, 2, 3)
        for vc in (vc01, vc12, vc23):
            m.acquire_vc(vc, 0)
        m.at_source = 0
        vc01.occupancy = 2
        vc12.occupancy = 0  # bubble
        vc23.occupancy = 2
        m.release_drained_tail()
        assert m.vcs == [vc01, vc12, vc23]  # nothing released


class TestDeliveryAndRemoval:
    def test_finish_delivery(self, pool):
        m = Message(1, src=0, dest=1, length=2, created_cycle=0)
        rx = ReceptionChannel(1)
        m.acquire_reception(rx)
        m.at_source = 0
        m.ejected = 2
        m.finish_delivery(50)
        assert m.status is MessageStatus.DELIVERED
        assert m.latency == 50
        assert rx.owner is None

    def test_finish_delivery_incomplete_rejected(self):
        m = Message(1, src=0, dest=1, length=4, created_cycle=0)
        m.ejected = 2
        with pytest.raises(SimulationError):
            m.finish_delivery(10)

    def test_finish_while_owning_vcs_rejected(self, pool):
        m = Message(1, src=0, dest=1, length=1, created_cycle=0)
        m.acquire_vc(vc_between(pool, 0, 1), 0)
        m.at_source = 0
        m.ejected = 1
        with pytest.raises(SimulationError):
            m.finish_delivery(10)

    def test_conservation_check(self, pool):
        m = Message(1, src=0, dest=1, length=4, created_cycle=0)
        m.check_conservation()
        m.at_source = 1  # lost flits!
        with pytest.raises(SimulationError):
            m.check_conservation()

    def test_latency_none_before_completion(self):
        m = Message(1, src=0, dest=1, length=4, created_cycle=0)
        assert m.latency is None

    def test_is_done_states(self):
        m = Message(1, src=0, dest=1, length=4, created_cycle=0)
        assert not m.is_done
        m.remove_from_network(1, delivered=False)
        assert m.is_done
