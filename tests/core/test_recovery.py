"""Unit tests for recovery policies and victim removal."""

import random

import pytest

from repro.core.recovery import (
    AbortAllRecovery,
    DishaRecovery,
    NoRecovery,
    make_recovery,
)
from repro.network.message import Message, MessageStatus


def make_messages(n=3, blocked_since=None):
    msgs = []
    for i in range(n):
        m = Message(i, src=0, dest=1, length=4, created_cycle=0)
        m.blocked_since = blocked_since[i] if blocked_since else None
        msgs.append(m)
    return msgs


class TestDisha:
    def test_picks_exactly_one_victim(self):
        msgs = make_messages(5)
        victims = DishaRecovery().victims(msgs, random.Random(0))
        assert len(victims) == 1

    def test_picks_longest_blocked(self):
        msgs = make_messages(3, blocked_since=[30, 10, 20])
        victims = DishaRecovery().victims(msgs, random.Random(0))
        assert victims[0].id == 1  # blocked since cycle 10 = longest wait

    def test_tie_breaks_by_id(self):
        msgs = make_messages(3, blocked_since=[10, 10, 10])
        victims = DishaRecovery().victims(msgs, random.Random(0))
        assert victims[0].id == 0

    def test_delivers_victim(self):
        assert DishaRecovery().delivers_victim


class TestAbortAll:
    def test_removes_everything(self):
        msgs = make_messages(4)
        victims = AbortAllRecovery().victims(msgs, random.Random(0))
        assert victims == msgs

    def test_does_not_deliver(self):
        assert not AbortAllRecovery().delivers_victim


class TestNoRecovery:
    def test_removes_nothing(self):
        msgs = make_messages(4)
        assert NoRecovery().victims(msgs, random.Random(0)) == []


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_recovery("disha"), DishaRecovery)
        assert isinstance(make_recovery("abort-all"), AbortAllRecovery)
        assert isinstance(make_recovery("none"), NoRecovery)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_recovery("magic")


class TestRemoveFromNetwork:
    def test_removal_releases_resources(self):
        from repro.network.channels import ChannelPool
        from repro.network.topology import KAryNCube

        topo = KAryNCube(4, 2)
        pool = ChannelPool(topo, num_vcs=1, buffer_depth=2)
        m = Message(1, src=0, dest=2, length=4, created_cycle=0)
        vc = pool.vcs_of_link(topo.link_between(0, 1))[0]
        m.acquire_vc(vc, 0)
        vc.occupancy = 2
        m.at_source = 2
        m.remove_from_network(100, delivered=True)
        assert vc.owner is None
        assert vc.occupancy == 0
        assert m.status is MessageStatus.RECOVERED
        assert m.completed_cycle == 100
        assert m.ejected == m.length  # accounted as delivered via recovery

    def test_removal_as_abort(self):
        m = Message(1, src=0, dest=1, length=4, created_cycle=0)
        m.remove_from_network(5, delivered=False)
        assert m.status is MessageStatus.ABORTED

    def test_removal_releases_reception_channel(self):
        from repro.network.channels import ReceptionChannel

        m = Message(1, src=0, dest=1, length=4, created_cycle=0)
        rx = ReceptionChannel(1)
        m.acquire_reception(rx)
        m.remove_from_network(5, delivered=True)
        assert rx.owner is None
