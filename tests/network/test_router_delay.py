"""Tests for the router pipeline delay (route-compute / VC-allocate latency)."""

import pytest

from repro.config import tiny_default
from repro.network.message import Message, MessageStatus
from repro.network.simulator import NetworkSimulator


def transit_latency(router_delay, src=0, dest=10, length=4):
    cfg = tiny_default(load=0.0, routing="dor", router_delay=router_delay,
                       validation_level=2)
    sim = NetworkSimulator(cfg)
    m = Message(0, src, dest, length, created_cycle=0)
    sim.queues[src].append(m)
    sim._live[0] = m
    for _ in range(600):
        sim.step()
        if m.is_done:
            return sim, m
    raise AssertionError("message never delivered")


def test_zero_delay_is_default_behaviour():
    sim, m = transit_latency(0)
    assert m.status is MessageStatus.DELIVERED


def test_delay_slows_per_hop_latency():
    """The engine's allocate-before-move order already gives every hop one
    cycle of routing latency, so ``router_delay=d`` adds ``d - 1`` extra
    cycles at each routing decision (intermediate hops + ejection)."""
    _, fast = transit_latency(0)
    _, slow = transit_latency(3)
    dist = 4  # 0 -> 10 in a 4x4 torus is (2, 2): 4 hops
    assert slow.latency >= fast.latency + (3 - 1) * dist


def test_delay_of_one_matches_inherent_latency():
    _, base = transit_latency(0)
    _, one = transit_latency(1)
    assert one.latency == base.latency


def test_delay_scales_roughly_linearly():
    lat = {d: transit_latency(d)[1].latency for d in (0, 2, 4)}
    assert lat[4] > lat[2] > lat[0]


def test_pipeline_waiting_header_is_not_blocked():
    """A header inside the router pipeline must not appear in the CWG."""
    cfg = tiny_default(load=0.0, routing="dor", router_delay=50)
    sim = NetworkSimulator(cfg)
    m = Message(0, 0, 2, 4, created_cycle=0)
    sim.queues[0].append(m)
    sim._live[0] = m
    # step until the header has entered its first VC
    for _ in range(20):
        sim.step()
        if m.header_in_newest_vc:
            break
    assert m.header_in_newest_vc
    # within the 50-cycle pipeline window: not eligible, not blocked
    assert not sim.routing_eligible(m)
    from repro.core.detector import DeadlockDetector

    g = DeadlockDetector.build_cwg(sim)
    assert m.id not in g.blocked_messages()


def test_deadlocks_still_detected_with_delay():
    cfg = tiny_default(routing="dor", num_vcs=1, load=1.0, router_delay=2,
                       measure_cycles=3000, seed=3)
    result = NetworkSimulator(cfg).run()
    # pipeline delay postpones requests but does not prevent knots
    assert result.delivered > 0
    assert result.deadlocks >= 0  # smoke: run completes cleanly


def test_negative_delay_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        tiny_default(router_delay=-1).validate()
