"""Soundness of live-detected knots: every reported deadlock is real.

For knots found in actual simulations (not synthetic fixtures), verify the
full semantic contract:

* the independent reachability oracle agrees with the SCC detector;
* every deadlock-set message is blocked with **no free candidate**;
* every alternative of every deadlock-set message is owned by another
  deadlock-set message (the closure property);
* with recovery disabled, the knot persists verbatim across hundreds of
  cycles (deadlocks never self-resolve).
"""

import pytest

from repro.config import tiny_default
from repro.core.detector import DeadlockDetector
from repro.core.knots import knot_of_vertex
from repro.network.simulator import NetworkSimulator


def first_live_deadlock(routing="dor", vcs=1, seed=3, max_cycles=15_000):
    cfg = tiny_default(
        routing=routing, num_vcs=vcs, load=1.0, seed=seed, recovery="none",
        warmup_cycles=0, measure_cycles=1, detection_interval=25,
    )
    sim = NetworkSimulator(cfg)
    for _ in range(max_cycles):
        sim.step()
        rec = sim.detector.records[-1] if sim.detector.records else None
        if rec and rec.cycle == sim.cycle and rec.events:
            return sim, rec.events[0]
    pytest.skip(f"no deadlock formed for {routing}{vcs} seed {seed}")


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_oracle_agrees_with_detector(seed):
    sim, event = first_live_deadlock(seed=seed)
    g = DeadlockDetector.build_cwg(sim)
    adjacency = g.adjacency()
    sample_vertex = next(iter(event.knot))
    assert knot_of_vertex(adjacency, sample_vertex) == event.knot


@pytest.mark.parametrize("seed", [3, 5])
def test_deadlock_set_fully_stuck(seed):
    sim, event = first_live_deadlock(seed=seed)
    owned_by_set = set()
    for mid in event.deadlock_set:
        owned_by_set.update(vc.index for vc in sim.message_by_id(mid).vcs)
    for mid in event.deadlock_set:
        msg = sim.message_by_id(mid)
        assert msg.needs_next_vc and msg.header_in_newest_vc
        candidates = sim.route_candidates(msg)
        assert candidates
        for vc in candidates:
            assert vc.owner is not None, "deadlocked message has a free way out"
            assert vc.index in owned_by_set, (
                "deadlocked message waits outside the deadlock set"
            )


def test_knot_persists_without_recovery():
    sim, event = first_live_deadlock(seed=3)
    vcs_in_knot = [v for v in event.knot if isinstance(v, int)]
    owners = {v: sim.pool.vcs[v].owner for v in vcs_in_knot}
    occupancy = {v: sim.pool.vcs[v].occupancy for v in vcs_in_knot}
    for _ in range(400):
        sim.step()
    assert {v: sim.pool.vcs[v].owner for v in vcs_in_knot} == owners
    assert {v: sim.pool.vcs[v].occupancy for v in vcs_in_knot} == occupancy


def test_dependent_messages_never_own_knot_channels():
    sim, event = first_live_deadlock(seed=5)
    for mid in event.dependent | event.transient_dependent:
        msg = sim.message_by_id(mid)
        for vc in msg.vcs:
            assert vc.index not in event.knot
