"""Property tests: the SoA mirrors always agree with the object model.

The kernel engine *push*-maintains :class:`repro.network.soa.SoAState`
inline at every state transition instead of deriving it per cycle, so the
mirrors are exactly as correct as the transition coverage.  These tests
drive randomized simulations through every transition class — generation,
VC acquisition/release, reception, delivery, recovery victim removal
(both teardown styles, exercising free-list compaction) — and cross-check
every mirror against the object model with :meth:`SoAState.verify` after
every cycle.
"""

import random

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator
from repro.network.kernels import KernelEngine


def _kern(**overrides):
    params = dict(
        measure_cycles=400,
        warmup_cycles=0,
        cwg_maintenance="incremental",
        engine_kernels=True,
    )
    params.update(overrides)
    return NetworkSimulator(tiny_default(**params))


def _drive_verified(sim, cycles):
    """Step with a full mirror cross-check after every cycle."""
    for _ in range(cycles):
        sim.step()
        sim.soa.verify(sim)


#: transition-heavy scenarios: saturation for recovery churn, moderate
#: load for delivery churn, both teardown styles for both on_done paths
SCENARIOS = {
    "saturated_instant_teardown": dict(
        routing="dor", load=1.0, num_vcs=1, seed=3
    ),
    "saturated_flit_by_flit": dict(
        routing="tfar",
        load=1.0,
        num_vcs=1,
        recovery_teardown="flit-by-flit",
        seed=5,
    ),
    "moderate_two_vcs": dict(routing="tfar", load=0.5, num_vcs=2, seed=9),
    "timeout_recovery": dict(
        routing="tfar",
        load=1.0,
        detection_mode="timeout",
        timeout_threshold=60,
        seed=11,
    ),
    "abort_all_misrouting": dict(
        routing="tfar-mis", load=1.0, num_vcs=2, recovery="abort-all", seed=13
    ),
    "router_delay_rx2": dict(
        routing="tfar", load=1.0, router_delay=2, rx_channels=2, seed=17
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_mirrors_agree_every_cycle(name):
    sim = _kern(**SCENARIOS[name])
    assert type(sim) is KernelEngine
    _drive_verified(sim, 400)
    # the run exercised the transitions the mirrors shadow
    assert sim.stats._result.delivered > 0


def test_victim_removal_recycles_slots():
    """Recovery compaction goes through the free list, not row shifts."""
    sim = _kern(routing="dor", load=1.0, num_vcs=1, seed=3)
    _drive_verified(sim, 500)
    soa = sim.soa
    assert sim.stats._result.recovered + sim.stats._result.aborted > 0, \
        "scenario produced no victims"
    assert soa.slots_recycled > 0
    # live + free always partitions the table
    live = sum(1 for m in soa.slot_msgs if m is not None)
    assert live + len(soa._free) == len(soa.slot_msgs)
    assert soa.high_water <= len(soa.slot_msgs)


def test_slot_stable_for_message_lifetime():
    """A message keeps one slot from creation to completion."""
    sim = _kern(routing="tfar", load=0.8, num_vcs=2, seed=7)
    pinned: dict[int, int] = {}
    for _ in range(300):
        sim.step()
        for msg in sim._live.values():
            slot = pinned.setdefault(msg.id, msg.slot)
            assert msg.slot == slot, (
                f"message {msg.id} moved from slot {slot} to {msg.slot}"
            )
    assert len(pinned) > 50


def test_as_arrays_matches_object_model():
    """The uniform numpy export equals a from-scratch object-model scan."""
    sim = _kern(routing="tfar", load=1.0, num_vcs=1, seed=19)
    for _ in range(250):
        sim.step()
    arrays = sim.soa.as_arrays()
    pool = sim.pool
    for vc in pool.vcs:
        owner = -1 if vc.owner is None else vc.owner
        assert int(arrays["vc_owner"][vc.index]) == owner
        assert int(arrays["vc_occupancy"][vc.index]) == vc.occupancy
        assert int(arrays["vc_capacity"][vc.index]) == vc.capacity
    for msg in sim._live.values():
        slot = msg.slot
        assert int(arrays["msg_id"][slot]) == msg.id
        assert int(arrays["at_source"][slot]) == msg.at_source
        assert int(arrays["ejected"][slot]) == msg.ejected
        assert bool(arrays["live"][slot])
    assert int(arrays["live"].sum()) == len(sim._live)


def test_randomized_config_sweep():
    """Seeded random configurations, mirrors verified every cycle."""
    rng = random.Random(1234)
    for _ in range(6):
        overrides = dict(
            routing=rng.choice(["dor", "tfar", "tfar-mis"]),
            load=rng.choice([0.4, 0.8, 1.0, 1.2]),
            num_vcs=rng.choice([1, 2, 3]),
            recovery=rng.choice(["disha", "abort-all"]),
            recovery_teardown=rng.choice(["instant", "flit-by-flit"]),
            seed=rng.randrange(1, 10_000),
        )
        sim = _kern(**overrides)
        _drive_verified(sim, 250)
