"""SoAState mirror round-trips: as_arrays() projections and verify().

The kernel engine trusts its SoA mirrors completely — a stale
row silently changes arbitration, so these tests pin (a) that
``as_arrays()`` is a faithful, uniformly-numpy projection of the live
state, (b) that ``verify()`` passes against the object model throughout a
saturated run (slots recycling included), and (c) that ``verify()`` has
teeth: corrupting any single mirror raises.
"""

import numpy as np
import pytest

from repro.config import tiny_default
from repro.errors import SimulationError
from repro.network.simulator import NetworkSimulator


def _saturated_sim():
    cfg = tiny_default(
        routing="dor",
        num_vcs=1,
        load=1.2,
        warmup_cycles=0,
        measure_cycles=300,
        seed=11,
        engine_kernels=True,
    )
    return NetworkSimulator(cfg)


def test_verify_round_trips_through_a_saturated_run():
    sim = _saturated_sim()
    checks = 0
    while sim.cycle < 300:
        sim.step()
        if sim.cycle % 10 == 0:
            sim.soa.verify(sim)  # raises on any mirror drift
            checks += 1
    assert checks == 30
    assert sim.soa.slots_recycled > 0, (
        "scenario too tame: verify() never saw a recycled slot"
    )


def test_as_arrays_matches_object_model():
    sim = _saturated_sim()
    for _ in range(120):
        sim.step()
    soa = sim.soa
    arrays = soa.as_arrays()
    # uniform numpy projection, one consistent slot-table length
    n_slots = len(soa.slot_msgs)
    for name, arr in arrays.items():
        assert isinstance(arr, np.ndarray), f"{name} is not a numpy array"
    for name in (
        "msg_id", "length", "at_source", "ejected", "head_vc", "tail_vc",
        "routable", "stalled", "immobile", "blocked", "live",
    ):
        assert arrays[name].shape == (n_slots,)
    # every live message's row reads back the object model exactly
    live = [m for m in sim.active_messages() if m.slot is not None]
    assert live, "scenario too tame: no active messages to compare"
    for msg in live:
        s = msg.slot
        assert arrays["msg_id"][s] == msg.id
        assert arrays["length"][s] == msg.length
        assert arrays["at_source"][s] == msg.at_source
        assert arrays["ejected"][s] == msg.ejected
        assert arrays["head_vc"][s] == (msg.vcs[-1].index if msg.vcs else -1)
        assert arrays["tail_vc"][s] == (msg.vcs[0].index if msg.vcs else -1)
        assert arrays["routable"][s] == int(msg.routable)
        assert arrays["live"][s] == 1
    # VC columns round-trip against the pool
    for vc in sim.pool.vcs:
        owner = -1 if vc.owner is None else vc.owner
        assert arrays["vc_owner"][vc.index] == owner
        assert arrays["vc_occupancy"][vc.index] == vc.occupancy


def test_as_arrays_copies_list_backed_columns():
    """The list-backed hot counters are exported as copies — mutating the
    projection must not corrupt the engine's state (the numpy-backed
    columns are documented as direct views, pinned here too)."""
    sim = _saturated_sim()
    for _ in range(50):
        sim.step()
    soa = sim.soa
    arrays = soa.as_arrays()
    before = list(soa.at_source)
    arrays["at_source"] += 1000
    arrays["vc_occupancy"] += 1000
    assert soa.at_source == before
    assert all(occ < 1000 for occ in soa.vc_occupancy)
    assert arrays["vc_owner"] is soa.vc_owner
    assert arrays["rx_owner"] is soa.rx_owner
    soa.verify(sim)  # the projection round-trip left the mirrors intact


@pytest.mark.parametrize(
    "column", ["routable", "stalled", "immobile", "blocked"]
)
def test_verify_catches_corrupted_flag_mirror(column):
    sim = _saturated_sim()
    for _ in range(80):
        sim.step()
    sim.soa.verify(sim)
    live = [m for m in sim.active_messages() if m.slot is not None]
    assert live
    slot = live[0].slot
    arr = getattr(sim.soa, column)
    arr[slot] ^= 1
    with pytest.raises(SimulationError, match=column):
        sim.soa.verify(sim)
    arr[slot] ^= 1
    sim.soa.verify(sim)


def test_verify_catches_corrupted_vc_owner():
    sim = _saturated_sim()
    for _ in range(80):
        sim.step()
    owned = [vc for vc in sim.pool.vcs if vc.owner is not None]
    assert owned, "scenario too tame: no owned VCs"
    idx = owned[0].index
    sim.soa.vc_owner[idx] = -1
    with pytest.raises(SimulationError, match="vc_owner"):
        sim.soa.verify(sim)


def test_verify_catches_orphaned_live_slot():
    sim = _saturated_sim()
    for _ in range(80):
        sim.step()
    free = sim.soa._free[-1]
    sim.soa.live[free] = 1
    with pytest.raises(SimulationError, match="live without a backing"):
        sim.soa.verify(sim)
