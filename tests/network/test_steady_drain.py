"""The production engine's steady drains: gated, raised, cleared, exact.

A draining worm whose move pass leaves a flit in every owned VC is marked
``steady`` on a pool with one VC per link and unit link latency; from then
on each move pass applies the boundary pass's effect in O(1).  The
bit-identity rows of ``tests/integration/bit_identity.py`` hold whole runs
to the reference; these tests pin the flag's life cycle and check the
O(1) step against every recorded edge of three oracle state graphs.
"""

import pytest

from repro.config import SimulationConfig, tiny_default
from repro.network.production import ProductionEngine
from repro.network.simulator import NetworkSimulator
from repro.validation.oracle import _stepper, explore, get_case
from repro.validation.reference import ReferenceEngine
from repro.validation.statespace import (
    clear_state,
    load_state,
    snapshot_state,
    step_with_script,
)

MODERATE = tiny_default(routing="dor", load=0.5, num_vcs=1, seed=3)


def _draining(sim):
    return [
        m for m in sim.active.values()
        if m.reception is not None and not m.recovering
    ]


@pytest.mark.parametrize(
    "overrides, steady_pool",
    [
        (dict(num_vcs=1), True),
        (dict(num_vcs=2), False),
        (
            dict(topology="torus3d", dims=(3, 3, 2), link_latencies=(1, 1, 2)),
            False,
        ),
    ],
    ids=["one_vc", "two_vcs", "slow_links"],
)
def test_steady_pool_gate(overrides, steady_pool):
    sim = NetworkSimulator(MODERATE.replace(**overrides))
    assert type(sim) is ProductionEngine
    assert sim._steady_pool is steady_pool


def test_draining_worms_turn_steady_after_one_pass():
    """On a gated pool no pass leaves a draining worm with an empty owned
    VC, so every draining worm is steady once its first drain pass ran;
    with sibling VCs none ever is."""
    sim = NetworkSimulator(MODERATE)
    seen = 0
    for _ in range(600):
        sim.step()
        for msg in _draining(sim):
            assert msg.steady
            assert all(vc.occupancy for vc in msg.vcs)
            seen += 1
    assert seen > 0
    assert sim.activity_counters()["steady_drains"] > 0
    two = NetworkSimulator(MODERATE.replace(num_vcs=2))
    for _ in range(600):
        two.step()
        assert not any(m.steady for m in two.active.values())
    assert two.vec_steady_drains == 0


def test_victim_removal_and_rebuild_clear_the_flag():
    sim = NetworkSimulator(MODERATE)
    while not any(m.steady for m in sim.active.values()):
        sim.step()
    sim.rebuild_activity()
    assert not any(m.steady for m in sim.active.values())
    while not any(m.steady for m in sim.active.values()):
        sim.step()
    victim = next(m for m in sim.active.values() if m.steady)
    sim._remove_victim(victim)
    assert not victim.steady


@pytest.mark.parametrize(
    "case_name", ["ring-deadlock", "ring-2vc-free", "dragonfly-min-free"]
)
def test_steady_step_reproduces_every_oracle_edge(case_name):
    """Restore each enumerated state, mark steady every draining worm whose
    owned VCs all hold a flit, and replay each recorded successor script:
    the O(1) step must reach the recorded successor.  (Restored states
    start with the flag down, so enumeration itself never takes it.)
    ``ring-2vc-free`` has sibling VCs, so its engine never raises the
    flag, but in its closure no sibling takes a draining worm's link."""
    graph = explore(get_case(case_name).config)
    sim = _stepper(graph.config)
    checked = 0
    for idx, state in enumerate(graph.index):
        for succ, script in graph.scripts[idx].items():
            clear_state(sim)
            load_state(sim, state)
            marked = False
            for msg in _draining(sim):
                if msg.vcs and all(vc.occupancy for vc in msg.vcs):
                    msg.steady = marked = True
            if not marked:
                continue
            step_with_script(sim, script)
            assert snapshot_state(sim) == graph.index[succ]
            checked += 1
    assert checked > 0


def test_a_steady_worm_finishes_in_its_cycle():
    """A one-VC worm drains to its last flit inside the steady step and
    is delivered in the same cycle, as the boundary pass would."""
    config = SimulationConfig(
        k=4, n=1, num_vcs=1, buffer_depth=4, routing="dor",
        message_length=4, load=0.2, warmup_cycles=0, measure_cycles=400,
        seed=5,
    )
    production = NetworkSimulator(config)
    legacy = ReferenceEngine(config)
    for _ in range(400):
        production.step()
        legacy.step()
        assert list(production.active) == list(legacy.active)
        assert production.rng.getstate() == legacy.rng.getstate()
    assert production.vec_steady_drains > 0
