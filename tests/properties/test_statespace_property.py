"""Real runs live inside the enumerated state graph — on both engines.

The model-checking oracle's guarantees transfer to production runs only if
the enumerated successor relation actually contains real trajectories:
every cycle a genuinely-seeded simulator executes must step between two
states the enumerator connects.  This property closes the loop between the
scripted branch points of :mod:`repro.validation.statespace` (which claim
to cover *all* RNG draws) and the unmodified engines — legacy and
production, since an engine whose trajectory ever left the graph would be
making a draw the oracle's branch model does not know about.
"""

from __future__ import annotations

import random

import pytest

from repro.config import SimulationConfig
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceEngine
from repro.validation.statespace import (
    oracle_config,
    snapshot_state,
    step_with_script,
    successors,
)

from tests.validation.conftest import state_from_json

#: engine classes, mirroring the differential fuzzer's engine axis
TIERS = {
    "legacy": ReferenceEngine,
    "fast-path": NetworkSimulator,  # the production engine
}

#: tiny configurations with distinct branch-point mixes: deterministic
#: arbitration, random arbitration (shuffle draws), and two VCs
#: (selection tie-breaks)
CONFIGS = {
    "ring": SimulationConfig(
        k=3, n=1, bidirectional=False, num_vcs=1, buffer_depth=1,
        routing="dor", selection="lowest", arbitration="oldest-first",
        traffic="uniform", load=1.0, message_length=2,
        max_queued_per_node=2, seed=0, max_messages=3,
    ),
    "ring-random-arb": SimulationConfig(
        k=3, n=1, bidirectional=False, num_vcs=1, buffer_depth=1,
        routing="dor", selection="lowest", arbitration="random",
        traffic="uniform", load=1.0, message_length=2,
        max_queued_per_node=2, seed=0, max_messages=3,
    ),
    "ring-2vc": SimulationConfig(
        k=3, n=1, bidirectional=False, num_vcs=2, buffer_depth=1,
        routing="dor", selection="lowest", arbitration="oldest-first",
        traffic="uniform", load=1.0, message_length=2,
        max_queued_per_node=2, seed=0, max_messages=2,
    ),
}

TRAJECTORY_CYCLES = 25


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 7])
def test_real_trajectory_is_a_path_in_the_state_graph(
    tier, config_name, seed
):
    """Each genuinely-random step lands in the enumerated successor set."""
    base = CONFIGS[config_name].replace(seed=seed)
    sim = TIERS[tier](oracle_config(base))
    prev = snapshot_state(sim)
    stationary = 0
    for _ in range(TRAJECTORY_CYCLES):
        sim.step()
        current = snapshot_state(sim)
        successor_states = {s for _, s in successors(base, prev)}
        assert current in successor_states, (
            f"tier {tier!r}, config {config_name!r}, seed {seed}: the real "
            f"trajectory left the enumerated state graph at cycle "
            f"{sim.cycle} — the engine made a nondeterministic move the "
            f"oracle's branch model does not cover"
        )
        stationary = stationary + 1 if current == prev else 0
        prev = current
        if stationary >= 2:
            break  # terminal (deadlocked or drained): further cycles idle


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_all_tiers_agree_on_the_trajectory(tier):
    """Bit-identity restated in snapshot space, for the oracle's benefit:
    a capped-generation tiny config follows the *same* canonical state
    sequence on both engines."""
    base = CONFIGS["ring"].replace(seed=11)
    sim = TIERS[tier](oracle_config(base))
    trajectory = []
    for _ in range(TRAJECTORY_CYCLES):
        sim.step()
        trajectory.append(snapshot_state(sim))
    legacy = ReferenceEngine(oracle_config(base))
    for _ in range(TRAJECTORY_CYCLES):
        legacy.step()
    reference = snapshot_state(legacy)
    assert trajectory[-1] == reference


@pytest.mark.parametrize("selection", ["lowest", "random", "straight"])
def test_scripted_trajectory_on_production_matches_legacy(selection):
    """A scripted choice stream drives the production engine through the
    same states as the legacy reference, digest for digest.

    Both engines draw through one seam, so under the oracle's
    ``ScriptedDraws`` they must hit the same decision points in the same
    order (equal trails), or the two engines' enumerated state graphs
    would differ.
    """
    from repro.network.production import ProductionEngine

    base = oracle_config(
        CONFIGS["ring-random-arb"].replace(
            num_vcs=2, selection=selection, max_messages=8
        )
    )
    legacy = ReferenceEngine(base)
    production = NetworkSimulator(base)
    assert type(legacy) is ReferenceEngine
    assert type(production) is ProductionEngine
    script_rng = random.Random(5)
    decisions = 0
    for _ in range(40):
        # every recorded decision has >= 2 options, so {0, 1} always fits
        script = [script_rng.randrange(2) for _ in range(64)]
        legacy_trail = step_with_script(legacy, script).trail
        production_trail = step_with_script(production, script).trail
        assert production_trail == legacy_trail
        assert (
            snapshot_state(production).digest()
            == snapshot_state(legacy).digest()
        ), f"state diverged at cycle {legacy.cycle}"
        decisions += len(legacy_trail)
    assert decisions > 30, "scripts never reached a real branch point"


def test_scripted_steps_take_the_whole_phase_skips():
    """Under random arbitration a scripted ``ScriptedDraws`` walks the
    production engine's whole-phase skips on a frozen network:
    ``permute_unread`` records the branch points of the permutations the
    reference builds, so trails and states stay equal."""
    # seed 0 deadlocks the ring (3 worms, generation budget spent) by cycle 13
    base = oracle_config(CONFIGS["ring-random-arb"].replace(max_messages=8))
    legacy = ReferenceEngine(base)
    production = NetworkSimulator(base)
    skips = []
    skip_order = production._skip_order
    production._skip_order = lambda n, phase: (
        skips.append(phase), skip_order(n, phase)
    )
    for _ in range(20):
        legacy.step()
        production.step()
    assert production._all_immobile and production._alloc_quiet == 3
    assert skips[-2:] == [0, 1]  # the seeded random.Random takes both skips
    del skips[:]
    for _ in range(5):
        trail = step_with_script(legacy).trail
        assert len(trail) == 4  # two Fisher-Yates walks over three messages
        assert step_with_script(production).trail == trail
        assert snapshot_state(production) == snapshot_state(legacy)
    assert skips == [0, 1] * 5


def test_successor_sets_are_path_independent():
    """successors() is a pure function of the canonical state.

    Enumerating from a state reached by different scripts (or restored
    from JSON) yields identical successor sets — the property that lets
    the BFS deduplicate states without tracking how it reached them.
    """
    base = CONFIGS["ring"]
    sim = NetworkSimulator(oracle_config(base))
    for _ in range(3):
        sim.step()
    state = snapshot_state(sim)
    reloaded = state_from_json(state.to_json())
    assert reloaded == state and hash(reloaded) == hash(state)
    first = {s for _, s in successors(base, state)}
    again = {s for _, s in successors(base, reloaded)}
    assert first == again
    assert len(first) >= 1
