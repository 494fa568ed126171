"""Unit and closure tests for the model-checking oracle.

Covers the canonical-snapshot laws (round-trip identity, hash/equality,
JSON serialization), the pinned-configuration guards, reachability ground
truth on the paper's Figure 1–4 wait-graph galleries, and full-closure
detector verification on the two smallest grid cases.  The heavyweight
whole-grid sweep lives in ``scripts/oracle_smoke.py`` (CI stage), not
here.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.gallery import (
    figure1_cwg,
    figure2_cwg,
    figure3_cwg,
    figure4_cwg,
)
from repro.errors import ConfigurationError
from repro.network.simulator import NetworkSimulator
from repro.validation.oracle import (
    ORACLE_GRID,
    analyze,
    check_case,
    cwg_doomed_messages,
    explore,
    get_case,
)
from repro.validation.statespace import (
    ChoiceController,
    next_script,
    oracle_config,
    snapshot_state,
    successors,
)

from tests.validation.conftest import restore_sim, state_from_json

RING = SimulationConfig(
    k=3, n=1, bidirectional=False, num_vcs=1, buffer_depth=1,
    routing="dor", selection="lowest", arbitration="oldest-first",
    traffic="uniform", load=1.0, message_length=2,
    max_queued_per_node=2, seed=0, max_messages=3,
)


# -- canonical snapshot laws ---------------------------------------------------------
def _deep_states(config, depth=3):
    """The initial state plus every state within ``depth`` steps."""
    sim = NetworkSimulator(oracle_config(config))
    frontier = [snapshot_state(sim)]
    seen = set(frontier)
    for _ in range(depth):
        nxt = []
        for state in frontier:
            for _, succ in successors(config, state):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


def test_snapshot_restore_round_trip_identity():
    """snapshot(restore(s)) == s for the initial state and deep states."""
    sample = sorted(_deep_states(RING, depth=2), key=lambda s: s.digest())
    assert len(sample) > 50
    for state in sample[:40]:
        sim = restore_sim(RING, state)
        assert snapshot_state(sim) == state


def test_restored_simulator_passes_invariants():
    for state in sorted(_deep_states(RING, depth=2), key=lambda s: s.digest())[:10]:
        restore_sim(RING, state)  # runs the invariant battery; raises on violation


def test_snapshot_hash_equality_laws():
    states = list(_deep_states(RING, depth=2))
    for state in states[:30]:
        clone = state_from_json(state.to_json())
        assert clone == state
        assert hash(clone) == hash(state)
        assert clone.digest() == state.digest()
    digests = {s.digest() for s in states}
    assert len(digests) == len(states), "digest collided on distinct states"


def test_snapshot_json_round_trip_through_text():
    import json

    state = next(iter(_deep_states(RING, depth=2)))
    text = json.dumps(state.to_json(), sort_keys=True)
    assert state_from_json(json.loads(text)) == state


def test_derived_views_partition_the_id_space():
    for state in list(_deep_states(RING, depth=3))[:50]:
        live = set(state.live_ids())
        delivered = set(range(state.next_id)) - live
        assert live.isdisjoint(delivered)
        assert live | delivered == set(range(state.next_id))
        assert set(state.active_ids()) <= live


# -- pinned-configuration guards -----------------------------------------------------
def test_oracle_config_requires_bounded_generation():
    with pytest.raises(ConfigurationError, match="max_messages"):
        oracle_config(RING.replace(max_messages=None))


def test_oracle_config_rejects_round_robin_arbitration():
    with pytest.raises(ConfigurationError, match="round-robin"):
        oracle_config(RING.replace(arbitration="round-robin"))


def test_oracle_pins_keep_the_shipped_engine():
    from repro.network.production import ProductionEngine
    from repro.validation.statespace import ORACLE_PINS

    assert "engine_fast_path" not in ORACLE_PINS
    pinned = oracle_config(RING)
    assert type(NetworkSimulator(pinned)) is ProductionEngine
    assert pinned.detection_interval == 1
    assert pinned.recovery == "none"


def test_hybrid_length_mix_case_checks_clean_to_closure():
    """Hybrid traffic and a length mix draw through ``categorical``, which
    the scripted source branches on like any other draw."""
    case = get_case("ring-hybrid-mix")
    assert case.config.traffic == "hybrid" and case.config.length_mix
    report = check_case(case)
    assert report.ok, [v.detail for v in report.violations]
    assert (report.num_states, report.num_deadlocked_terminals) == (156, 8)


def test_reference_and_production_state_graphs_are_equal():
    case = get_case("ring-deadlock")
    production = explore(case.config)
    reference = explore(case.config.replace(engine_fast_path=False))
    assert reference.index == production.index
    assert reference.succ == production.succ
    assert reference.scripts == production.scripts


# -- choice-tree enumeration laws ----------------------------------------------------
def test_next_script_enumerates_a_full_tree():
    """Sibling stepping visits every leaf of a small mixed-width tree."""
    widths = [2, 3, 2]
    leaves = []
    script = []
    while True:
        controller = ChoiceController(script)
        for w in widths:
            controller.branch(w)
        leaves.append(controller.choices())
        sibling = next_script(controller.trail)
        if sibling is None:
            break
        script = sibling
    assert len(leaves) == 2 * 3 * 2
    assert len(set(leaves)) == len(leaves)


def test_single_option_branches_are_not_recorded():
    controller = ChoiceController()
    assert controller.branch(1) == 0
    assert controller.branch(2) == 0
    assert controller.choices() == (0,)


# -- reachability ground truth on the paper galleries --------------------------------
@pytest.mark.parametrize(
    "build, expected",
    [
        # Figure 1: single-cycle deadlock of m1/m3/m5; m2 and m4 are
        # unblocked and drain
        (figure1_cwg, {1, 3, 5}),
        # Figure 2: multi-cycle deadlock {1,2,3,4} plus m6, which waits on
        # c4 (owned by deadlocked m4) — dependent, equally doomed
        (figure2_cwg, {1, 2, 3, 4, 6}),
        # Figure 3: every message participates in the knot
        (figure3_cwg, {0, 1, 2, 3, 4, 5, 6, 7}),
        # Figure 4: the reachable set escapes through e4 (owned by
        # unblocked m8) — no deadlock anywhere
        (figure4_cwg, set()),
    ],
)
def test_gallery_doomed_sets_match_the_paper(build, expected):
    assert set(cwg_doomed_messages(build())) == expected


# -- closure-level detector verification ---------------------------------------------
def test_grid_covers_at_least_three_classes_with_both_polarities():
    assert len(ORACLE_GRID) >= 3
    assert any(c.expected_deadlocked_terminals > 0 for c in ORACLE_GRID)
    assert any(c.expected_deadlocked_terminals == 0 for c in ORACLE_GRID)


def test_ring_deadlock_case_checks_clean_to_closure():
    report = check_case(get_case("ring-deadlock"))
    assert report.ok, [v.detail for v in report.violations]
    assert report.num_states == 819
    assert report.num_deadlocked_terminals == 1


def test_ring_2vc_free_case_checks_clean_to_closure():
    report = check_case(get_case("ring-2vc-free"))
    assert report.ok, [v.detail for v in report.violations]
    assert report.num_deadlocked_terminals == 0


def test_ground_truth_dooms_exactly_the_deadlocked_terminals_messages():
    """At a deadlocked terminal every active message is doomed, and the
    doomed labels propagate backward along the funnel into it."""
    graph = explore(get_case("ring-deadlock").config)
    truth = analyze(graph)
    deadlocked = graph.deadlocked_terminal_indices()
    assert len(deadlocked) == 1
    terminal = deadlocked[0]
    active = set(graph.index[terminal].active_ids())
    assert truth.doomed[terminal] == frozenset(active)
    # the BFS-tree predecessor of the terminal is already doomed too: from
    # there, every path leads into the same terminal
    parent_idx, _ = graph.parent[terminal]
    assert truth.doomed[parent_idx], "doom must precede the terminal"


def test_drained_terminal_dooms_nothing():
    graph = explore(get_case("ring-2vc-free").config)
    truth = analyze(graph)
    assert all(not doomed for doomed in truth.doomed)


def test_state_count_drift_is_a_violation():
    import dataclasses

    tampered = dataclasses.replace(
        get_case("ring-2vc-free"), expected_states=123
    )
    report = check_case(tampered)
    assert not report.ok
    assert any(v.kind == "state-count" for v in report.violations)


def test_pipeline_census_drift_is_a_violation(miscounting_census):
    """The per-state census cross-check has teeth: a contracted count that
    is off by one anywhere shows up as a ``pipeline-census`` violation."""
    report = check_case(get_case("ring-deadlock"))
    assert any(v.kind == "pipeline-census" for v in report.violations)


def test_pipeline_wait_index_drift_is_a_violation(dropped_wait_target):
    """The pipeline check runs on each state as the production engine's
    step left it, so a wait-index read that loses a target is a
    ``pipeline-census`` violation too."""
    report = check_case(get_case("ring-deadlock"))
    assert any(v.kind == "pipeline-census" for v in report.violations)


def test_pipeline_check_reads_the_wait_index():
    """Reached by its discovering step, a state holds the wait keys the
    engine registered, and the pipeline reads exactly what ``build_cwg``
    derives."""
    from repro.core.detector import DeadlockDetector, _pipeline_cwg
    from repro.validation.oracle import _arrive

    graph = explore(get_case("ring-deadlock").config)
    prod = NetworkSimulator(graph.config)
    keyed = 0
    for idx in range(len(graph)):
        _arrive(prod, graph, idx)
        got = _pipeline_cwg(prod)
        assert got.requests == DeadlockDetector.build_cwg(prod).requests
        keyed += sum(1 for mid in got.requests if prod._live[mid].wait_keys)
    assert keyed
