"""The oracle's fault-injection teeth: armed detector faults must be caught.

A verification oracle that has never flagged anything proves nothing — it
might be vacuously agreeing with whatever the detector says.  These tests
arm the ``REPRO_INJECT_FAULT`` bookkeeping faults and demand that witness
replay on the production engine (fast path + the detector's contracted
pipeline) produces a concrete, step-localized counterexample for each; and
that on a clean build the very same witnesses replay without a single
disagreement.
"""

from __future__ import annotations

import pytest

from repro.faults import ENV_VAR
from repro.validation.oracle import (
    TEETH_FAULTS,
    dump_witness,
    explore,
    get_case,
    load_witness,
    make_deadlock_witness,
    make_wake_witness,
    replay_witness,
    run_teeth,
    teeth_candidates,
)

CASE = get_case("ring-deadlock")


@pytest.fixture(scope="module")
def graph():
    """One shared closure for the whole module (819 states, ~0.3 s)."""
    return explore(CASE.config)


@pytest.fixture(scope="module")
def candidates(graph):
    return teeth_candidates(CASE, graph=graph)


# -- clean build: zero disagreements -------------------------------------------------
def test_clean_replay_has_zero_disagreements(candidates):
    """Every candidate witness replays clean on both engines when no fault
    is armed — the baseline that gives a later divergence its meaning."""
    for witness in candidates:
        for production in (False, True):
            result = replay_witness(witness, production=production)
            assert result.ok, (
                f"{witness['kind']} witness diverged on a clean "
                f"{'production' if production else 'oracle'} engine at "
                f"step {result.diverged_at}: {result.detail}"
            )


def test_deadlock_witness_ends_in_a_flagged_deadlock(graph):
    witness = make_deadlock_witness(CASE, graph=graph)
    assert witness["final_verdict"]["has_deadlock"]
    assert witness["final_verdict"]["flagged"], "deadlock must flag messages"
    assert len(witness["steps"]) >= 1


def test_wake_witness_traverses_a_wake_edge(graph):
    """The wake witness's defining property: its last step unblocks (or
    delivers) a message that was blocked in the preceding state."""
    from tests.validation.conftest import state_from_json

    witness = make_wake_witness(CASE, graph=graph)
    final = state_from_json(witness["final_state"])
    # replay all but the last step on the oracle engine to recover the
    # penultimate state, then compare blocked sets
    import dataclasses

    from repro.config import SimulationConfig
    from repro.network.simulator import NetworkSimulator
    from repro.validation.statespace import snapshot_state, step_with_script

    config = SimulationConfig(**{
        **witness["config"],
        "failed_links": (), "length_mix": (), "traffic_mix": (),
    })
    sim = NetworkSimulator(config)
    for step in witness["steps"][:-1]:
        step_with_script(sim, list(step["choices"]))
    before = snapshot_state(sim)

    def blocked_ids(state):
        return {record[0] for record in state.messages if record[9]}

    woken = blocked_ids(before) - blocked_ids(final)
    assert woken, "last step must wake a previously-blocked message"
    assert dataclasses.asdict(config) == witness["config"]


# -- armed faults: every tooth bites -------------------------------------------------
def test_run_teeth_catches_every_armed_fault():
    outcomes = run_teeth(CASE)
    assert [o.fault for o in outcomes] == list(TEETH_FAULTS)
    for outcome in outcomes:
        assert outcome.caught, (
            f"{outcome.fault}: armed fault produced no counterexample "
            f"({outcome.detail})"
        )
        assert outcome.divergence in ("state", "verdict")
        assert outcome.diverged_at is not None
        assert outcome.witness is not None, "catch must be replayable"
        assert outcome.witness_kind in ("deadlock", "wake")
    # a stale blocked epoch leaves every state intact: only the
    # short-circuited detector's verdict can go wrong
    by_fault = {o.fault: o for o in outcomes}
    assert by_fault["skip-block-epoch"].divergence == "verdict"


def test_armed_fault_diverges_and_unarmed_replay_stays_clean(
    candidates, monkeypatch
):
    """The same witness payload flips verdict with the environment knob —
    divergence is caused by the armed fault, not by the payload."""
    monkeypatch.setenv(ENV_VAR, "skip-wake")
    armed = [replay_witness(w, production=True) for w in candidates]
    assert any(not r.ok for r in armed), "armed skip-wake must diverge"
    monkeypatch.delenv(ENV_VAR)
    for witness in candidates:
        assert replay_witness(witness, production=True).ok


def test_faults_only_bite_the_production_machinery(monkeypatch):
    """Oracle-engine replay pins the legacy path: the wake-index and
    blocked-epoch faults live in machinery the pinned engine never runs,
    so the same armed fault must NOT diverge there."""
    witnesses = (make_wake_witness(CASE), make_deadlock_witness(CASE))
    for fault in TEETH_FAULTS:
        monkeypatch.setenv(ENV_VAR, fault)
        for witness in witnesses:
            assert replay_witness(witness, production=False).ok, fault


def test_witness_round_trips_through_disk(candidates, tmp_path):
    for witness in candidates:
        path = dump_witness(witness, tmp_path / f"{witness['kind']}.json")
        loaded = load_witness(path)
        assert loaded["config"] == witness["config"]
        assert loaded["steps"] == [
            {**s, "choices": list(s["choices"])} for s in witness["steps"]
        ]
        assert replay_witness(loaded, production=True).ok


# -- the battery ---------------------------------------------------------------------
def test_teeth_faults_are_the_two_catchable_bookkeeping_lies():
    assert TEETH_FAULTS == ("skip-wake", "skip-block-epoch")
