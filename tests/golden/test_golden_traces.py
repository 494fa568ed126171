"""Golden-trace regression tests.

Two small, fully deterministic 4-ary 2-cube runs — one DOR, one TFAR — are
reduced to a canonical digest over the run statistics and the complete
deadlock-event stream, and compared against digests committed in
``golden_digests.json``.  Any engine change that alters observable
behaviour, however subtly, flips the digest.

If a digest mismatch is **intentional** (you changed simulation semantics
on purpose and reviewed the new behaviour), re-bless the goldens with:

    REPRO_BLESS_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q

then commit the updated ``golden_digests.json`` together with the change
that caused it, explaining the behavioural delta in the commit message.
If you did NOT intend to change behaviour, the mismatch is a regression —
do not re-bless; bisect it (``scripts/fuzz_differential.py`` can usually
minimize a reproduction).
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceEngine
from repro.validation.differential import result_fields

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"
BLESS_ENV = "REPRO_BLESS_GOLDEN"

#: the pinned scenarios; changing ANY field here invalidates the digests
SCENARIOS = {
    "dor_4ary2cube": SimulationConfig(
        k=4,
        n=2,
        num_vcs=1,
        buffer_depth=2,
        routing="dor",
        message_length=8,
        load=1.3,
        detection_interval=25,
        recovery="disha",
        count_cycles=True,
        max_cycles_counted=2_000,
        warmup_cycles=0,
        measure_cycles=400,
        seed=97,
    ),
    # TFAR's adaptivity makes true deadlock rare at this scale (the paper's
    # central observation); this scenario pins saturated-but-live behaviour
    # while the DOR scenario above pins the deadlock/recovery event stream.
    "tfar_4ary2cube": SimulationConfig(
        k=4,
        n=2,
        num_vcs=1,
        buffer_depth=1,
        routing="tfar",
        traffic="tornado",
        message_length=8,
        load=2.0,
        detection_interval=25,
        recovery="disha",
        count_cycles=True,
        max_cycles_counted=2_000,
        warmup_cycles=0,
        measure_cycles=400,
        seed=97,
    ),
}


def canonical_trace(sim, result) -> dict:
    """JSON-stable projection of a run: its result fields (the one
    projection of :mod:`repro.validation.differential`) and event stream."""
    events = [
        {
            "cycle": e.cycle,
            "deadlock_set": sorted(e.deadlock_set),
            "resource_set": [str(r) for r in sorted(e.resource_set, key=str)],
            "knot": [str(v) for v in sorted(e.knot, key=str)],
            "knot_cycle_density": e.knot_cycle_density,
            "density_saturated": e.density_saturated,
            "dependent": sorted(e.dependent),
            "transient_dependent": sorted(e.transient_dependent),
        }
        for e in sim.detector.events
    ]
    return {"result": result_fields(result), "events": events}


def digest_of(trace: dict) -> str:
    blob = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_scenario(name: str) -> tuple[str, dict]:
    sim = NetworkSimulator(SCENARIOS[name])
    result = sim.run()
    trace = canonical_trace(sim, result)
    return digest_of(trace), trace


def load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name):
    digest, trace = run_scenario(name)
    goldens = load_goldens()
    if os.environ.get(BLESS_ENV) == "1":
        goldens[name] = {
            "digest": digest,
            "deadlocks": trace["result"]["deadlocks"],
            "delivered": trace["result"]["delivered"],
            "events": len(trace["events"]),
        }
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"blessed {name}: {digest[:16]}…")
    assert name in goldens, (
        f"no committed golden digest for {name!r}; generate one with "
        f"{BLESS_ENV}=1 and commit {GOLDEN_PATH.name}"
    )
    expected = goldens[name]
    assert digest == expected["digest"], (
        f"golden trace {name!r} changed: digest {digest[:16]}… != committed "
        f"{expected['digest'][:16]}… "
        f"(now deadlocks={trace['result']['deadlocks']} "
        f"delivered={trace['result']['delivered']} "
        f"events={len(trace['events'])}; "
        f"committed deadlocks={expected['deadlocks']} "
        f"delivered={expected['delivered']} events={expected['events']}). "
        f"If this behaviour change is intentional and reviewed, re-bless "
        f"with {BLESS_ENV}=1 (see module docstring); otherwise this is a "
        f"regression — bisect it, do not re-bless."
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace_legacy_engine(name):
    """The legacy reference reproduces the committed digests verbatim.

    Same scenarios, same goldens, no separate blessing: the two engines
    are required to be bit-identical, so the reference must hash to the
    exact digests the default engine committed.
    """
    goldens = load_goldens()
    if os.environ.get(BLESS_ENV) == "1" or name not in goldens:
        pytest.skip("no committed golden (blessing runs the default engine)")
    sim = ReferenceEngine(SCENARIOS[name])
    result = sim.run()
    digest = digest_of(canonical_trace(sim, result))
    assert digest == goldens[name]["digest"], (
        f"legacy engine diverged from golden trace {name!r}: "
        f"{digest[:16]}… != committed {goldens[name]['digest'][:16]}…"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenarios_are_deterministic(name):
    """The digest is reproducible within a process (prereq for golden use)."""
    assert run_scenario(name)[0] == run_scenario(name)[0]


def test_golden_scenarios_exercise_deadlock():
    """The pinned scenarios must actually deadlock, or the goldens guard
    nothing interesting; if tuning changes this, pick a harder scenario."""
    goldens = load_goldens()
    total = sum(goldens[n]["deadlocks"] for n in SCENARIOS if n in goldens)
    assert total > 0, "golden scenarios no longer produce any deadlock events"
