"""Golden-trace regression tests for the topology zoo.

One pinned, fully deterministic scenario per new topology class —
torus3d with a slow TSV dimension, mesh3d, dragonfly under minimal
routing, full mesh under 2-hop misrouting — digested exactly like the
k-ary n-cube goldens in :mod:`tests.golden.test_golden_traces` and
compared against ``topology_golden_digests.json``.  Every digest is
asserted on the default (production) engine and on the legacy reference.

Re-bless after an intentional, reviewed semantic change with:

    REPRO_BLESS_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.network.simulator import NetworkSimulator
from tests.golden.test_golden_traces import BLESS_ENV, canonical_trace, digest_of

GOLDEN_PATH = Path(__file__).parent / "topology_golden_digests.json"

_COMMON = dict(
    num_vcs=1,
    buffer_depth=2,
    message_length=8,
    detection_interval=25,
    recovery="disha",
    count_cycles=True,
    max_cycles_counted=2_000,
    warmup_cycles=0,
    measure_cycles=400,
    seed=97,
)

#: the pinned scenarios; changing ANY field here invalidates the digests
SCENARIOS = {
    "torus3d_tsv_dor": SimulationConfig(
        topology="torus3d",
        dims=(4, 2, 2),
        link_latencies=(1, 1, 3),
        routing="dor",
        load=1.3,
        **_COMMON,
    ),
    "mesh3d_dor": SimulationConfig(
        topology="mesh3d",
        dims=(3, 3, 2),
        routing="dor",
        load=1.5,
        **_COMMON,
    ),
    "dragonfly_min": SimulationConfig(
        topology="dragonfly",
        dims=(3, 1, 1),
        routing="df-min",
        load=2.0,
        **_COMMON,
    ),
    "fullmesh_2hop": SimulationConfig(
        topology="fullmesh",
        dims=(8,),
        routing="fm-2hop",
        load=1.5,
        **_COMMON,
    ),
}


def run_scenario(name: str, **flags) -> tuple[str, dict]:
    sim = NetworkSimulator(SCENARIOS[name].replace(**flags))
    result = sim.run()
    trace = canonical_trace(sim, result)
    return digest_of(trace), trace


def load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_topology_golden_trace(name):
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
        f"topology golden {name!r} changed: digest {digest[:16]}… != "
        f"committed {expected['digest'][:16]}… "
        f"(now deadlocks={trace['result']['deadlocks']} "
        f"delivered={trace['result']['delivered']} "
        f"events={len(trace['events'])}; "
        f"committed deadlocks={expected['deadlocks']} "
        f"delivered={expected['delivered']} events={expected['events']}). "
        f"Re-bless only for an intentional, reviewed semantic change."
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_topology_golden_trace_legacy_engine(name):
    """The legacy reference hashes to the digests the default engine
    committed: the zoo is bit-identical across both."""
    goldens = load_goldens()
    if os.environ.get(BLESS_ENV) == "1" or name not in goldens:
        pytest.skip("no committed golden (blessing runs the default engine)")
    digest, _ = run_scenario(name, engine_fast_path=False)
    assert digest == goldens[name]["digest"], (
        f"legacy engine diverged from topology golden {name!r}: "
        f"{digest[:16]}… != committed {goldens[name]['digest'][:16]}…"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_topology_goldens_are_deterministic(name):
    assert run_scenario(name)[0] == run_scenario(name)[0]


def test_deadlock_prone_scenarios_exercise_deadlock():
    """The torus3d and dragonfly goldens must actually deadlock, or they
    pin nothing the zoo was built to study."""
    goldens = load_goldens()
    prone = ("torus3d_tsv_dor", "dragonfly_min")
    committed = [n for n in prone if n in goldens]
    if not committed:
        pytest.skip("goldens not blessed yet")
    assert sum(goldens[n]["deadlocks"] for n in committed) > 0
