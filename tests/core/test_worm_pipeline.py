"""The worm-level pipeline against the vertex-level reference.

``DeadlockDetector._analyze_pipeline`` never looks at CWG vertices: it
runs on the worm multigraph (one node per message, one arc per request
target) and expands each knot back to chain suffixes.  The quotient is
exact (module docstring of :mod:`repro.core.detector`), so on every
worm-structured CWG its events — knots, deadlock / resource sets,
densities, dependents — and its census must equal the reference's
``find_knots`` + ``_knot_density`` + ``count_simple_cycles`` on
``g.adjacency()``, at every budget.

The generators draw chains over int and ``("rx", node, index)`` vertices
whose heads request other chains' tails and interiors, their own chain,
two vertices of one chain, and free vertices, plus pure single-target
rings entered mid-chain.  Request targets are distinct, as every routing
relation's candidate set is.
"""

import random

import pytest

from repro.config import tiny_default
from repro.core.cwg import ChannelWaitForGraph, worm_graph
from repro.core.cycles import count_simple_cycles
from repro.core.detector import DeadlockDetector, WormSnapshot, _worm_snapshot
from repro.core.gallery import figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg
from repro.errors import SimulationError
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceDetector, ReferenceEngine
from tests.core.test_detector import force_cycle_deadlock

LIMITS = (1, 2, 3, 7, 10_000)


def snapshot_of(g):
    """The pipeline's input for a hand-built CWG: what the front end
    reads off a live network in that state."""
    return WormSnapshot(
        succ=worm_graph(g),
        requests=g.requests,
        chain=g.chains.__getitem__,
        vertices=g.num_vertices,
        arcs=g.num_arcs,
    )


def _assert_quotient_exact(g):
    for limit in LIMITS:
        for enumeration_limit in (3, 10_000):
            det = ReferenceDetector(
                max_cycles_counted=limit,
                knot_density_cap=limit,
                knot_size_enumeration_limit=enumeration_limit,
            )
            got = det._analyze_pipeline(snapshot_of(g), 0)
            assert got == det._analyze_reference(g, 0), (
                dict(g.chains),
                dict(g.requests),
                limit,
                enumeration_limit,
            )
            if limit < 10_000:
                continue  # a fan-out-1 knot reads (1, False) at any cap
            adjacency = g.adjacency()
            for event in got[0]:
                if len(event.knot) > enumeration_limit:
                    continue
                sub = {
                    v: [w for w in adjacency[v] if w in event.knot]
                    for v in event.knot
                }
                plain = count_simple_cycles(sub, limit)
                assert event.knot_cycle_density == plain.count
                assert event.density_saturated == plain.saturated


# -- generators -----------------------------------------------------------------------


def _vertex_pool(rng, size):
    pool = list(range(size)) + [
        ("rx", node, i) for node in range(size // 4) for i in range(2)
    ]
    rng.shuffle(pool)
    return pool


def _random_worm_cwg(rng):
    pool = _vertex_pool(rng, 40)
    g = ChannelWaitForGraph()
    n = rng.randint(1, 8)
    for m in range(n):
        g.add_ownership_chain(m, [pool.pop() for _ in range(rng.randint(1, 4))])
    for m in range(n):
        if rng.random() < 0.25:
            continue  # not blocked: a worm with no arcs
        targets: list = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("tail", "mid", "mid", "twice", "own", "free"))
            other = g.chains[rng.randrange(n)]
            if kind == "tail":
                picks = [other[0]]
            elif kind == "mid":
                picks = [rng.choice(other)]
            elif kind == "own":
                picks = [rng.choice(g.chains[m])]
            elif kind == "twice":
                picks = rng.sample(other, min(2, len(other)))
            else:
                picks = [pool.pop()]
            targets.extend(t for t in picks if t not in targets)
        g.add_request(m, targets)
    return g


def _random_rings(rng):
    """Disjoint single-target rings, each head entering the next chain at
    a random position; sometimes one extra waiter hangs off a ring."""
    pool = _vertex_pool(rng, 60)
    g = ChannelWaitForGraph()
    mid = 0
    for _ in range(rng.randint(1, 3)):
        ring = list(range(mid, mid + rng.randint(1, 5)))
        mid += len(ring)
        for m in ring:
            g.add_ownership_chain(m, [pool.pop() for _ in range(rng.randint(1, 4))])
        for i, m in enumerate(ring):
            nxt = g.chains[ring[(i + 1) % len(ring)]]
            g.add_request(m, [rng.choice(nxt)])
        if rng.random() < 0.5:
            g.add_ownership_chain(mid, [pool.pop()])
            g.add_request(mid, [rng.choice(g.chains[ring[0]])])
            mid += 1
    return g


# -- tests ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build", [figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg]
)
def test_gallery_quotient_is_exact(build):
    _assert_quotient_exact(build())


def test_random_worm_cwgs_quotient_is_exact():
    rng = random.Random(2701)
    for _ in range(300):
        _assert_quotient_exact(_random_worm_cwg(rng))


def test_pure_single_target_rings_quotient_is_exact():
    rng = random.Random(2702)
    for _ in range(150):
        _assert_quotient_exact(_random_rings(rng))


def test_own_chain_request_is_one_self_loop_knot():
    """A head waiting on its own chain's second VC closes one cycle over
    that VC and the ones after it; the tail VC is outside the knot."""
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b", "c"])
    g.add_request(1, ["b"])
    det = DeadlockDetector()
    [event], census = det._analyze_pipeline(snapshot_of(g), 0)
    assert event.knot == {"b", "c"}
    assert event.resource_set == {"a", "b", "c"}
    assert census.count == 1
    _assert_quotient_exact(g)


def test_shared_vertex_raises_the_exclusive_ownership_error():
    """Two worms claiming one VC is a corrupted network: the front end
    reports it exactly as ``build_cwg`` does."""
    sim = NetworkSimulator(tiny_default(routing="dor", recovery="none"))
    msgs, vcs = force_cycle_deadlock(sim)
    msgs[1].vcs.insert(0, vcs[0])  # m1 also "owns" m0's VC
    with pytest.raises(SimulationError, match="exclusive ownership violated"):
        sim.detector.detect(sim)


def _head_listed_twice(msgs, vcs):
    msgs[0].vcs.append(vcs[1])  # m0's head is m1's VC


def _stale_owner(msgs, vcs):
    vcs[0].owner = msgs[1].id  # listed by m0 only, owned by m1


@pytest.mark.parametrize("corrupt", [_head_listed_twice, _stale_owner])
def test_every_chain_channel_must_be_owned_by_its_chain(corrupt):
    """Stricter than a vertex count: the front end checks ``owner`` on
    every channel of every chain, so a VC listed twice is refused also as
    the first-walked message's head, and a stale owner field is refused
    although no two chains share a vertex (``build_cwg`` accepts it)."""
    sim = NetworkSimulator(tiny_default(routing="dor", recovery="none"))
    msgs, vcs = force_cycle_deadlock(sim)
    corrupt(msgs, vcs)
    with pytest.raises(SimulationError, match="exclusive ownership violated"):
        sim.detector.detect(sim)


@pytest.mark.parametrize(
    "overrides,build",
    [
        (dict(routing="tfar", num_vcs=2, load=1.2), NetworkSimulator),
        (dict(routing="dor", num_vcs=1, load=1.0, rx_channels=2), NetworkSimulator),
        (dict(routing="tfar", num_vcs=1, load=1.0, router_delay=1), NetworkSimulator),
        (dict(routing="tfar", num_vcs=1, load=1.0), ReferenceEngine),
    ],
    ids=["tfar-2vc", "dor-multi-rx", "router-delay", "legacy"],
)
def test_pipeline_cwg_equals_build_cwg_on_live_runs(overrides, build):
    """The front end (wait-index read on production, arcs read off the
    channel owners) reproduces ``worm_graph(build_cwg(sim))`` exactly —
    arcs, requests and their order, chains, sizes and the blocked list —
    at every cycle of a saturated run."""
    sim = build(
        tiny_default(
            warmup_cycles=0, measure_cycles=300, recovery="none", **overrides
        )
    )
    checked = from_wait_index = 0
    for _ in range(300):
        sim.step()
        want = DeadlockDetector.build_cwg(sim)
        got = _worm_snapshot(sim)
        assert list(got.succ.items()) == list(worm_graph(want).items())
        assert list(got.requests.items()) == list(want.requests.items())
        assert all(got.chain(m) == c for m, c in want.chains.items())
        assert got.vertices == want.num_vertices
        assert got.arcs == want.num_arcs
        assert list(got.requests) == want.blocked_messages()
        checked += len(got.requests)
        from_wait_index += sum(
            1 for mid in got.requests if sim.message_by_id(mid).wait_keys
        )
    assert checked, "the run never blocked a header"
    assert bool(from_wait_index) == sim.fast_path
