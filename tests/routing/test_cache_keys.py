"""Candidate-cache correctness: memoized sets equal fresh computations.

The engine memoizes routing candidates under each relation's cache_key;
these tests assert the key captures *all* state the candidates depend on,
by comparing cached and fresh candidate sets over many live states.  Both
engines read the one memo, so the bit-identity gate cannot see a key that
misses state: the relation x topology matrix here is the net that can.
"""

import pytest

from repro.config import tiny_default
from repro.errors import RoutingError
from repro.network.simulator import NetworkSimulator
from repro.routing import _ROUTERS


#: every topology class build_topology builds, as config overrides
TOPOLOGIES = {
    "torus": {},
    "torus-uni": dict(bidirectional=False),
    "mesh": dict(mesh=True),
    "torus3d-lat": dict(
        topology="torus3d", dims=(3, 3, 2), link_latencies=(1, 1, 2)
    ),
    "mesh3d": dict(topology="mesh3d", dims=(3, 3, 2)),
    "failed-links": dict(failed_links=((0, 1), (5, 6))),
    "dragonfly": dict(topology="dragonfly", dims=(3, 1, 1)),
    "fullmesh": dict(topology="fullmesh", dims=(8,)),
}


_KARY = {"torus", "torus-uni", "mesh", "torus3d-lat", "mesh3d"}

#: the topologies each registered relation routes; the simulator must refuse
#: every other cell when it is built (a new relation needs a row here)
ROUTES = {
    "dor": _KARY,
    "dor-dateline": _KARY,
    "duato": _KARY,
    "negative-first": {"mesh", "mesh3d"},
    "tfar": set(TOPOLOGIES),
    "tfar-mis": set(TOPOLOGIES),
    "df-min": {"dragonfly"},
    "df-val": {"dragonfly"},
    "fm-direct": {"fullmesh"},
    "fm-2hop": {"fullmesh"},
}

#: every relation on every topology class at the fewest VCs its rule
#: accepts, plus tfar with a second VC to choose on the torus
CELLS = [
    pytest.param(r, t, _ROUTERS[r].min_vcs, id=f"{r}-{t}")
    for r in sorted(_ROUTERS)
    for t in sorted(TOPOLOGIES)
] + [pytest.param("tfar", "torus", 2, id="tfar-torus-2vc")]


@pytest.mark.parametrize("routing,topology,num_vcs", CELLS)
def test_cached_candidates_match_fresh(routing, topology, num_vcs):
    """Every registered relation on every topology class: the simulator
    refuses exactly the pairs outside ROUTES when it is built, and every
    pair it builds routes each header it meets, with the shared memo's
    candidates equal to a fresh relation call for each of them."""
    cfg = tiny_default(
        routing=routing, num_vcs=num_vcs, load=0.8, seed=2,
        warmup_cycles=0, measure_cycles=200, **TOPOLOGIES[topology],
    )
    if topology not in ROUTES[routing]:
        with pytest.raises(RoutingError):
            NetworkSimulator(cfg)
        return
    sim = NetworkSimulator(cfg)
    compared = 0
    while sim.cycle < 200:
        sim.step()
        heads = [q[0] for q in sim.queues if q and q[0].needs_next_vc]
        for msg in [*sim.active_messages(), *heads]:
            if not (msg.needs_next_vc and sim.routing_eligible(msg)):
                continue
            cached = sim.route_candidates(msg)
            fresh = sim.routing.candidates(
                msg, msg.head_node, sim.topology, sim.pool
            )
            assert [vc.index for vc in cached] == [vc.index for vc in fresh]
            compared += 1
    assert compared > 10


def test_cache_key_distinguishes_dateline_sources():
    """Two messages at the same node with the same destination but
    different sources can legally need different dateline classes; their
    cache keys must differ."""
    from repro.network.message import Message
    from repro.routing.dateline import DatelineDOR

    r = DatelineDOR()
    a = Message(0, 6, 1, 4, 0)  # crosses the wrap travelling +
    b = Message(1, 7, 1, 4, 0)
    assert r.cache_key(a, 0) != r.cache_key(b, 0)


def test_candidate_table_wraparound_matches_fresh():
    """A warm CandidateTable returns exactly what a fresh relation call
    would, for every (source, destination) pair of a torus — including the
    pairs whose minimal route crosses the wrap-around link, where a lossy
    cache key would collide positions on opposite sides of the dateline."""
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import KAryNCube
    from repro.routing.batch import CandidateTable
    from repro.routing.dor import DimensionOrderRouting

    topo = KAryNCube(4, 2)
    pool = ChannelPool(topo, 1, 2)
    r = DimensionOrderRouting()
    table = CandidateTable(r, topo, pool, {})
    pairs = [
        (src, dest)
        for src in range(topo.num_nodes)
        for dest in range(topo.num_nodes)
        if src != dest
    ]
    # two passes: the first builds entries, the second reads every pair
    # back from the fully-warm table, so any key collision between two
    # pairs surfaces as the wrong memoized entry
    for _ in range(2):
        for i, (src, dest) in enumerate(pairs):
            msg = Message(i, src, dest, 4, 0)
            cached, idxs = table.lookup(msg, src)
            fresh = r.candidates(msg, src, topo, pool)
            assert idxs == tuple(vc.index for vc in fresh), (
                f"candidate table diverges from fresh DOR candidates at "
                f"node {src} -> dest {dest}"
            )
            assert cached == fresh
    assert len(table.table) > 0


def test_candidate_table_dateline_wrap_distinct_entries():
    """Dateline VC classes split on wrap-around crossings: at the same
    node, with the same destination, a message that crossed the wrap and
    one that did not must hit *different* table entries with different
    candidate sets — the cache key has to carry the source."""
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import KAryNCube
    from repro.routing.batch import CandidateTable
    from repro.routing.dateline import DatelineDOR

    topo = KAryNCube(8, 1)
    pool = ChannelPool(topo, 2, 2)
    r = DatelineDOR()
    table = CandidateTable(r, topo, pool, {})
    # both head at node 0 with dest 1; `wrapped` entered the ring at 6 and
    # crossed the 7 -> 0 dateline to get here, `local` started at 0
    wrapped = Message(0, 6, 1, 4, 0)
    local = Message(1, 0, 1, 4, 0)
    _, idx_wrapped = table.lookup(wrapped, 0)
    _, idx_local = table.lookup(local, 0)
    assert len(table.table) == 2, "wrap/non-wrap positions collided on one key"
    assert idx_wrapped != idx_local, (
        "dateline classes lost: wrapped and local messages memoized the "
        "same candidate VCs"
    )
    fresh_wrapped = r.candidates(wrapped, 0, topo, pool)
    fresh_local = r.candidates(local, 0, topo, pool)
    assert idx_wrapped == tuple(vc.index for vc in fresh_wrapped)
    assert idx_local == tuple(vc.index for vc in fresh_local)


def test_misrouting_key_includes_progress():
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import KAryNCube
    from repro.routing.tfar import MisroutingTFAR

    topo = KAryNCube(4, 2)
    pool = ChannelPool(topo, 1, 2)
    r = MisroutingTFAR(misroute_budget=1)
    m = Message(0, 0, 2, 4, 0)
    key_before = r.cache_key(m, 0)
    vc = pool.vcs_of_link(topo.link_between(0, 1))[0]
    m.acquire_vc(vc, 0)
    key_after = r.cache_key(m, 1)
    assert key_before != key_after
