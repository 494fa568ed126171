"""Candidate-cache correctness: memoized sets equal fresh computations.

The engine memoizes routing candidates under each relation's cache_key;
these tests assert the key captures *all* state the candidates depend on,
by comparing cached and fresh candidate sets over many live states.
"""

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator


@pytest.mark.parametrize(
    "routing,vcs,mesh",
    [
        ("dor", 1, False),
        ("tfar", 2, False),
        ("tfar-mis", 1, False),
        ("dor-dateline", 2, False),
        ("duato", 3, False),
        ("negative-first", 1, True),
    ],
)
def test_cached_candidates_match_fresh(routing, vcs, mesh):
    cfg = tiny_default(
        routing=routing, num_vcs=vcs, mesh=mesh, load=0.8, seed=2,
        warmup_cycles=0, measure_cycles=400,
    )
    sim = NetworkSimulator(cfg)
    compared = 0
    while sim.cycle < 400:
        sim.step()
        if sim.cycle % 20 != 0:
            continue
        for msg in sim.active_messages():
            if not (msg.needs_next_vc and msg.header_in_newest_vc):
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
    table = CandidateTable(r, topo, pool)
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
    table = CandidateTable(r, topo, pool)
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
