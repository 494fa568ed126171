"""The process-wide shape cache: simulators of one network shape share the
topology and the relation's candidate index memo, and nothing else.

Both engines and the detector read the one memo, so the bit-identity nets
cannot see a wrong shared entry: here every entry a second simulator of a
shape reads is compared with a cold relation call on an unshared topology
and pool.  A shape key that loses a field (say ``failed_links``) fails
``test_one_field_apart_shares_nothing``.
"""

import pytest

from repro.config import tiny_default
from repro.errors import RoutingError
from repro.network.channels import ChannelPool
from repro.network.simulator import (
    SHAPES_KEPT,
    NetworkSimulator,
    build_topology,
    network_shape,
)
from repro.routing import _ROUTERS, batch, make_routing
from repro.validation.differential import fingerprint

from tests.routing.test_cache_keys import ROUTES, TOPOLOGIES

#: every registered relation on every topology class it routes
CELLS = [
    pytest.param(r, t, id=f"{r}-{t}") for r in sorted(_ROUTERS) for t in sorted(ROUTES[r])
]


def _config(routing="tfar", seed=1, **overrides):
    return tiny_default(
        routing=routing, num_vcs=_ROUTERS[routing].min_vcs, load=0.8, seed=seed,
        warmup_cycles=0, measure_cycles=150,
    ).replace(**overrides)


@pytest.mark.parametrize("routing,topology", CELLS)
def test_shared_entries_equal_cold_calls(routing, topology):
    """Two simulators of one shape: every key the second one routes reads
    the entry the shared memo holds, equal to a cold call on a fresh,
    unshared topology, pool and relation."""
    first = NetworkSimulator(_config(routing, seed=1, **TOPOLOGIES[topology]))
    first.run()
    cfg = _config(routing, seed=2, **TOPOLOGIES[topology])
    sim = NetworkSimulator(cfg)
    assert sim.topology is first.topology and sim._cands.memo is first._cands.memo
    topo = build_topology(cfg)
    pool = ChannelPool(topo, cfg.num_vcs, cfg.buffer_depth, rx_channels=cfg.rx_channels)
    cold_relation = make_routing(routing)
    table = sim._cands
    warm_lookup = table.lookup
    seen = {"keys": 0, "shared": 0}

    def lookup(message, node):
        shared = sim.routing.cache_key(message, node) in table.memo
        cands, idxs = warm_lookup(message, node)
        cold = cold_relation.candidates(message, node, topo, pool)
        assert idxs == tuple(vc.index for vc in cold), (routing, topology, node)
        assert cands == [sim.pool.vcs[i] for i in idxs]
        seen["keys"] += 1
        seen["shared"] += shared
        return cands, idxs

    table.lookup = lookup
    sim.run()
    assert seen["keys"] > 10
    assert seen["shared"] > 0, "the second simulator computed every entry itself"


#: one field apart from the tiny torus (or the tiny torus3d, for ``dims``)
ONE_APART = {
    "failed_links": (dict(), dict(failed_links=((0, 1),))),
    "link_latencies": (dict(), dict(link_latencies=(1, 2))),
    "bidirectional": (dict(), dict(bidirectional=False)),
    "mesh": (dict(), dict(mesh=True)),
    "dims": (
        dict(topology="torus3d", dims=(3, 3, 2)),
        dict(topology="torus3d", dims=(3, 3, 3)),
    ),
    "routing": (dict(), dict(routing="tfar-mis")),
    "num_vcs": (dict(), dict(num_vcs=2)),
    "rx_channels": (dict(), dict(rx_channels=2)),
}


@pytest.mark.parametrize("field", sorted(ONE_APART))
def test_one_field_apart_shares_nothing(field):
    a, b = (NetworkSimulator(_config(**o)) for o in ONE_APART[field])
    assert a.topology is not b.topology
    assert a._cands.memo is not b._cands.memo


def test_one_shape_shares_only_the_topology_and_the_memo():
    a = NetworkSimulator(_config(seed=1, load=0.3))
    b = NetworkSimulator(_config(seed=2, load=0.9, buffer_depth=4))
    assert a.topology is b.topology and a._cands.memo is b._cands.memo
    for part in ("pool", "routing", "generator", "detector", "stats", "_cands"):
        assert getattr(a, part) is not getattr(b, part), part


def test_least_recently_used_shape_goes_first_and_rebuilds_alike():
    network_shape.cache_clear()
    shapes = [_config(rx_channels=r) for r in range(1, 2 * SHAPES_KEPT + 1)]
    first = NetworkSimulator(shapes[0])
    before = fingerprint(first, first.run())
    for cfg in shapes[1:SHAPES_KEPT]:
        NetworkSimulator(cfg)
    # a hit makes shapes[0] the most recent, so the full cache's next
    # miss evicts shapes[1]
    assert NetworkSimulator(shapes[0]).topology is first.topology
    NetworkSimulator(shapes[SHAPES_KEPT])
    assert network_shape.cache_info().currsize == SHAPES_KEPT
    assert NetworkSimulator(shapes[0]).topology is first.topology
    misses = network_shape.cache_info().misses
    NetworkSimulator(shapes[1])
    assert network_shape.cache_info().misses == misses + 1
    for cfg in shapes[SHAPES_KEPT + 1:]:
        NetworkSimulator(cfg)
    rebuilt = NetworkSimulator(shapes[0])
    assert rebuilt.topology is not first.topology and not rebuilt._cands.memo
    assert fingerprint(rebuilt, rebuilt.run()) == before


def test_build_topology_returns_a_fresh_object():
    cfg = _config()
    shared = NetworkSimulator(cfg).topology
    a, b = build_topology(cfg), build_topology(cfg)
    assert a is not b and shared not in (a, b)


def test_refused_pair_raises_on_every_construction():
    cfg = _config("dor", failed_links=((0, 1),))
    for _ in range(3):
        with pytest.raises(RoutingError):
            NetworkSimulator(cfg)


def test_list_valued_fields_key_the_tuple_shape():
    """Fields given as lists (as ``validate`` accepts) build, and share the
    shape of the same values given as tuples."""
    listed = NetworkSimulator(
        _config("dor", topology="torus3d", dims=[3, 3, 2], link_latencies=[1, 1, 2])
    )
    tupled = NetworkSimulator(
        _config("dor", topology="torus3d", dims=(3, 3, 2), link_latencies=(1, 1, 2))
    )
    assert listed.topology is tupled.topology
    failed = NetworkSimulator(_config(failed_links=[[0, 1]]))
    assert failed.topology is NetworkSimulator(_config(failed_links=((0, 1),))).topology


def test_a_full_memo_takes_no_more_keys_and_routes_alike(monkeypatch):
    """Past ``MEMO_KEPT`` entries a table keeps new keys to itself: the
    shared memo stops growing and the run is unchanged."""
    network_shape.cache_clear()
    cfg = _config()
    free = NetworkSimulator(cfg)
    before = fingerprint(free, free.run())
    network_shape.cache_clear()
    monkeypatch.setattr(batch, "MEMO_KEPT", 5)
    capped = NetworkSimulator(cfg)
    after = fingerprint(capped, capped.run())
    assert len(capped._cands.memo) == 5 < len(capped._cands.table)
    assert after == before
