"""Property-based tests for the topology zoo (3D tori, dragonfly, full mesh).

The same geometric invariants the k-ary n-cube family guarantees must
hold for every zoo class: neighbour symmetry (all zoo topologies are
bidirectional), the triangle inequality on hop distance, and productive
links that strictly decrease distance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import Dragonfly, FullMesh, Mesh3D, Torus3D

dims3 = st.tuples(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=3),
)
latencies3 = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
df_shape = st.tuples(
    st.integers(min_value=2, max_value=4),  # a: routers per group
    st.integers(min_value=1, max_value=2),  # h: global links per router
)


def build_zoo(data):
    """Draw one topology instance from any zoo class."""
    kind = data.draw(st.sampled_from(["torus3d", "mesh3d", "dragonfly", "fullmesh"]))
    if kind == "torus3d":
        return Torus3D(data.draw(dims3), link_latencies=data.draw(latencies3))
    if kind == "mesh3d":
        return Mesh3D(data.draw(dims3), link_latencies=data.draw(latencies3))
    if kind == "dragonfly":
        a, h = data.draw(df_shape)
        return Dragonfly(
            a, 1, h,
            local_latency=data.draw(st.integers(min_value=1, max_value=3)),
            global_latency=data.draw(st.integers(min_value=1, max_value=4)),
        )
    return FullMesh(
        data.draw(st.integers(min_value=2, max_value=8)),
        latency=data.draw(st.integers(min_value=1, max_value=3)),
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_zoo_neighbour_symmetry(data):
    """Every zoo topology is bidirectional: a->b implies b->a, and the
    out-neighbour set equals the in-neighbour set."""
    t = build_zoo(data)
    node = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    for link in t.out_links(node):
        assert t.has_link(link.dst, node)
    assert {l.dst for l in t.out_links(node)} == {l.src for l in t.links if l.dst == node}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_zoo_distance_symmetric_and_triangle(data):
    t = build_zoo(data)
    nodes = st.integers(min_value=0, max_value=t.num_nodes - 1)
    a, b, c = data.draw(nodes), data.draw(nodes), data.draw(nodes)
    assert t.min_distance(a, b) == t.min_distance(b, a)
    assert t.min_distance(a, c) <= t.min_distance(a, b) + t.min_distance(b, c)
    assert (t.min_distance(a, b) == 0) == (a == b)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_zoo_productive_links_strictly_reduce_distance(data):
    t = build_zoo(data)
    nodes = st.integers(min_value=0, max_value=t.num_nodes - 1)
    a, b = data.draw(nodes), data.draw(nodes)
    links = t.productive_links(a, b)
    if a == b:
        assert links == []
    else:
        d = t.min_distance(a, b)
        assert links, "connected topology must offer a productive link"
        for link in links:
            assert link.src == a
            assert t.min_distance(link.dst, b) == d - 1


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_zoo_average_metrics_match_bruteforce(data):
    t = build_zoo(data)
    nn = t.num_nodes
    pairs = [(a, b) for a in range(nn) for b in range(nn) if a != b]
    brute_dist = sum(t.min_distance(a, b) for a, b in pairs) / len(pairs)
    assert abs(t.average_internode_distance - brute_dist) < 1e-9


@given(dims3, latencies3)
@settings(max_examples=40, deadline=None)
def test_torus3d_per_dimension_latency_assignment(dims, lats):
    """Every link of dimension d carries exactly link_latencies[d]."""
    t = Torus3D(dims, link_latencies=lats)
    for link in t.links:
        assert link.latency == lats[link.dim]


@given(df_shape, st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_dragonfly_global_wiring(shape, p):
    """Palmtree wiring: exactly one global channel each way per group
    pair, and local links form a full mesh inside every group."""
    a, h = shape
    t = Dragonfly(a, p, h)
    groups = a * h + 1
    seen = {}
    for link in t.links:
        if link.dim == 1:
            pair = (t.group_of(link.src), t.group_of(link.dst))
            assert pair[0] != pair[1]
            seen[pair] = seen.get(pair, 0) + 1
    assert all(count == 1 for count in seen.values())
    assert len(seen) == groups * (groups - 1)
    for g in range(groups):
        members = [g * a + i for i in range(a)]
        for x in members:
            for y in members:
                if x != y:
                    assert t.has_link(x, y)


@given(st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_fullmesh_all_pairs_distance_one(n):
    t = FullMesh(n)
    assert t.num_links == n * (n - 1)
    for a in range(n):
        for b in range(n):
            if a != b:
                assert t.min_distance(a, b) == 1
    assert t.average_internode_distance == 1.0
