"""Property-based tests for topology geometry invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import KAryNCube, Mesh

small_k = st.integers(min_value=2, max_value=6)
small_n = st.integers(min_value=1, max_value=3)


@given(small_k, small_n, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_coords_roundtrip(k, n, bidir, data):
    t = KAryNCube(k, n, bidirectional=bidir)
    node = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    assert t.node_at(t.coords(node)) == node


@given(small_k, small_n, st.data())
@settings(max_examples=60, deadline=None)
def test_bidirectional_distance_symmetric(k, n, data):
    t = KAryNCube(k, n)
    a = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    b = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    assert t.min_distance(a, b) == t.min_distance(b, a)


@given(small_k, small_n, st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_productive_links_strictly_reduce_distance(k, n, bidir, data):
    t = KAryNCube(k, n, bidirectional=bidir)
    a = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    b = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    d = t.min_distance(a, b)
    links = t.productive_links(a, b)
    if a == b:
        assert links == []
    else:
        assert links, "connected topology must offer a productive link"
        for link in links:
            assert t.min_distance(link.dst, b) == d - 1


@given(small_k, small_n, st.booleans())
@settings(max_examples=40, deadline=None)
def test_degree_regular(k, n, bidir):
    t = KAryNCube(k, n, bidirectional=bidir)
    if bidir:
        expected = n if k == 2 else 2 * n
    else:
        expected = n
    for node in range(t.num_nodes):
        assert len(t.out_links(node)) == expected
        assert sum(l.dst == node for l in t.links) == expected


@given(small_k, small_n, st.booleans())
@settings(max_examples=30, deadline=None)
def test_average_distance_closed_form_matches_bruteforce(k, n, bidir):
    t = KAryNCube(k, n, bidirectional=bidir)
    nn = t.num_nodes
    brute = sum(
        t.min_distance(a, b) for a in range(nn) for b in range(nn) if a != b
    ) / (nn * (nn - 1))
    assert abs(t.average_internode_distance - brute) < 1e-9


@given(small_k, st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=60, deadline=None)
def test_mesh_distance_is_manhattan(k, n, data):
    m = Mesh(k, n)
    a = data.draw(st.integers(min_value=0, max_value=m.num_nodes - 1))
    b = data.draw(st.integers(min_value=0, max_value=m.num_nodes - 1))
    ca, cb = m.coords(a), m.coords(b)
    assert m.min_distance(a, b) == sum(abs(x - y) for x, y in zip(ca, cb))


@given(small_k, small_n, st.data())
@settings(max_examples=60, deadline=None)
def test_bidirectional_neighbour_symmetry(k, n, data):
    """b is a's neighbour iff a is b's neighbour, in a bidirectional torus."""
    t = KAryNCube(k, n)
    a = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    for link in t.out_links(a):
        back = {l.dst for l in t.out_links(link.dst)}
        assert a in back
    # and the two neighbour sets agree with the link lists both ways
    assert {l.dst for l in t.out_links(a)} == {l.src for l in t.links if l.dst == a}


@given(small_k, small_n, st.data())
@settings(max_examples=60, deadline=None)
def test_neighbour_is_invertible(k, n, data):
    t = KAryNCube(k, n)
    node = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    dim = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert t.neighbour(t.neighbour(node, dim, +1), dim, -1) == node
    assert t.neighbour(t.neighbour(node, dim, -1), dim, +1) == node


@given(small_k, small_n, st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_wraparound_distance_per_dimension(k, n, bidir, data):
    """Torus distance is the per-dimension ring distance, summed.

    Bidirectional rings take the shorter way around (min of the two arc
    lengths); unidirectional rings can only go forward, so the distance is
    the forward offset mod k.
    """
    t = KAryNCube(k, n, bidirectional=bidir)
    a = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    b = data.draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    ca, cb = t.coords(a), t.coords(b)
    expected = 0
    for x, y in zip(ca, cb):
        if bidir:
            expected += min((y - x) % k, (x - y) % k)
        else:
            expected += (y - x) % k
    assert t.min_distance(a, b) == expected


@given(small_k, small_n, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(k, n, bidir, data):
    t = KAryNCube(k, n, bidirectional=bidir)
    nodes = st.integers(min_value=0, max_value=t.num_nodes - 1)
    a, b, c = data.draw(nodes), data.draw(nodes), data.draw(nodes)
    assert t.min_distance(a, c) <= t.min_distance(a, b) + t.min_distance(b, c)
