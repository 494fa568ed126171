"""Property-based tests for detector classification on synthetic CWGs.

Random deadlock structures with known ground truth: ring knots (deadlock
set = ring members, density 1), chorded rings (density > 1), and escape
variants (no knot at all).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cwg import ChannelWaitForGraph, packet_wait_for_graph
from repro.core.cycles import count_simple_cycles
from repro.core.knots import find_knots


def build_ring(num_messages, chain_len, escape=False):
    """num_messages messages in a wait ring, each owning chain_len VCs.

    With ``escape`` the last message also waits on a free channel, which
    must dissolve the knot (a cyclic non-deadlock).
    """
    g = ChannelWaitForGraph()
    heads = []
    v = 0
    for m in range(num_messages):
        chain = list(range(v, v + chain_len))
        v += chain_len
        g.add_ownership_chain(m, chain)
        heads.append(chain[-1])
    for m in range(num_messages):
        targets = [heads[(m + 1) % num_messages]]
        if escape and m == num_messages - 1:
            targets.append("free-escape")
        g.add_request(m, targets)
    return g, heads


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_ring_knot_characteristics(num_messages, chain_len):
    g, heads = build_ring(num_messages, chain_len)
    adjacency = g.adjacency()
    knots = find_knots(adjacency)
    assert len(knots) == 1
    (knot,) = knots
    # the knot covers at least every head channel (the wait targets)
    assert set(heads) <= set(knot)
    # deadlock set is exactly the ring
    assert g.messages_owning(knot) == set(range(num_messages))
    # resource set = all owned channels
    resources = g.resources_of(g.messages_owning(knot))
    assert len(resources) == num_messages * chain_len
    # a pure ring has density exactly 1: single-cycle deadlock
    sub = {u: [w for w in adjacency[u] if w in knot] for u in knot}
    assert count_simple_cycles(sub).count == 1
    # and the packet wait-for graph sees the same member cycle
    assert packet_wait_for_graph(g)[0] == [1 % num_messages]


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_escape_dissolves_knot(num_messages, chain_len):
    g, _ = build_ring(num_messages, chain_len, escape=True)
    assert find_knots(g.adjacency()) == []
    # cycles remain: a cyclic non-deadlock
    assert count_simple_cycles(g.adjacency()).count >= 1


@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_chord_raises_density(num_messages, chain_len, data):
    """An extra alternative pointing back into the ring multiplies cycles
    but preserves the knot (a multi-cycle deadlock)."""
    g, heads = build_ring(num_messages, chain_len)
    # add a chord: message 0 gains a second alternative into the ring
    chord_to = data.draw(
        st.integers(min_value=2, max_value=num_messages - 1)
    )
    g.requests[0].append(heads[chord_to % num_messages])
    adjacency = g.adjacency()
    knots = find_knots(adjacency)
    assert len(knots) == 1
    (knot,) = knots
    sub = {u: [w for w in adjacency[u] if w in knot] for u in knot}
    density = count_simple_cycles(sub).count
    assert density == 2  # original ring + the chord shortcut
    assert g.messages_owning(knot) == set(range(num_messages))


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_disjoint_rings_are_disjoint_knots(ring_a, ring_b):
    """Two independent deadlocks are reported as two separate knots."""
    g = ChannelWaitForGraph()
    v = 0
    head_groups = []
    for base, size in ((0, ring_a), (100, ring_b)):
        heads = []
        for i in range(size):
            chain = [v, v + 1]
            v += 2
            g.add_ownership_chain(base + i, chain)
            heads.append(chain[-1])
        head_groups.append((base, size, heads))
    for base, size, heads in head_groups:
        for i in range(size):
            g.add_request(base + i, [heads[(i + 1) % size]])
    knots = find_knots(g.adjacency())
    assert len(knots) == 2
    sets = sorted(len(g.messages_owning(k)) for k in knots)
    assert sets == sorted([ring_a, ring_b])
