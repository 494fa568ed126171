"""Unit tests for bounded simple-cycle enumeration."""

from repro.core.cycles import count_simple_cycles, enumerate_simple_cycles


def test_empty_graph():
    assert count_simple_cycles({}).count == 0


def test_acyclic_graph():
    adj = {1: [2, 3], 2: [3], 3: []}
    result = count_simple_cycles(adj)
    assert result.count == 0
    assert not result.saturated


def test_single_cycle():
    adj = {1: [2], 2: [3], 3: [1]}
    assert count_simple_cycles(adj).count == 1


def test_self_loop_counts_as_cycle():
    assert count_simple_cycles({"v": ["v"]}).count == 1


def test_two_cycle():
    assert count_simple_cycles({1: [2], 2: [1]}).count == 1


def test_two_disjoint_cycles():
    adj = {1: [2], 2: [1], 3: [4], 4: [3]}
    assert count_simple_cycles(adj).count == 2


def test_figure3_structure_has_four_cycles():
    # ring 0..7 with chords 0->4 and 4->0
    adj = {i: [(i + 1) % 8] for i in range(8)}
    adj[0] = [1, 4]
    adj[4] = [5, 0]
    assert count_simple_cycles(adj).count == 4


def test_complete_digraph_k3():
    # K3 with all ordered arcs: 3 two-cycles + 2 three-cycles = 5
    adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    assert count_simple_cycles(adj).count == 5


def test_complete_digraph_k4():
    # known count: C(4,2)=6 2-cycles, 8 3-cycles, 6 4-cycles = 20
    adj = {i: [j for j in range(4) if j != i] for i in range(4)}
    assert count_simple_cycles(adj).count == 20


def test_limit_saturation():
    adj = {i: [j for j in range(6) if j != i] for i in range(6)}
    result = count_simple_cycles(adj, limit=10)
    assert result.saturated
    assert result.count >= 10


def test_limit_zero():
    result = count_simple_cycles({1: [1]}, limit=0)
    assert result.count == 0
    assert result.saturated


def test_exact_count_not_saturated():
    adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    result = count_simple_cycles(adj, limit=5)
    # cap reached exactly: conservatively flagged as saturated
    assert result.count == 5


def test_enumerate_returns_actual_cycles():
    adj = {1: [2], 2: [3], 3: [1]}
    cycles, saturated = enumerate_simple_cycles(adj)
    assert not saturated
    assert len(cycles) == 1
    assert set(cycles[0]) == {1, 2, 3}


def test_enumerate_self_loop():
    cycles, _ = enumerate_simple_cycles({"v": ["v"]})
    assert cycles == [["v"]]


def test_enumerate_matches_count():
    adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    cycles, _ = enumerate_simple_cycles(adj)
    assert len(cycles) == count_simple_cycles(adj).count
    # every enumerated cycle must be a real closed walk of distinct vertices
    for cyc in cycles:
        assert len(set(cyc)) == len(cyc)
        for u, v in zip(cyc, cyc[1:]):
            assert v in adj[u]
        assert cyc[0] in adj[cyc[-1]]


def test_cycles_only_within_sccs():
    # bridge between two cycles adds no cycles
    adj = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
    assert count_simple_cycles(adj).count == 2
