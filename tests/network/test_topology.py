"""Unit tests for topologies: k-ary n-cubes, meshes, irregular tori."""

import pytest

from repro.errors import TopologyError
from repro.network.topology import IrregularTorus, KAryNCube, Mesh


class TestKAryNCubeBidirectional:
    def test_node_and_link_counts(self):
        t = KAryNCube(4, 2)
        assert t.num_nodes == 16
        assert t.num_links == 16 * 2 * 2  # 2 dims, 2 directions

    def test_16ary_2cube_paper_default(self):
        t = KAryNCube(16, 2)
        assert t.num_nodes == 256
        assert t.num_links == 1024

    def test_coords_roundtrip(self):
        t = KAryNCube(5, 3)
        for node in range(t.num_nodes):
            assert t.node_at(t.coords(node)) == node

    def test_coords_dimension0_least_significant(self):
        t = KAryNCube(4, 2)
        assert t.coords(1) == (1, 0)
        assert t.coords(4) == (0, 1)

    def test_neighbour_wraps(self):
        t = KAryNCube(4, 2)
        assert t.neighbour(3, 0, +1) == 0
        assert t.neighbour(0, 0, -1) == 3

    def test_min_distance_wraparound(self):
        t = KAryNCube(8, 1)
        assert t.min_distance(0, 7) == 1  # shorter the other way
        assert t.min_distance(0, 4) == 4
        assert t.min_distance(0, 3) == 3

    def test_min_distance_symmetric(self):
        t = KAryNCube(5, 2)
        for a in range(0, t.num_nodes, 3):
            for b in range(0, t.num_nodes, 5):
                assert t.min_distance(a, b) == t.min_distance(b, a)

    def test_average_internode_distance_closed_form(self):
        # 16-ary 2-cube bidirectional: per-ring mean (incl. zero) = 4,
        # so the pair-mean over distinct nodes is 2*4*N/(N-1)
        t = KAryNCube(16, 2)
        expected = (256 * 256 * 2 * 4.0) / (256 * 255)
        assert t.average_internode_distance == pytest.approx(expected)

    def test_average_distance_matches_bruteforce(self):
        t = KAryNCube(4, 2)
        n = t.num_nodes
        brute = sum(
            t.min_distance(a, b) for a in range(n) for b in range(n) if a != b
        ) / (n * (n - 1))
        assert t.average_internode_distance == pytest.approx(brute)

    def test_capacity_positive(self):
        t = KAryNCube(8, 2)
        assert t.capacity_flits_per_node_cycle > 0

    def test_productive_directions_tie_gives_both(self):
        t = KAryNCube(8, 1)
        dirs = t.productive_directions(0, 4)  # offset exactly k/2
        assert set(dirs) == {(0, +1), (0, -1)}

    def test_productive_directions_shorter_way(self):
        t = KAryNCube(8, 1)
        assert t.productive_directions(0, 6) == [(0, -1)]
        assert t.productive_directions(0, 2) == [(0, +1)]

    def test_productive_links_reduce_distance(self):
        t = KAryNCube(6, 2)
        for src in (0, 7, 21):
            for dest in (5, 17, 35):
                if src == dest:
                    continue
                d = t.min_distance(src, dest)
                for link in t.productive_links(src, dest):
                    assert t.min_distance(link.dst, dest) == d - 1

    def test_out_links_degree(self):
        t = KAryNCube(4, 2)
        for node in range(t.num_nodes):
            assert len(t.out_links(node)) == 4
            assert sum(l.dst == node for l in t.links) == 4

    def test_radix2_no_duplicate_links(self):
        t = KAryNCube(2, 3)
        assert t.num_nodes == 8
        # each node has n=3 out-links (the +/- neighbours coincide)
        for node in range(8):
            assert len(t.out_links(node)) == 3

    def test_link_between_unknown_raises(self):
        t = KAryNCube(4, 2)
        with pytest.raises(TopologyError):
            t.link_between(0, 5)  # diagonal: not adjacent

    def test_bad_parameters(self):
        with pytest.raises(TopologyError):
            KAryNCube(1, 2)
        with pytest.raises(TopologyError):
            KAryNCube(4, 0)

    def test_node_out_of_range(self):
        t = KAryNCube(4, 2)
        with pytest.raises(TopologyError):
            t.coords(16)
        with pytest.raises(TopologyError):
            t.out_links(-1)


class TestKAryNCubeUnidirectional:
    def test_link_count_halved(self):
        t = KAryNCube(4, 2, bidirectional=False)
        assert t.num_links == 16 * 2

    def test_distance_is_forward_only(self):
        t = KAryNCube(8, 1, bidirectional=False)
        assert t.min_distance(0, 7) == 7
        assert t.min_distance(7, 0) == 1

    def test_productive_direction_always_positive(self):
        t = KAryNCube(8, 2, bidirectional=False)
        for src, dest in [(0, 63), (5, 3), (17, 2)]:
            for _dim, direction in t.productive_directions(src, dest):
                assert direction == +1

    def test_average_distance_closed_form(self):
        t = KAryNCube(16, 2, bidirectional=False)
        expected = (256 * 256 * 2 * 7.5) / (256 * 255)
        assert t.average_internode_distance == pytest.approx(expected)

    def test_uni_capacity_lower_than_bi(self):
        uni = KAryNCube(16, 2, bidirectional=False)
        bi = KAryNCube(16, 2, bidirectional=True)
        assert uni.capacity_flits_per_node_cycle < bi.capacity_flits_per_node_cycle


class TestMesh:
    def test_no_wraparound_links(self):
        m = Mesh(4, 2)
        assert not m.has_link(3, 0)
        assert not m.has_link(0, 3)
        assert m.has_link(0, 1)

    def test_link_count(self):
        m = Mesh(4, 2)
        # per dimension: k-1 bidirectional pairs per row, k rows, 2 dims
        assert m.num_links == 2 * 2 * 3 * 4

    def test_corner_degree(self):
        m = Mesh(4, 2)
        assert len(m.out_links(0)) == 2  # corner
        assert len(m.out_links(5)) == 4  # interior

    def test_distance_manhattan(self):
        m = Mesh(4, 2)
        assert m.min_distance(0, 15) == 6
        assert m.min_distance(0, 3) == 3

    def test_productive_links_reduce_distance(self):
        m = Mesh(5, 2)
        for src, dest in [(0, 24), (12, 3), (20, 4)]:
            d = m.min_distance(src, dest)
            links = m.productive_links(src, dest)
            assert links
            for link in links:
                assert m.min_distance(link.dst, dest) == d - 1

    def test_average_distance_matches_bruteforce(self):
        m = Mesh(3, 2)
        n = m.num_nodes
        brute = sum(
            m.min_distance(a, b) for a in range(n) for b in range(n) if a != b
        ) / (n * (n - 1))
        assert m.average_internode_distance == pytest.approx(brute)


class TestIrregularTorus:
    def test_no_failures_matches_regular(self):
        reg = KAryNCube(4, 2)
        irr = IrregularTorus(4, 2)
        assert irr.num_links == reg.num_links
        for a in range(16):
            for b in range(16):
                assert irr.min_distance(a, b) == reg.min_distance(a, b)

    def test_failed_link_removed(self):
        irr = IrregularTorus(4, 2, failed=[(0, 1)])
        assert not irr.has_link(0, 1)
        assert irr.has_link(1, 0)  # reverse direction survives

    def test_distances_detour_around_failure(self):
        irr = IrregularTorus(4, 2, failed=[(0, 1)])
        # 0 -> 1 now takes a detour (e.g. 0 -> 3 -> ... or via dim 1)
        assert irr.min_distance(0, 1) > 1

    def test_productive_links_still_minimal(self):
        irr = IrregularTorus(4, 2, failed=[(0, 1)])
        d = irr.min_distance(0, 1)
        for link in irr.productive_links(0, 1):
            assert irr.min_distance(link.dst, 1) == d - 1

    def test_unknown_failed_link_rejected(self):
        with pytest.raises(TopologyError):
            IrregularTorus(4, 2, failed=[(0, 5)])

    def test_disconnecting_failure_rejected(self):
        # remove every link of node 0 in both directions
        t = KAryNCube(2, 1)
        with pytest.raises(TopologyError):
            IrregularTorus(2, 1, failed=[(0, 1), (1, 0)])

    def test_productive_links_at_destination_empty(self):
        irr = IrregularTorus(4, 2)
        assert irr.productive_links(3, 3) == []
