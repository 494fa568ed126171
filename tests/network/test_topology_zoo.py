"""Unit tests for the topology zoo and the heterogeneous-latency metrics.

Covers the geometry of :class:`Torus3D` / :class:`Mesh3D` /
:class:`Dragonfly` / :class:`FullMesh` and the latency-aware capacity
model: ``capacity_flits_per_node_cycle`` weights each link by ``1 /
latency`` (a latency-L channel accepts a flit every L cycles).
"""

import pytest

from repro.errors import TopologyError
from repro.network.topology import (
    Dragonfly,
    FullMesh,
    KAryNCube,
    Mesh3D,
    Torus3D,
)


class TestTorus3D:
    def test_requires_three_dimensions(self):
        with pytest.raises(TopologyError):
            Torus3D((4, 4))

    def test_mixed_radix_geometry(self):
        t = Torus3D((4, 3, 2))
        assert t.num_nodes == 24
        assert t.coords(t.node_at((3, 2, 1))) == (3, 2, 1)
        # per-ring wraparound distance, summed over dimensions
        assert t.min_distance(t.node_at((0, 0, 0)), t.node_at((3, 2, 1))) == 3

    def test_uniform_latency_flag(self):
        assert Torus3D((3, 3, 3)).uniform_latency
        assert not Torus3D((3, 3, 3), link_latencies=(1, 1, 2)).uniform_latency

    def test_tsv_latency_on_third_dimension_only(self):
        t = Torus3D((3, 3, 3), link_latencies=(1, 1, 4))
        for link in t.links:
            assert link.latency == (4 if link.dim == 2 else 1)


class TestMesh3D:
    def test_no_wraparound(self):
        m = Mesh3D((3, 3, 3))
        corner, far = m.node_at((0, 0, 0)), m.node_at((2, 2, 2))
        assert m.min_distance(corner, far) == 6  # Manhattan, no wrap
        assert not m.has_link(m.node_at((2, 0, 0)), m.node_at((0, 0, 0)))

    def test_latency_validation(self):
        with pytest.raises(TopologyError):
            Mesh3D((3, 3, 3), link_latencies=(1, 1))
        with pytest.raises(TopologyError):
            Mesh3D((3, 3, 3), link_latencies=(1, 1, 0))


class TestDragonfly:
    def test_canonical_sizing(self):
        # a=4, h=2 -> 9 groups of 4 routers = 36 nodes
        t = Dragonfly(4, 2, 2)
        assert t.num_nodes == 36
        assert t.group_of(35) == 8

    def test_diameter_at_most_three(self):
        # local -> global -> local reaches any router from any other
        t = Dragonfly(3, 1, 2)
        worst = max(
            t.min_distance(a, b)
            for a in range(t.num_nodes)
            for b in range(t.num_nodes)
        )
        assert worst <= 3

    def test_global_link_latency(self):
        t = Dragonfly(2, 1, 1, local_latency=1, global_latency=5)
        for link in t.links:
            assert link.latency == (5 if link.dim == 1 else 1)

    def test_truncated_group_count(self):
        t = Dragonfly(2, 1, 1, groups=2)
        assert t.num_nodes == 4
        with pytest.raises(TopologyError):
            Dragonfly(2, 1, 1, groups=5)  # > a*h + 1


class TestFullMesh:
    def test_direct_links_everywhere(self):
        t = FullMesh(5)
        assert t.num_links == 20
        assert all(t.min_distance(a, b) == 1 for a in range(5) for b in range(5) if a != b)

    def test_rejects_trivial_sizes(self):
        with pytest.raises(TopologyError):
            FullMesh(1)


class TestLatencyWeightedMetrics:
    def test_capacity_matches_docstring_formula(self):
        """capacity = sum(1/latency) / (num_nodes * avg hop distance)."""
        t = Torus3D((3, 3, 3), link_latencies=(1, 2, 3))
        bandwidth = sum(1.0 / link.latency for link in t.links)
        expected = bandwidth / (t.num_nodes * t.average_internode_distance)
        assert t.capacity_flits_per_node_cycle == pytest.approx(expected)

    def test_uniform_latency_reduces_to_link_count(self):
        """With unit latencies the weighted form is the classic one."""
        t = KAryNCube(4, 2)
        expected = t.num_links / (t.num_nodes * t.average_internode_distance)
        assert t.capacity_flits_per_node_cycle == pytest.approx(expected)

    def test_slow_links_strictly_reduce_capacity(self):
        fast = Torus3D((3, 3, 3))
        slow = Torus3D((3, 3, 3), link_latencies=(1, 1, 4))
        assert slow.capacity_flits_per_node_cycle < fast.capacity_flits_per_node_cycle
