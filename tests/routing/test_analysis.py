"""Tests for static channel-dependency-graph analysis."""

import pytest

from repro.errors import RoutingError
from repro.network.channels import ChannelPool
from repro.network.topology import FullMesh, IrregularTorus, KAryNCube, Mesh
from repro.routing import (
    DatelineDOR,
    DimensionOrderRouting,
    DragonflyMinimal,
    DuatoProtocolRouting,
    NegativeFirstRouting,
    TrueFullyAdaptiveRouting,
)
from repro.routing.analysis import (
    certify_deadlock_free,
    channel_dependency_graph,
    dependency_cycles,
    is_acyclic,
    is_connected_routing,
)


@pytest.fixture
def torus():
    return KAryNCube(4, 2)


class TestCDGConstruction:
    def test_dor_torus_has_ring_cycles(self, torus):
        pool = ChannelPool(torus, 1, 2)
        adj = channel_dependency_graph(DimensionOrderRouting(), torus, pool)
        assert not is_acyclic(adj)
        assert dependency_cycles(adj).count >= 2  # at least one per dimension

    def test_dor_mesh_is_acyclic(self):
        mesh = Mesh(4, 2)
        pool = ChannelPool(mesh, 1, 2)
        adj = channel_dependency_graph(DimensionOrderRouting(), mesh, pool)
        assert is_acyclic(adj)

    def test_dateline_torus_is_acyclic(self, torus):
        pool = ChannelPool(torus, 2, 2)
        adj = channel_dependency_graph(DatelineDOR(), torus, pool)
        assert is_acyclic(adj)

    def test_turn_model_is_acyclic(self):
        mesh = Mesh(4, 2)
        pool = ChannelPool(mesh, 1, 2)
        adj = channel_dependency_graph(NegativeFirstRouting(), mesh, pool)
        assert is_acyclic(adj)

    def test_tfar_torus_has_many_cycles(self, torus):
        pool = ChannelPool(torus, 1, 2)
        adj = channel_dependency_graph(TrueFullyAdaptiveRouting(), torus, pool)
        assert not is_acyclic(adj)

    def test_cdg_vertices_are_reachable_vcs(self, torus):
        pool = ChannelPool(torus, 1, 2)
        adj = channel_dependency_graph(DimensionOrderRouting(), torus, pool)
        # every VC of a 4-ary 2-cube is usable by some (src, dest) pair
        assert len(adj) == len(pool.vcs)

    def test_arcs_connect_adjacent_links(self, torus):
        pool = ChannelPool(torus, 1, 2)
        adj = channel_dependency_graph(DimensionOrderRouting(), torus, pool)
        for u, succs in adj.items():
            for v in succs:
                # a dependency u->v requires v's link to start where u's ends
                assert pool.vcs[u].dst == pool.vcs[v].src


class TestCertification:
    def test_certifies_dateline(self, torus):
        pool = ChannelPool(torus, 2, 2)
        report = certify_deadlock_free(DatelineDOR(), torus, pool)
        assert report.certified
        assert report.example_cycle is None
        assert "deadlock-free" in report.summary()

    def test_flags_dor_on_torus(self, torus):
        pool = ChannelPool(torus, 1, 2)
        report = certify_deadlock_free(DimensionOrderRouting(), torus, pool)
        assert not report.certified
        assert report.cycle_count >= 1
        assert report.example_cycle is not None
        assert "deadlock possible" in report.summary()

    def test_example_cycle_is_real(self, torus):
        pool = ChannelPool(torus, 1, 2)
        report = certify_deadlock_free(DimensionOrderRouting(), torus, pool)
        adj = channel_dependency_graph(DimensionOrderRouting(), torus, pool)
        cyc = report.example_cycle
        for u, v in zip(cyc, cyc[1:]):
            assert v in adj[u]
        assert cyc[0] in adj[cyc[-1]]

    def test_certification_matches_dynamic_behaviour(self):
        """The static certifier's verdicts agree with what the simulator
        observes: certified routers never knot, flagged ones do (under
        stress)."""
        from repro.config import tiny_default
        from repro.network.simulator import NetworkSimulator

        stress = dict(load=1.0, measure_cycles=2500, seed=3)
        torus = KAryNCube(4, 2)
        cert = certify_deadlock_free(
            DatelineDOR(), torus, ChannelPool(torus, 2, 2)
        )
        assert cert.certified
        result = NetworkSimulator(
            tiny_default(routing="dor-dateline", num_vcs=2, **stress)
        ).run()
        assert result.deadlocks == 0

        flag = certify_deadlock_free(
            DimensionOrderRouting(), torus, ChannelPool(torus, 1, 2)
        )
        assert not flag.certified
        result = NetworkSimulator(
            tiny_default(routing="dor", num_vcs=1, **stress)
        ).run()
        assert result.deadlocks > 0


class TestConnectivity:
    def test_all_builtin_torus_routers_connected(self):
        torus = KAryNCube(4, 2)
        for routing, vcs in (
            (DimensionOrderRouting(), 1),
            (TrueFullyAdaptiveRouting(), 1),
            (DatelineDOR(), 2),
            (DuatoProtocolRouting(), 3),
        ):
            pool = ChannelPool(torus, vcs, 2)
            assert is_connected_routing(routing, torus, pool), routing.name

    def test_turn_model_connected_on_mesh(self):
        mesh = Mesh(4, 2)
        pool = ChannelPool(mesh, 1, 2)
        assert is_connected_routing(NegativeFirstRouting(), mesh, pool)

    def test_disconnected_relation_detected(self):
        class BrokenRouting(DimensionOrderRouting):
            def candidates(self, message, node, topology, pool):
                if node == 5:
                    return []  # drops candidates at node 5
                return super().candidates(message, node, topology, pool)

        torus = KAryNCube(4, 2)
        pool = ChannelPool(torus, 1, 2)
        assert not is_connected_routing(BrokenRouting(), torus, pool)


class TestMismatchedPairs:
    """The analysis entry points refuse a relation on a topology it is not
    defined for, as the simulator does when it is built."""

    @pytest.fixture(
        params=[
            (NegativeFirstRouting, lambda: KAryNCube(4, 2)),
            (DimensionOrderRouting, lambda: FullMesh(6)),
            (DragonflyMinimal, lambda: Mesh(3, 2)),
            (DimensionOrderRouting, lambda: IrregularTorus(4, 2, [(0, 1)])),
        ],
        ids=["nf-torus", "dor-fullmesh", "dfmin-mesh", "dor-failed-links"],
    )
    def pair(self, request):
        routing_cls, make_topology = request.param
        topology = make_topology()
        return routing_cls(), topology, ChannelPool(topology, 1, 2)

    def test_cdg_raises(self, pair):
        with pytest.raises(RoutingError):
            channel_dependency_graph(*pair)

    def test_certification_raises(self, pair):
        with pytest.raises(RoutingError):
            certify_deadlock_free(*pair)

    def test_not_connected(self, pair):
        assert not is_connected_routing(*pair)
