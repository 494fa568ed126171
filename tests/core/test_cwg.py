"""Unit tests for the channel wait-for graph data structure."""

import pytest

from repro.core.cwg import ChannelWaitForGraph
from repro.errors import SimulationError


def test_empty_graph():
    g = ChannelWaitForGraph()
    assert g.num_vertices == 0
    assert g.num_arcs == 0
    assert g.adjacency() == {}
    assert g.blocked_messages() == []


def test_single_chain_solid_arcs():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b", "c"])
    assert g.num_vertices == 3
    assert g.adjacency() == {"a": ["b"], "b": ["c"], "c": []}
    assert g.num_arcs == 2 and g.requests == {}
    assert g.owner["a"] == 1 and g.owner["c"] == 1


def test_single_vertex_chain_has_no_arcs():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(5, ["only"])
    assert g.num_arcs == 0
    assert g.adjacency() == {"only": []}


def test_request_arcs_originate_at_newest_owned_vertex():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b"])
    g.add_ownership_chain(2, ["x"])
    g.add_request(1, ["x", "y"])
    assert g.request_from[1] == "b"
    assert g.adjacency()["b"] == ["x", "y"]
    # y was never owned: a free vertex in the graph
    assert g.owner["y"] is None


def test_exclusive_ownership_enforced():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b"])
    with pytest.raises(SimulationError):
        g.add_ownership_chain(2, ["b", "c"])


def test_duplicate_chain_rejected():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    with pytest.raises(SimulationError):
        g.add_ownership_chain(1, ["b"])


def test_empty_chain_rejected():
    g = ChannelWaitForGraph()
    with pytest.raises(SimulationError):
        g.add_ownership_chain(1, [])


def test_request_without_ownership_rejected():
    g = ChannelWaitForGraph()
    with pytest.raises(SimulationError):
        g.add_request(1, ["a"])


def test_request_with_no_targets_rejected():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    with pytest.raises(SimulationError):
        g.add_request(1, [])


def test_duplicate_request_rejected():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    g.add_request(1, ["b"])
    with pytest.raises(SimulationError):
        g.add_request(1, ["c"])


def test_adjacency_combines_solid_and_dashed():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b"])
    g.add_ownership_chain(2, ["c"])
    g.add_request(1, ["c"])
    adj = g.adjacency()
    assert adj["a"] == ["b"]
    assert adj["b"] == ["c"]
    assert adj["c"] == []


def test_messages_owning_and_resources_of():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b"])
    g.add_ownership_chain(2, ["c"])
    assert g.messages_owning(["a", "c"]) == {1, 2}
    assert g.messages_owning(["nonexistent"]) == set()
    assert g.resources_of([1]) == {"a", "b"}
    assert g.resources_of([1, 2]) == {"a", "b", "c"}
    assert g.resources_of([42]) == set()


def test_num_arcs_counts_both_kinds():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a", "b", "c"])  # 2 solid
    g.add_ownership_chain(2, ["d"])
    g.add_request(1, ["d", "e"])  # 2 dashed
    assert g.num_arcs == 4


def test_blocked_messages_lists_requesters_only():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    g.add_ownership_chain(2, ["b"])
    g.add_request(1, ["b"])
    assert g.blocked_messages() == [1]
