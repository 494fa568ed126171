"""Tests for packet wait-for graphs: the projection of the worm graph."""

import random

from repro.core.cwg import ChannelWaitForGraph, packet_wait_for_graph, worm_graph
from repro.core.cycles import count_simple_cycles
from repro.core.detector import granularity_verdicts
from repro.core.gallery import figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg
from repro.core.knots import find_knots, strongly_connected_components
from tests.core.test_worm_pipeline import _random_rings, _random_worm_cwg


class TestPWFGConstruction:
    def test_figure1_message_cycle(self):
        adj = packet_wait_for_graph(figure1_cwg())
        # m1 -> m3 -> m5 -> m1; m2 and m4 are arcless
        assert adj[1] == [3]
        assert adj[3] == [5]
        assert adj[5] == [1]
        assert adj[2] == [] and adj[4] == []

    def test_figure2_includes_dependent_arc(self):
        adj = packet_wait_for_graph(figure2_cwg())
        assert adj[6] == [3]  # the dependent message waits on m3

    def test_self_waits_excluded(self):
        g = ChannelWaitForGraph()
        g.add_ownership_chain(1, ["a", "b"])
        g.add_request(1, ["a"])  # degenerate: wait on own resource
        assert packet_wait_for_graph(g)[1] == []

    def test_waits_on_free_vertex_produce_no_arc(self):
        g = ChannelWaitForGraph()
        g.add_ownership_chain(1, ["a"])
        g.add_request(1, ["free"])
        assert packet_wait_for_graph(g)[1] == []


class TestPaperClaim:
    def test_figure4_pwfg_has_cycles_but_no_deadlock(self):
        """The paper's §2.3 point: packet-wait-for cycles without deadlock,
        so forbidding PWFG cycles is overly restrictive."""
        g = figure4_cwg()
        # message-level cycles exist
        assert count_simple_cycles(packet_wait_for_graph(g)).count >= 1
        assert find_knots(g.adjacency()) == []  # yet no channel-level knot

    def test_figure1_pwfg_knot_matches_deadlock(self):
        g = figure1_cwg()
        knots = find_knots(packet_wait_for_graph(g))
        assert knots == [frozenset({1, 3, 5})]  # the true deadlock set


def _pwfg_walk(cwg):
    """The packet wait-for graph walked directly off the CWG: the oracle
    the projection must reproduce."""
    adj = {m: [] for m in cwg.chains}
    for requester, targets in cwg.requests.items():
        for t in targets:
            owner = cwg.owner.get(t)
            if owner is not None and owner != requester:
                if owner not in adj[requester]:
                    adj[requester].append(owner)
    return adj


def _attribution_graphs():
    rng = random.Random(2024)
    gallery = [figure1_cwg(), figure2_cwg(), figure3_cwg(), figure4_cwg()]
    return gallery + [_random_worm_cwg(rng) for _ in range(400)] + [
        _random_rings(rng) for _ in range(100)
    ]


def _attribute(g):
    """Check every §3.1 identity on ``g``; returns the disagreement causes."""
    w = worm_graph(g)
    pwfg = packet_wait_for_graph(g)
    assert pwfg == _pwfg_walk(g)

    cwg_knots = find_knots(g.adjacency())
    cwg_sets = {frozenset(g.messages_owning(k)) for k in cwg_knots}
    pwfg_knots = set(find_knots(pwfg))
    free_wait = pwfg_knots - cwg_sets
    for knot in free_wait:
        assert any(None in w[m] for m in knot), knot
    self_wait = cwg_sets - pwfg_knots
    for owners in self_wait:
        (m,) = owners
        assert w[m] and all(o == m for o in w[m]), owners

    sccs = strongly_connected_components(w)
    pwfg_cyclic = count_simple_cycles(pwfg, limit=1).count > 0
    assert pwfg_cyclic == any(len(c) >= 2 for c in sccs)

    limit = 100_000
    pwfg_census = count_simple_cycles(pwfg, limit=limit)
    w_census = count_simple_cycles(g.adjacency(), limit=limit)
    assert not w_census.saturated
    assert pwfg_census.count <= w_census.count
    owned = {m: [o for o in arcs if o is not None] for m, arcs in w.items()}
    if all(len(set(o)) == len(o) and m not in o for m, o in owned.items()):
        assert pwfg_census == w_census

    # the detector reads the same verdicts off the same decomposition
    assert granularity_verdicts(w, sccs, len(cwg_knots)) == {
        "detector/passes_cwg_knot": int(bool(cwg_knots)),
        "detector/passes_pwfg_knot": int(bool(pwfg_knots)),
        "detector/passes_pwfg_cycle": int(pwfg_cyclic),
        "detector/passes_pwfg_cycle_no_knot": int(pwfg_cyclic and not cwg_knots),
        "detector/passes_verdicts_differ": int(bool(cwg_knots) != bool(pwfg_knots)),
        "detector/pwfg_knots_free_wait": len(free_wait),
        "detector/cwg_knots_self_wait": len(self_wait),
    }
    return len(free_wait), len(self_wait)


def test_pwfg_disagreements_are_attributed():
    """THEORY.md §3.1: the PWFG is the worm graph ``W`` without ⊥ arcs,
    self-waits and parallel arcs, so each of its disagreements with the
    exact CWG verdict has exactly one of those causes.  A PWFG knot that
    is no CWG knot's owner set waits on a free channel; a CWG knot the
    PWFG misses is one message waiting on itself; the census gap comes
    from parallel arcs and self-loops only."""
    causes = [_attribute(g) for g in _attribution_graphs()]
    # the sample exercises both causes, so the identities are not vacuous
    assert any(free for free, _ in causes)
    assert any(own for _, own in causes)

