"""The paper's Section 2 worked examples, verified end to end.

These tests pin the exact characteristics the paper reports for its four
illustrative figures: knot membership, deadlock set, resource set, knot
cycle density, classification and dependent messages.
"""

from repro.core.cycles import count_simple_cycles
from repro.core.gallery import figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg
from repro.core.knots import find_knots, knot_of_vertex


def knot_density(g, knot):
    adjacency = g.adjacency()
    sub = {v: [w for w in adjacency[v] if w in knot] for v in knot}
    return count_simple_cycles(sub).count


class TestFigure1:
    """Single-cycle deadlock under DOR with one VC."""

    def test_single_knot_of_eight_channels(self):
        g = figure1_cwg()
        knots = find_knots(g.adjacency())
        assert len(knots) == 1
        assert knots[0] == frozenset(f"c{i}" for i in range(8))

    def test_deadlock_set_is_three_messages(self):
        g = figure1_cwg()
        (knot,) = find_knots(g.adjacency())
        assert g.messages_owning(knot) == {1, 3, 5}

    def test_resource_set_is_eight_channels(self):
        g = figure1_cwg()
        (knot,) = find_knots(g.adjacency())
        resources = g.resources_of(g.messages_owning(knot))
        assert len(resources) == 8

    def test_density_one_single_cycle(self):
        g = figure1_cwg()
        (knot,) = find_knots(g.adjacency())
        assert knot_density(g, knot) == 1

    def test_unblocked_messages_excluded(self):
        """m2 and m4 hold channels but are not in the deadlock set."""
        g = figure1_cwg()
        (knot,) = find_knots(g.adjacency())
        deadlocked = g.messages_owning(knot)
        assert 2 not in deadlocked and 4 not in deadlocked

    def test_dor_fan_out_is_one(self):
        g = figure1_cwg()
        for m in g.blocked_messages():
            assert len(g.requests[m]) == 1

    def test_knot_definition_oracle(self):
        """Direct reachability definition agrees with the SCC algorithm."""
        g = figure1_cwg()
        adjacency = g.adjacency()
        assert knot_of_vertex(adjacency, "c0") == frozenset(
            f"c{i}" for i in range(8)
        )
        assert knot_of_vertex(adjacency, "c8") is None


class TestFigure2:
    """Single-cycle deadlock after adaptivity exhaustion + dependent msg."""

    def test_knot_is_four_channels(self):
        g = figure2_cwg()
        (knot,) = find_knots(g.adjacency())
        assert knot == frozenset({"c1", "c3", "c5", "c7"})

    def test_deadlock_set_is_four_messages(self):
        g = figure2_cwg()
        (knot,) = find_knots(g.adjacency())
        assert g.messages_owning(knot) == {1, 2, 3, 4}

    def test_resource_set_is_eight_channels(self):
        g = figure2_cwg()
        (knot,) = find_knots(g.adjacency())
        assert len(g.resources_of(g.messages_owning(knot))) == 8

    def test_density_one(self):
        g = figure2_cwg()
        (knot,) = find_knots(g.adjacency())
        assert knot_density(g, knot) == 1

    def test_dependent_message_not_in_deadlock_set(self):
        """m6 waits on the deadlock but owns no knot vertex."""
        g = figure2_cwg()
        (knot,) = find_knots(g.adjacency())
        deadlocked = g.messages_owning(knot)
        assert 6 not in deadlocked
        # ... yet every channel m6 waits for is owned by the deadlock set
        assert all(g.owner[t] in deadlocked for t in g.requests[6])

    def test_dependent_channels_reach_knot_but_not_vice_versa(self):
        g = figure2_cwg()
        adjacency = g.adjacency()
        (knot,) = find_knots(adjacency)
        # c9 -> c4 -> c5 reaches the knot
        assert "c9" not in knot
        # but nothing in the knot reaches c9
        reachable = set()
        frontier = list(knot)
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in reachable:
                    reachable.add(w)
                    frontier.append(w)
        assert "c9" not in reachable


class TestFigure3:
    """Multi-cycle deadlock: 8 messages, 16 VCs, knot of 8, density 4."""

    def test_knot_has_eight_vertices(self):
        g = figure3_cwg()
        (knot,) = find_knots(g.adjacency())
        assert len(knot) == 8
        assert knot == frozenset(f"v{i}" for i in range(8))

    def test_deadlock_set_is_eight_messages(self):
        g = figure3_cwg()
        (knot,) = find_knots(g.adjacency())
        assert g.messages_owning(knot) == set(range(8))

    def test_resource_set_is_sixteen_vcs(self):
        g = figure3_cwg()
        (knot,) = find_knots(g.adjacency())
        assert len(g.resources_of(g.messages_owning(knot))) == 16

    def test_knot_cycle_density_is_four(self):
        g = figure3_cwg()
        (knot,) = find_knots(g.adjacency())
        assert knot_density(g, knot) == 4

    def test_classified_multi_cycle(self):
        g = figure3_cwg()
        (knot,) = find_knots(g.adjacency())
        assert knot_density(g, knot) > 1


class TestFigure4:
    """Cyclic non-deadlock: cycles exist, but an escape prevents a knot."""

    def test_no_knot(self):
        assert find_knots(figure4_cwg().adjacency()) == []

    def test_cycles_still_exist(self):
        count = count_simple_cycles(figure4_cwg().adjacency()).count
        assert count >= 2

    def test_escape_vertex_reachable_but_not_reciprocal(self):
        g = figure4_cwg()
        adjacency = g.adjacency()
        # e4 is reachable from v4 ...
        assert "e4" in adjacency["v4"]
        # ... but reaches nothing, so no knot can contain v4
        assert adjacency["e4"] == []
        assert knot_of_vertex(adjacency, "v4") is None

    def test_same_population_as_figure3(self):
        """Only m4's alternatives changed; the cycle structure remains."""
        g3, g4 = figure3_cwg(), figure4_cwg()
        assert len(g4.blocked_messages()) == len(g3.blocked_messages())
