"""The contracted census against the plain from-scratch census.

``count_cycles_contracted`` restricts each non-trivial SCC of the
contracted multigraph to its own members and contracts it a second time
before Johnson runs, optionally on an SCC decomposition the caller
already holds.  Every shortcut must leave the bounded ``CycleCount``
exactly what ``count_simple_cycles`` reports on the uncontracted
adjacency — over simple digraphs *and* multigraphs (parallel arcs survive
the first contraction as parallel contracted arcs, so the second
contraction always sees them).  The detector's worm-level use of it is
tested in ``test_worm_pipeline.py``.

A self-loop is one 1-cycle in the reference's reading, so the generators
give a vertex at most one self-loop arc; parallel arcs join distinct
vertices.
"""

import random

import pytest

from repro.core.cycles import (
    CycleCount,
    contract_graph,
    count_cycles_contracted,
    count_simple_cycles,
)
from repro.core.knots import strongly_connected_components

LIMITS = (1, 2, 3, 7, 10_000)


def _assert_pipeline_matches(adjacency):
    contracted = contract_graph(adjacency)
    sccs = strongly_connected_components(contracted.succ)
    for limit in LIMITS:
        expected = count_simple_cycles(adjacency, limit=limit)
        assert count_cycles_contracted(contracted, limit) == expected, (
            adjacency,
            limit,
        )
        assert count_cycles_contracted(contracted, limit, sccs) == expected, (
            adjacency,
            limit,
        )


# -- generators -----------------------------------------------------------------------


def _random_multigraph(rng, n, arcs, parallel):
    """``arcs`` random arcs; ``parallel`` allows repeats between distinct
    vertices (never a repeated self-loop)."""
    adj = {v: [] for v in range(n)}
    for _ in range(arcs):
        u, w = rng.randrange(n), rng.randrange(n)
        if w in adj[u] and (u == w or not parallel):
            continue
        adj[u].append(w)
    return adj


def _ring(vertices):
    return {v: [vertices[(i + 1) % len(vertices)]] for i, v in enumerate(vertices)}


def _nested_sccs(rng):
    """Several strongly connected blobs joined by one-way arcs, with chains.

    Each blob is a ring plus random chords (so it holds several cycles);
    one-way arcs between blobs — some direct, some through a chain of
    fresh pass-through vertices — are exactly what the per-SCC restriction
    deletes, turning the blob's boundary vertices back into pass-throughs.
    """
    adj: dict[int, list[int]] = {}
    blobs = []
    fresh = 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 6)
        blob = list(range(fresh, fresh + size))
        fresh += size
        adj.update(_ring(blob))
        for _ in range(rng.randint(0, 4)):
            u, w = rng.choice(blob), rng.choice(blob)
            if u == w and u in adj[u]:
                continue
            adj[u].append(w)
        blobs.append(blob)
    for i in range(len(blobs) - 1):
        for _ in range(rng.randint(1, 3)):
            u = rng.choice(blobs[i])
            w = rng.choice(blobs[rng.randint(i + 1, len(blobs) - 1)])
            for _ in range(rng.randint(0, 3)):  # chain of pass-throughs
                adj[u].append(fresh)
                adj[fresh] = []
                u = fresh
                fresh += 1
            adj[u].append(w)
    return adj


# -- pinned traps ---------------------------------------------------------------------


def test_outer_self_loop_is_not_recounted_by_the_inner_contraction():
    """``1 -> 1`` and ``0 -> 1 -> 0``: two cycles, not three."""
    adjacency = {0: [1], 1: [0, 1]}
    assert count_simple_cycles(adjacency) == CycleCount(2, False)
    _assert_pipeline_matches(adjacency)


def test_self_loop_inside_a_restricted_scc():
    """The self-loop sits in an SCC that *does* get re-contracted (arc
    ``2 -> 3`` leaves it), so the restriction must drop it first."""
    adjacency = {0: [1], 1: [1, 2], 2: [0, 3], 3: []}
    assert count_simple_cycles(adjacency) == CycleCount(2, False)
    _assert_pipeline_matches(adjacency)


def test_restricted_scc_collapsing_to_a_ring():
    """Every member of the SCC only branches *outwards*: restricted to the
    component it is a pure ring, which the inner contraction reports as a
    ring with no kept vertex at all."""
    adjacency = {0: [1, 9], 1: [2, 9], 2: [0, 9], 9: []}
    assert count_simple_cycles(adjacency) == CycleCount(1, False)
    _assert_pipeline_matches(adjacency)


def test_parallel_chains_become_inner_self_loops():
    """Two chains ``0 ~> 0`` through different interiors plus an exit arc:
    after the restriction vertex 1 is pass-through again and both cycles
    are self-loop arcs of the inner multigraph."""
    adjacency = {0: [1, 2], 1: [0, 5], 2: [3], 3: [0], 5: []}
    assert count_simple_cycles(adjacency) == CycleCount(2, False)
    _assert_pipeline_matches(adjacency)


# -- seeded property tests ------------------------------------------------------------


@pytest.mark.parametrize("parallel", [False, True], ids=["digraph", "multigraph"])
def test_random_graphs_match_from_scratch_census(parallel):
    rng = random.Random(1610 + parallel)
    for _ in range(400):
        n = rng.randint(1, 9)
        adjacency = _random_multigraph(rng, n, rng.randint(0, 2 * n + 3), parallel)
        _assert_pipeline_matches(adjacency)


def test_pure_rings_match_from_scratch_census():
    rng = random.Random(1612)
    for _ in range(50):
        adjacency = {}
        fresh = 0
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 6)
            adjacency.update(_ring(list(range(fresh, fresh + size))))
            fresh += size
        _assert_pipeline_matches(adjacency)


def test_nested_sccs_match_from_scratch_census():
    rng = random.Random(1613)
    for _ in range(300):
        _assert_pipeline_matches(_nested_sccs(rng))
