"""Pin the iterative Johnson enumeration against the recursive original.

The census used to be the textbook recursive Johnson (raising
``sys.setrecursionlimit`` to survive deep knots); it is now an explicit
frame stack with — by construction — the *same* enumeration order, so
capped counts, collected cycles and saturation flags must all match the
recursive reference embedded here verbatim.

The same file also validates the chain-contraction shortcut
(:func:`contract_graph` / :func:`count_cycles_contracted` /
:func:`find_knots_contracted`): simple-cycle counts and knot sets are
invariant under contracting pass-through vertices, including under tight
budget caps, randomized over simple digraphs and over chain-heavy
CWG-shaped graphs.
"""

import random

import pytest

from repro.core.cycles import (
    CycleCount,
    contract_graph,
    count_cycles_contracted,
    count_simple_cycles,
    enumerate_simple_cycles,
)
from repro.core.gallery import figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg
from repro.core.knots import find_knots, find_knots_contracted


# -- the pre-rewrite recursive Johnson, kept verbatim as the oracle ------------------


def _recursive_count(adjacency, limit, collect=None):
    from repro.core.knots import strongly_connected_components

    ids = {v: i for i, v in enumerate(adjacency)}
    for succs in adjacency.values():
        for w in succs:
            if w not in ids:
                ids[w] = len(ids)
    rev = {i: v for v, i in ids.items()}
    adj = {ids[v]: [ids[w] for w in succs] for v, succs in adjacency.items()}

    class Budget:
        left = limit

    budget = Budget()
    total = 0
    for v, succs in adj.items():
        if budget.left <= 0:
            break
        if v in succs:
            total += 1
            budget.left -= 1
            if collect is not None:
                collect.append([rev[v]])

    def johnson(vertices):
        nonlocal total
        vset = set(vertices)
        order = {v: i for i, v in enumerate(sorted(vertices))}
        for s in sorted(vertices, key=order.__getitem__):
            if budget.left <= 0:
                break
            allowed = {v for v in vset if order[v] >= order[s]}
            blocked = set()
            blist = {v: set() for v in allowed}
            path = []

            def unblock(v):
                stack = [v]
                while stack:
                    u = stack.pop()
                    if u in blocked:
                        blocked.discard(u)
                        stack.extend(blist[u])
                        blist[u].clear()

            def circuit(v):
                nonlocal total
                found = False
                path.append(v)
                blocked.add(v)
                for w in adj.get(v, ()):
                    if w not in allowed or w == v:
                        continue
                    if w == s:
                        total += 1
                        budget.left -= 1
                        if collect is not None:
                            collect.append([rev[u] for u in path])
                        found = True
                        if budget.left <= 0:
                            path.pop()
                            return True
                    elif w not in blocked:
                        if circuit(w):
                            found = True
                        if budget.left <= 0:
                            path.pop()
                            return True
                if found:
                    unblock(v)
                else:
                    for w in adj.get(v, ()):
                        if w in allowed:
                            blist[w].add(v)
                path.pop()
                return found

            circuit(s)
            vset.discard(s)

    for comp in strongly_connected_components(adj):
        if len(comp) < 2:
            continue
        if budget.left <= 0:
            break
        johnson(comp)
    return CycleCount(count=total, saturated=budget.left <= 0)


# -- graph generators -----------------------------------------------------------------


def _random_digraph(rng, n, arc_prob):
    """A simple digraph (arc *sets*, self-loops allowed) as adjacency lists."""
    adj = {v: [] for v in range(n)}
    for u in range(n):
        for w in range(n):
            if rng.random() < arc_prob:
                adj[u].append(w)
    return adj

def _random_cwg_like(rng, n_chains, chain_len, n_vertices):
    """Chain-heavy graphs shaped like CWGs: long paths plus dashed fan-out."""
    adj = {v: [] for v in range(n_vertices)}
    arcs = set()
    for _ in range(n_chains):
        chain = rng.sample(
            range(n_vertices), rng.randint(2, min(chain_len, n_vertices))
        )
        for u, w in zip(chain, chain[1:]):
            if u != w and (u, w) not in arcs:
                arcs.add((u, w))
                adj[u].append(w)
        tail = chain[-1]
        for w in rng.sample(range(n_vertices), rng.randint(0, 3)):
            if w != tail and (tail, w) not in arcs:
                arcs.add((tail, w))
                adj[tail].append(w)
    return adj


GALLERY = {
    "figure1": figure1_cwg,
    "figure2": figure2_cwg,
    "figure3": figure3_cwg,
    "figure4": figure4_cwg,
}


# -- iterative vs recursive ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_counts_match_recursive(name):
    adjacency = GALLERY[name]().adjacency()
    assert count_simple_cycles(adjacency, limit=10_000) == _recursive_count(
        adjacency, 10_000
    )


def test_gallery_known_densities():
    """Literal expectations from the paper's figures, as a sanity anchor."""
    fig1 = figure1_cwg().adjacency()
    fig3 = figure3_cwg().adjacency()
    assert count_simple_cycles(fig1).count == 1
    assert count_simple_cycles(fig3).count == 4


def test_enumeration_order_matches_recursive():
    """Not just the same cycles — the same order (budget caps depend on it)."""
    rng = random.Random(42)
    for _ in range(60):
        adjacency = _random_digraph(rng, rng.randint(2, 9), 0.3)
        got, got_sat = enumerate_simple_cycles(adjacency, limit=10_000)
        ref = []
        ref_res = _recursive_count(adjacency, 10_000, collect=ref)
        assert got == ref
        assert got_sat == ref_res.saturated


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 10_000])
def test_capped_counts_match_recursive(limit):
    rng = random.Random(limit)
    for _ in range(80):
        adjacency = _random_digraph(rng, rng.randint(2, 8), 0.35)
        assert count_simple_cycles(adjacency, limit=limit) == _recursive_count(
            adjacency, limit
        ), adjacency


@pytest.mark.slow
def test_deep_ring_needs_no_recursion_limit():
    """A ring deeper than CPython's recursion limit: a recursive
    enumeration would overflow on it, the iterative one must not."""
    import sys

    n = sys.getrecursionlimit() + 100
    adjacency = {i: [(i + 1) % n] for i in range(n)}
    before = sys.getrecursionlimit()
    assert count_simple_cycles(adjacency) == CycleCount(1, False)
    assert sys.getrecursionlimit() == before  # no limit fiddling anymore


# -- contraction invariance ------------------------------------------------------------


def _assert_contraction_invariant(adjacency, limit):
    contracted = contract_graph(adjacency)
    assert count_cycles_contracted(contracted, limit) == count_simple_cycles(
        adjacency, limit=limit
    ), adjacency
    if limit >= 10_000:  # knot comparison only meaningful uncapped
        assert sorted(find_knots_contracted(contracted), key=sorted) == sorted(
            find_knots(adjacency), key=sorted
        ), adjacency


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_contraction_invariant(name):
    _assert_contraction_invariant(GALLERY[name]().adjacency(), 10_000)


def test_figure1_contracts_to_a_ring():
    """Figure 1's single-cycle knot is all pass-through vertices: one ring."""
    adjacency = figure1_cwg().adjacency()
    contracted = contract_graph(adjacency)
    assert len(contracted.rings) == 1
    [knot] = find_knots_contracted(contracted)
    assert knot == frozenset(contracted.rings[0])
    assert [knot] == find_knots(adjacency)


def test_contraction_invariant_random():
    rng = random.Random(7)
    for _ in range(300):
        adjacency = _random_digraph(rng, rng.randint(1, 9), 0.25)
        _assert_contraction_invariant(adjacency, 10_000)


def test_contraction_invariant_random_capped():
    rng = random.Random(8)
    for limit in (1, 2, 5):
        for _ in range(120):
            adjacency = _random_digraph(rng, rng.randint(2, 8), 0.35)
            _assert_contraction_invariant(adjacency, limit)


def test_contraction_invariant_cwg_like():
    rng = random.Random(9)
    for _ in range(150):
        adjacency = _random_cwg_like(
            rng, rng.randint(2, 8), rng.randint(3, 10), rng.randint(8, 24)
        )
        _assert_contraction_invariant(adjacency, 10_000)
