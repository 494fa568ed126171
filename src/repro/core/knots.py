"""Knot detection: the exact deadlock criterion.

A **knot** is a set of vertices R such that the set of vertices reachable
from each and every member of R is R itself [Maekawa et al.].  Given a
connected routing function, a knot in the CWG is a *necessary and
sufficient* condition for deadlock (Warnakulasuriya & Pinkston, TR CENG
97-05) — cycles alone are necessary but not sufficient (Figure 4's cyclic
non-deadlock).

Equivalently, a knot is a **sink strongly-connected component that contains
at least one arc** (size >= 2, or a self-loop): every member reaches the
whole component and nothing else, and the component can reach nothing
outside itself — no escape vertex exists.

The implementation is an iterative Tarjan SCC pass (recursion-free so deep
ownership chains cannot overflow Python's stack) followed by a sink test on
the condensation.  Complexity O(V + E) per detection.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

__all__ = [
    "strongly_connected_components",
    "find_knots",
    "knot_of_vertex",
]

Vertex = Hashable


def strongly_connected_components(
    adjacency: Mapping[Vertex, Sequence[Vertex]],
) -> list[list[Vertex]]:
    """Tarjan's algorithm, iterative form.

    Returns SCCs in reverse topological order of the condensation (every
    successor component appears before its predecessors), which is Tarjan's
    natural emission order.
    """
    index: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    sccs: list[list[Vertex]] = []
    succs_of = adjacency.get

    for root in adjacency:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        # Each work-stack frame: (vertex, iterator over its successors)
        work = [(root, iter(succs_of(root, ())))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in index:
                    index[w] = lowlink[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succs_of(w, ()))))
                    break
                if w in on_stack and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                low = lowlink[v]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def find_knots(
    adjacency: Mapping[Vertex, Sequence[Vertex]],
) -> list[frozenset[Vertex]]:
    """All knots of the graph (possibly several disjoint ones).

    A knot is a sink SCC containing an arc.  Multiple simultaneous deadlocks
    appear as multiple disjoint knots.
    """
    sccs = strongly_connected_components(adjacency)
    comp_of: dict[Vertex, int] = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    knots: list[frozenset[Vertex]] = []
    for i, comp in enumerate(sccs):
        has_internal_arc = len(comp) > 1
        is_sink = True
        for v in comp:
            for w in adjacency.get(v, ()):
                if comp_of[w] != i:
                    is_sink = False
                    break
                if w == v:
                    has_internal_arc = True  # self-loop
            if not is_sink:
                break
        if is_sink and has_internal_arc:
            knots.append(frozenset(comp))
    return knots


def knot_of_vertex(
    adjacency: Mapping[Vertex, Sequence[Vertex]], vertex: Vertex
) -> frozenset[Vertex] | None:
    """The knot containing ``vertex``, if any — direct from the definition.

    Computes reach(vertex) by BFS and verifies that every member's reachable
    set equals it.  O(R * E) — used by tests as an oracle against
    :func:`find_knots`, not by the detector.
    """

    def reach(start: Vertex) -> frozenset[Vertex]:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adjacency.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        # reach() in the knot definition excludes the start unless it lies on
        # a cycle; including it unconditionally is safe because we verify
        # mutual reachability below.
        return frozenset(seen)

    r = reach(vertex)
    for v in r:
        if reach(v) != r:
            return None
    # Reject trivial fixed points: an arcless single vertex is not a knot.
    if len(r) == 1:
        v = next(iter(r))
        if v not in adjacency.get(v, ()):
            return None
    return r
