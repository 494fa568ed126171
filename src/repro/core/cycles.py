"""Bounded enumeration of simple cycles (resource-dependency cycles).

The paper uses the number of resource-dependency cycles in the CWG as a
leading indicator of deadlock risk ("when no deadlocks exist, we instead use
the total number of resource dependency cycles formed ... to represent the
conditions that could lead to deadlock"), and *knot cycle density* — the
number of unique cycles inside a knot — to describe deadlock complexity.

Cycle counts explode at saturation (the paper reports hundreds of thousands
of cycles even without deadlock), so enumeration is capped: the result
carries a ``saturated`` flag when the cap was hit, mirroring the paper's own
practice of running "until the network saturates with respect to the number
of resource dependency cycles".

The algorithm is Johnson's (1975) simple-cycle enumeration restricted to
nontrivial SCCs, O((V + E)(C + 1)) for C cycles, in an iterative form: the
recursion of the textbook presentation is replaced by an explicit frame
stack, so censusing a whole-network knot can never overflow the Python
stack and ``sys.setrecursionlimit`` is never touched.

Because a found ``CycleCount`` is ``(min(true_total, limit),
true_total >= limit)`` regardless of the order cycles are discovered in
(each found cycle decrements the budget by exactly one and enumeration
stops the instant it empties), bounded counts compose: counting a graph's
weakly-connected regions independently, each with the full budget, and
summing yields the exact same ``CycleCount`` as one global enumeration.
The same order independence lets :func:`count_cycles_contracted` visit
SCCs in its own order and still return the identical ``CycleCount``.

:func:`count_cycles_contracted` counts the cycles of a multigraph that
stands for a larger graph (a :class:`ContractedGraph`): every original
simple cycle corresponds 1:1 to a multigraph cycle (parallel arcs
counting separately) or to one listed *ring*.  The detector's pipeline
hands it the CWG's worm multigraph (one node per message; see
:mod:`repro.core.detector`).  :func:`contract_graph` builds one from any
digraph by collapsing *pass-through* vertices — in-degree 1, out-degree
1, no self-loop — into arcs between the remaining branch vertices, and
:func:`count_cycles_contracted` applies it once more inside each
non-trivial SCC: with the arcs that leave the component gone, most of its
members are pass-through again.

:func:`count_simple_cycles` / :func:`enumerate_simple_cycles` stay plain
and uncontracted on purpose — they are the from-scratch reference the
pipeline is checked against (property tests, the differential fuzzer's
``detector`` axis, the oracle's per-state census check) and share only the
Johnson kernel with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from repro.core.knots import strongly_connected_components

__all__ = [
    "CycleCount",
    "count_simple_cycles",
    "enumerate_simple_cycles",
    "ContractedGraph",
    "contract_graph",
    "count_cycles_contracted",
]

Vertex = Hashable


@dataclass(frozen=True)
class CycleCount:
    """Result of a bounded cycle enumeration."""

    count: int
    saturated: bool  #: True when the cap stopped enumeration early

    def __int__(self) -> int:
        return self.count


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int) -> None:
        self.left = limit


def _johnson_scc(
    adj: Mapping[Vertex, Sequence[Vertex]],
    vertices: Sequence[Vertex],
    budget: _Budget,
    collect: list[list[Vertex]] | None,
) -> int:
    """Count simple cycles within one SCC (vertices already pre-restricted).

    Iterative Johnson: each explicit frame is ``[vertex, successor index,
    found-a-cycle flag]``, mirroring the recursive formulation exactly —
    the enumeration order (and therefore any ``collect`` output) is
    identical to the recursive algorithm's.  ``vertices`` is the order
    start vertices are processed in; the *count* does not depend on it.

    ``adj`` may be a multigraph (duplicate successors): parallel arcs into
    the start vertex each close a distinct cycle, and parallel arcs
    elsewhere re-explore their target, which is exactly the per-arc cycle
    multiplicity the contraction path needs.
    """
    # Johnson processes each vertex s in turn, finding the cycles through s
    # within the subgraph of vertices not yet processed: ``allowed`` shrinks
    # by one start vertex per round.
    allowed = set(vertices)
    count = 0

    for s in vertices:
        if budget.left <= 0:
            break
        blocked = {s}
        blist: dict[Vertex, set[Vertex]] = {}
        path: list[Vertex] = [s]
        stack: list[list] = [[s, 0, False]]

        while stack:
            frame = stack[-1]
            v = frame[0]
            succs = adj.get(v, ())
            descended = False
            while frame[1] < len(succs):
                w = succs[frame[1]]
                frame[1] += 1
                if w not in allowed or w == v:
                    continue  # self-loops are counted separately
                if w == s:
                    count += 1
                    budget.left -= 1
                    if collect is not None:
                        collect.append(list(path))
                    frame[2] = True
                    if budget.left <= 0:
                        return count  # cap hit: abandon all bookkeeping
                elif w not in blocked:
                    stack.append([w, 0, False])
                    path.append(w)
                    blocked.add(w)
                    descended = True
                    break
            if descended:
                continue
            # Frame exhausted: retire it, propagating the found flag.
            if frame[2]:
                unstack = [v]
                while unstack:
                    u = unstack.pop()
                    if u in blocked:
                        blocked.discard(u)
                        waiting = blist.pop(u, None)
                        if waiting:
                            unstack.extend(waiting)
            else:
                for w in succs:
                    if w in allowed:
                        waiting = blist.get(w)
                        if waiting is None:
                            blist[w] = {v}
                        else:
                            waiting.add(v)
            path.pop()
            stack.pop()
            if stack and frame[2]:
                stack[-1][2] = True
        allowed.discard(s)
    return count


def _count(
    adjacency: Mapping[Vertex, Sequence[Vertex]],
    limit: int,
    collect: list[list[Vertex]] | None,
) -> CycleCount:
    """Bounded cycle count of a simple digraph, plain and uncontracted.

    A self-loop is a single 1-cycle, which is the right reading for the
    simple-digraph adjacency a CWG produces.  This is the from-scratch
    reference the contracted pipeline is checked against, so it shares
    only :func:`_johnson_scc` with it.
    """
    # Map vertices to dense ints for speed and a stable vertex order.
    ids = {v: i for i, v in enumerate(adjacency)}
    for succs in adjacency.values():
        for w in succs:
            if w not in ids:
                ids[w] = len(ids)
    rev = {i: v for v, i in ids.items()}
    adj: dict[int, list[int]] = {
        ids[v]: [ids[w] for w in succs] for v, succs in adjacency.items()
    }

    budget = _Budget(limit)
    total = 0
    # Self-loops are 1-cycles; Johnson below handles cycles of length >= 2.
    for v, succs in adj.items():
        if budget.left <= 0:
            break
        if v in succs:
            total += 1
            budget.left -= 1
            if collect is not None:
                collect.append([rev[v]])

    for comp in strongly_connected_components(adj):
        if len(comp) < 2:
            continue
        if budget.left <= 0:
            break
        raw: list[list[int]] | None = [] if collect is not None else None
        total += _johnson_scc(adj, sorted(comp), budget, raw)
        if collect is not None and raw:
            collect.extend([[rev[u] for u in cyc] for cyc in raw])
    return CycleCount(count=total, saturated=budget.left <= 0)


def count_simple_cycles(
    adjacency: Mapping[Vertex, Sequence[Vertex]], limit: int = 100_000
) -> CycleCount:
    """Number of distinct simple cycles, capped at ``limit``."""
    if limit < 1:
        return CycleCount(0, True)
    return _count(adjacency, limit, None)


def enumerate_simple_cycles(
    adjacency: Mapping[Vertex, Sequence[Vertex]], limit: int = 10_000
) -> tuple[list[list[Vertex]], bool]:
    """The cycles themselves (as vertex lists) plus a saturation flag."""
    out: list[list[Vertex]] = []
    result = _count(adjacency, limit, out)
    return out, result.saturated


# -- chain contraction ---------------------------------------------------------------


@dataclass
class ContractedGraph:
    """A multigraph whose simple cycles stand for those of a larger graph.

    ``succ`` is the multigraph (parallel arcs are distinct cycles).
    ``rings`` are cycles with no vertex in ``succ`` at all — the simple
    cycles :func:`contract_graph` finds made *entirely* of pass-through
    vertices, each exactly one original cycle.  The detector's worm
    multigraph is one too, with no rings.
    """

    succ: dict[Vertex, Sequence[Vertex]] = field(default_factory=dict)
    rings: list[list[Vertex]] = field(default_factory=list)


def contract_graph(
    adjacency: Mapping[Vertex, Sequence[Vertex]],
) -> ContractedGraph:
    """Collapse in-degree-1/out-degree-1 pass-through vertices.

    Simple-cycle counts are invariant under the contraction: an original
    simple cycle maps 1:1 to a contracted-multigraph simple cycle (each
    parallel arc choice being a distinct original cycle) or to one entry of
    ``rings``.
    """
    indeg: dict[Vertex, int] = {v: 0 for v in adjacency}
    for succs in adjacency.values():
        for w in succs:
            indeg[w] = indeg.get(w, 0) + 1

    keep: set[Vertex] = set()
    for v in indeg:
        succs = adjacency.get(v, ())
        if len(succs) != 1 or indeg[v] != 1 or v in succs:
            keep.add(v)

    out = ContractedGraph()
    succ = out.succ
    on_path: set[Vertex] = set()
    for v in adjacency:
        if v not in keep:
            continue
        sl: list[Vertex] = []
        for w in adjacency.get(v, ()):
            while w not in keep:
                on_path.add(w)
                w = adjacency[w][0]
            sl.append(w)
        succ[v] = sl
    # Cycles made purely of pass-through vertices never touch a kept vertex
    # and are missed by the arc walk above: collect them as rings.
    for v in adjacency:
        if v in keep or v in on_path:
            continue
        ring = [v]
        on_path.add(v)
        u = adjacency[v][0]
        while u != v:
            ring.append(u)
            on_path.add(u)
            u = adjacency[u][0]
        out.rings.append(ring)
    return out


def _charge_whole_cycles(graph: ContractedGraph, budget: _Budget) -> None:
    """Charge the cycles a contracted graph holds without any search:
    one per ring, one per self-loop arc (parallel self-loops are distinct
    original cycles through different interiors)."""
    budget.left -= min(len(graph.rings), budget.left)
    for v, succs in graph.succ.items():
        if budget.left <= 0:
            return
        if v in succs:
            budget.left -= min(succs.count(v), budget.left)


def count_cycles_contracted(
    contracted: ContractedGraph,
    limit: int,
    sccs: Sequence[Sequence[Vertex]] | None = None,
) -> CycleCount:
    """Bounded cycle count over a contracted graph.

    Produces the exact ``CycleCount`` that :func:`count_simple_cycles`
    returns on the uncontracted adjacency (counts are order-independent
    under the budget; see the module docstring).  ``sccs`` is the SCC
    decomposition of ``contracted.succ`` when the caller already holds it
    (the detector shares one Tarjan pass with the knot test).

    Rings and self-loop arcs are whole cycles and are charged first.
    Every other cycle lies inside one non-trivial SCC; restricting the
    adjacency to that component deletes the arcs leaving it, which turns
    most members back into pass-through vertices, so the component is
    contracted *again* and Johnson walks only what still branches.
    """
    if limit < 1:
        return CycleCount(0, True)
    budget = _Budget(limit)
    _charge_whole_cycles(contracted, budget)
    succ = contracted.succ
    if sccs is None:
        sccs = strongly_connected_components(succ)
    for comp in sccs:
        if len(comp) < 2:
            continue
        if budget.left <= 0:
            break
        members = set(comp)
        # self-loops were charged above: drop them with the leaving arcs
        sub = {
            v: [w for w in succ[v] if w in members and w != v] for v in comp
        }
        inner = contract_graph(sub)
        _charge_whole_cycles(inner, budget)
        if len(inner.succ) > 1:
            _johnson_scc(inner.succ, list(inner.succ), budget, None)
    return CycleCount(limit - budget.left, budget.left <= 0)
