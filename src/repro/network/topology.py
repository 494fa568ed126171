"""Network topologies: k-ary n-cube tori/meshes plus a small topology zoo.

The paper studies wormhole and virtual cut-through k-ary n-cube networks:
a 16-ary 2-cube torus (256 nodes) by default, a 4-ary 4-cube for the node
degree experiment, and both uni- and bidirectional variants for the physical
links experiment.  This module provides the static structure only — nodes,
physical channels, coordinates and distance geometry.  Dynamic channel state
(virtual channels, buffers, ownership) lives in :mod:`repro.network.channels`.

A *physical channel* is a unidirectional link ``src -> dst``.  A
"bidirectional" network simply has a physical channel in each direction
between adjacent nodes, as in the paper.

Beyond the paper's grids, the topology zoo (``docs/TOPOLOGIES.md``) adds:

* :class:`Torus3D` / :class:`Mesh3D` — mixed-radix 3D grids with a
  per-dimension link latency, modelling the TSV (through-silicon via)
  penalty of stacked 3D NoCs: vertical hops are fewer but slower.
* :class:`Dragonfly` — the ``(a, p, h)`` hierarchical fabric: groups of
  ``a`` routers joined by an intra-group full mesh, with ``h`` global
  ports per router wired in the consecutive ("palmtree") arrangement.
* :class:`FullMesh` — a direct network with a dedicated channel between
  every ordered node pair.

Every link carries a :attr:`PhysicalLink.latency` (cycles per flit).  The
paper's topologies use latency 1 everywhere, which keeps the engine hot
path and all existing results bit-identical; heterogeneous latencies are
modelled as link *occupancy* (a flit crossing a latency-``L`` link keeps
it busy for ``L`` cycles) in the scalar engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

from repro.errors import TopologyError

__all__ = [
    "PhysicalLink",
    "Topology",
    "KAryNCube",
    "Mesh",
    "IrregularTorus",
    "Torus3D",
    "Mesh3D",
    "Dragonfly",
    "FullMesh",
]


@dataclass(frozen=True)
class PhysicalLink:
    """A unidirectional physical channel between two adjacent routers.

    Attributes
    ----------
    index:
        Dense integer id, unique within a topology.
    src, dst:
        Node ids of the upstream and downstream routers.
    dim:
        The dimension this link travels in (``-1`` for non-grid links;
        the Dragonfly uses ``0`` for local and ``1`` for global links).
    direction:
        ``+1`` or ``-1`` within ``dim`` (``0`` for non-grid links).
    latency:
        Cycles a flit occupies this channel while crossing it.  Latency 1
        (the default, and the paper's model) transfers one flit per cycle;
        latency ``L > 1`` models a slower channel that stays busy for
        ``L`` cycles per flit.
    """

    index: int
    src: int
    dst: int
    dim: int
    direction: int
    latency: int = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arrow = {1: "+", -1: "-", 0: "?"}[self.direction]
        lat = f", lat={self.latency}" if self.latency != 1 else ""
        return f"Link#{self.index}({self.src}->{self.dst}, d{self.dim}{arrow}{lat})"


class Topology:
    """Base class for static network structure.

    Subclasses populate :attr:`links` and implement the geometry:
    ``min_distance(a, b)``, the hop length of a shortest path, and
    ``productive_links(node, dest)``, the outgoing links that lie on some
    minimal path to ``dest`` (taking one strictly reduces the remaining hop
    distance) — the geometric core of minimal routing.
    """

    num_nodes: int
    links: list[PhysicalLink]

    def __init__(self) -> None:
        self.links = []
        self._out: dict[int, list[PhysicalLink]] = {}
        self._by_pair: dict[tuple[int, int], PhysicalLink] = {}

    # -- construction helpers -------------------------------------------------
    def _add_link(
        self, src: int, dst: int, dim: int, direction: int, latency: int = 1
    ) -> PhysicalLink:
        if (src, dst) in self._by_pair:
            raise TopologyError(f"duplicate link {src}->{dst}")
        if latency < 1:
            raise TopologyError(f"link latency must be >= 1, got {latency}")
        link = PhysicalLink(len(self.links), src, dst, dim, direction, latency)
        self.links.append(link)
        self._out.setdefault(src, []).append(link)
        self._by_pair[(src, dst)] = link
        return link

    # -- queries ---------------------------------------------------------------
    @property
    def num_links(self) -> int:
        return len(self.links)

    def out_links(self, node: int) -> list[PhysicalLink]:
        """Physical channels leaving ``node``."""
        self._check_node(node)
        return self._out.get(node, [])

    def link_between(self, src: int, dst: int) -> PhysicalLink:
        try:
            return self._by_pair[(src, dst)]
        except KeyError:
            raise TopologyError(f"no physical channel {src}->{dst}") from None

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self._by_pair

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.num_nodes})")

    # -- latency-aware geometry ---------------------------------------------------
    @cached_property
    def uniform_latency(self) -> bool:
        """True when every physical channel has latency 1 (the paper's model)."""
        return all(link.latency == 1 for link in self.links)

    # -- derived metrics ---------------------------------------------------------
    @cached_property
    def average_internode_distance(self) -> float:
        """Mean :meth:`min_distance` over all ordered pairs of distinct nodes.

        This is a *hop* count: link latencies do not enter.
        The paper normalizes offered load "based on total link bandwidth
        and average internode distance"; both quantities are combined in
        :attr:`capacity_flits_per_node_cycle`.
        """
        n = self.num_nodes
        total = sum(
            self.min_distance(a, b) for a in range(n) for b in range(n) if a != b
        )
        return total / (n * (n - 1))

    @cached_property
    def effective_link_bandwidth(self) -> float:
        """Aggregate flit bandwidth of all physical channels, flits per cycle.

        A latency-``L`` channel moves one flit every ``L`` cycles, so it
        contributes ``1/L``; with uniform unit latency this is simply
        :attr:`num_links`.
        """
        return sum(1.0 / link.latency for link in self.links)

    @cached_property
    def capacity_flits_per_node_cycle(self) -> float:
        """Network capacity in flits per node per cycle.

        A latency-``L`` physical channel carries one flit every ``L``
        cycles, so the aggregate bandwidth is ``sum(1/latency)`` flit-hops
        per cycle (:attr:`effective_link_bandwidth`; ``num_links`` in the
        paper's uniform unit-latency model).  Each delivered flit consumes
        ``average_internode_distance`` flit-hops on average, so full
        capacity corresponds to ``bandwidth / (N * avg_distance)`` flits
        accepted per node per cycle.  A *normalized load* of ``L``
        therefore means each node injects ``L * capacity`` flits per cycle
        on average.
        """
        return self.effective_link_bandwidth / (
            self.num_nodes * self.average_internode_distance
        )


class KAryNCube(Topology):
    """A k-ary n-cube torus with uni- or bidirectional physical channels.

    Parameters
    ----------
    k:
        Radix (nodes per dimension), ``k >= 2``.  Pass ``None`` with
        ``dims`` for a mixed-radix grid.
    n:
        Number of dimensions, ``n >= 1``.  Pass ``None`` with ``dims``.
    bidirectional:
        When True (paper default) each pair of adjacent nodes is joined by a
        physical channel in each direction.  When False only the ``+``
        direction rings exist, as in the unidirectional torus of Figure 5.
    dims:
        Optional per-dimension radices for a mixed-radix torus (used by
        :class:`Torus3D`).  When given, ``k``/``n`` are derived:
        ``n = len(dims)`` and ``k`` is the common radix, or ``None`` when
        the radices differ (uniform-radix-only consumers such as the
        dateline routing guard on this).
    link_latencies:
        Optional per-dimension link latency (cycles per flit); defaults to
        1 everywhere, the paper's model.

    Node ids are the mixed-radix encoding of coordinates with dimension 0 as
    the least significant digit.
    """

    def __init__(
        self,
        k: Optional[int],
        n: Optional[int],
        *,
        bidirectional: bool = True,
        dims: Optional[Sequence[int]] = None,
        link_latencies: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        if dims is None:
            if k is None or n is None:
                raise TopologyError("either k and n or dims must be given")
            if k < 2:
                raise TopologyError(f"radix k must be >= 2, got {k}")
            if n < 1:
                raise TopologyError(f"dimension count n must be >= 1, got {n}")
            dims = (k,) * n
        else:
            dims = tuple(int(d) for d in dims)
            if not dims:
                raise TopologyError("dims must name at least one dimension")
            if any(d < 2 for d in dims):
                raise TopologyError(f"every radix must be >= 2, got {dims}")
            n = len(dims)
            k = dims[0] if all(d == dims[0] for d in dims) else None
        self.k = k
        self.n = n
        self.dims = dims
        self.dim_latencies = self._check_latencies(link_latencies, n)
        self.bidirectional = bidirectional
        self.num_nodes = prod(dims)
        self._coords = [self._compute_coords(node) for node in range(self.num_nodes)]
        self._build_links()

    @staticmethod
    def _check_latencies(
        link_latencies: Optional[Sequence[int]], n: int
    ) -> tuple[int, ...]:
        if link_latencies is None:
            return (1,) * n
        lat = tuple(int(x) for x in link_latencies)
        if len(lat) != n:
            raise TopologyError(
                f"expected {n} per-dimension latencies, got {len(lat)}"
            )
        if any(x < 1 for x in lat):
            raise TopologyError(f"link latencies must be >= 1, got {lat}")
        return lat

    def _build_links(self) -> None:
        for node in range(self.num_nodes):
            c = self.coords(node)
            for dim in range(self.n):
                kd = self.dims[dim]
                lat = self.dim_latencies[dim]
                fwd = list(c)
                fwd[dim] = (fwd[dim] + 1) % kd
                dst = self.node_at(fwd)
                if not self.has_link(node, dst):
                    self._add_link(node, dst, dim, +1, lat)
                if self.bidirectional:
                    bwd = list(c)
                    bwd[dim] = (bwd[dim] - 1) % kd
                    dst = self.node_at(bwd)
                    if not self.has_link(node, dst):
                        self._add_link(node, dst, dim, -1, lat)

    # -- geometry ---------------------------------------------------------------
    def _compute_coords(self, node: int) -> tuple[int, ...]:
        out = []
        for dim in range(self.n):
            out.append(node % self.dims[dim])
            node //= self.dims[dim]
        return tuple(out)

    def coords(self, node: int) -> tuple[int, ...]:
        if 0 <= node < self.num_nodes:
            return self._coords[node]
        self._check_node(node)
        raise AssertionError  # pragma: no cover - _check_node always raises

    def node_at(self, coords: Sequence[int]) -> int:
        if len(coords) != self.n:
            raise TopologyError(f"expected {self.n} coordinates, got {len(coords)}")
        node = 0
        for dim in reversed(range(self.n)):
            c = coords[dim] % self.dims[dim]
            node = node * self.dims[dim] + c
        return node

    def _dim_distance(self, a: int, b: int, dim: int) -> int:
        """Hop distance from coordinate ``a`` to ``b`` within ring ``dim``."""
        kd = self.dims[dim]
        fwd = (b - a) % kd
        if not self.bidirectional:
            return fwd
        return min(fwd, kd - fwd)

    def min_distance(self, a: int, b: int) -> int:
        ca, cb = self.coords(a), self.coords(b)
        return sum(
            self._dim_distance(x, y, dim) for dim, (x, y) in enumerate(zip(ca, cb))
        )

    def productive_directions(self, node: int, dest: int) -> list[tuple[int, int]]:
        """``(dim, direction)`` pairs that reduce the distance to ``dest``.

        In a bidirectional torus with an even radix, a coordinate offset of
        exactly ``k/2`` makes *both* directions minimal; both are returned.
        """
        cn, cd = self.coords(node), self.coords(dest)
        out: list[tuple[int, int]] = []
        for dim in range(self.n):
            kd = self.dims[dim]
            off = (cd[dim] - cn[dim]) % kd
            if off == 0:
                continue
            if not self.bidirectional:
                out.append((dim, +1))
                continue
            back = kd - off
            if off < back:
                out.append((dim, +1))
            elif back < off:
                out.append((dim, -1))
            elif kd == 2:
                # radix 2: the two directions reach the same neighbour over
                # the same physical channel, so report it once
                out.append((dim, +1))
            else:  # off == k/2: both directions are minimal
                out.append((dim, +1))
                out.append((dim, -1))
        return out

    def productive_links(self, node: int, dest: int) -> list[PhysicalLink]:
        c = self.coords(node)
        out = []
        for dim, direction in self.productive_directions(node, dest):
            nxt = list(c)
            nxt[dim] = (nxt[dim] + direction) % self.dims[dim]
            out.append(self.link_between(node, self.node_at(nxt)))
        return out

    def neighbour(self, node: int, dim: int, direction: int) -> int:
        """Node one hop from ``node`` in ``(dim, direction)``."""
        c = list(self.coords(node))
        c[dim] = (c[dim] + direction) % self.dims[dim]
        return self.node_at(c)

    def _per_ring_mean(self, kd: int) -> float:
        """Mean per-ring hop distance over all ordered coordinate pairs."""
        if self.bidirectional:
            return sum(min(d, kd - d) for d in range(kd)) / kd
        return (kd - 1) / 2

    @cached_property
    def average_internode_distance(self) -> float:
        # Closed form: coordinates are independent, so the mean distance is
        # the sum over dimensions of the mean per-ring distance over all
        # ordered pairs (including equal coordinates), corrected to exclude
        # the zero self-pair.
        ring_sum = sum(self._per_ring_mean(kd) for kd in self.dims)
        total_pairs = self.num_nodes * (self.num_nodes - 1)
        # Sum over ordered node pairs including self-pairs is N^2 * ring_sum.
        return (self.num_nodes**2 * ring_sum) / total_pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "bi" if self.bidirectional else "uni"
        if self.k is not None:
            return f"KAryNCube(k={self.k}, n={self.n}, {kind})"
        return f"KAryNCube(dims={self.dims}, {kind})"


class Mesh(KAryNCube):
    """A k-ary n-mesh (torus without wraparound links); always bidirectional.

    Not used by the paper's headline experiments but needed by the turn-model
    avoidance baseline, which is defined for meshes.
    """

    def __init__(
        self,
        k: Optional[int],
        n: Optional[int],
        *,
        dims: Optional[Sequence[int]] = None,
        link_latencies: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            k, n, bidirectional=True, dims=dims, link_latencies=link_latencies
        )

    def _build_links(self) -> None:
        for node in range(self.num_nodes):
            c = self.coords(node)
            for dim in range(self.n):
                lat = self.dim_latencies[dim]
                if c[dim] + 1 < self.dims[dim]:
                    fwd = list(c)
                    fwd[dim] += 1
                    self._add_link(node, self.node_at(fwd), dim, +1, lat)
                if c[dim] - 1 >= 0:
                    bwd = list(c)
                    bwd[dim] -= 1
                    self._add_link(node, self.node_at(bwd), dim, -1, lat)

    def _dim_distance(self, a: int, b: int, dim: int) -> int:
        return abs(b - a)

    def productive_directions(self, node: int, dest: int) -> list[tuple[int, int]]:
        cn, cd = self.coords(node), self.coords(dest)
        out = []
        for dim in range(self.n):
            if cd[dim] > cn[dim]:
                out.append((dim, +1))
            elif cd[dim] < cn[dim]:
                out.append((dim, -1))
        return out

    def _per_ring_mean(self, kd: int) -> float:
        return sum(abs(a - b) for a in range(kd) for b in range(kd)) / (kd * kd)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.k is not None:
            return f"Mesh(k={self.k}, n={self.n})"
        return f"Mesh(dims={self.dims})"


class Torus3D(KAryNCube):
    """A mixed-radix 3D torus with a per-dimension link-latency model.

    ``dims = (kx, ky, kz)`` gives the radix of each dimension and
    ``link_latencies = (lx, ly, lz)`` the cycles per flit on each
    dimension's channels.  Stacked 3D NoCs typically use ``kz`` much
    smaller than ``kx``/``ky`` with ``lz > 1`` — the TSV vertical-link
    penalty knob.
    """

    def __init__(
        self,
        dims: Sequence[int],
        *,
        link_latencies: Optional[Sequence[int]] = None,
        bidirectional: bool = True,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3:
            raise TopologyError(f"Torus3D needs exactly 3 radices, got {dims}")
        super().__init__(
            None,
            None,
            bidirectional=bidirectional,
            dims=dims,
            link_latencies=link_latencies,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "bi" if self.bidirectional else "uni"
        return f"Torus3D(dims={self.dims}, lat={self.dim_latencies}, {kind})"


class Mesh3D(Mesh):
    """A mixed-radix 3D mesh with a per-dimension link-latency model.

    The mesh variant of :class:`Torus3D` — no wraparound channels, always
    bidirectional, same TSV-penalty latency knob.
    """

    def __init__(
        self,
        dims: Sequence[int],
        *,
        link_latencies: Optional[Sequence[int]] = None,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3:
            raise TopologyError(f"Mesh3D needs exactly 3 radices, got {dims}")
        super().__init__(None, None, dims=dims, link_latencies=link_latencies)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh3D(dims={self.dims}, lat={self.dim_latencies})"


class _TableGeometry(Topology):
    """Mixin for graph topologies whose geometry comes from a BFS table.

    Subclasses call :meth:`_build_distance_table` after adding their links;
    :meth:`min_distance` and :meth:`productive_links` (links that strictly
    decrease the tabulated distance) then come for free.
    """

    _dist: list[list[int]]

    def _build_distance_table(self) -> None:
        n = self.num_nodes
        inf = n + 1
        dist = [[inf] * n for _ in range(n)]
        for start in range(n):
            row = dist[start]
            row[start] = 0
            frontier = [start]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for link in self.out_links(u):
                        if row[link.dst] > d:
                            row[link.dst] = d
                            nxt.append(link.dst)
                frontier = nxt
        for start in range(n):
            if max(dist[start]) >= inf:
                raise TopologyError("topology is not strongly connected")
        self._dist = dist

    def min_distance(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        return self._dist[a][b]

    def productive_links(self, node: int, dest: int) -> list[PhysicalLink]:
        if node == dest:
            return []
        d = self._dist[node][dest]
        return [
            link for link in self.out_links(node) if self._dist[link.dst][dest] == d - 1
        ]


class IrregularTorus(_TableGeometry, KAryNCube):
    """A bidirectional torus with a set of failed (removed) links.

    The paper's future-work section proposes studying irregular topologies and
    faulty links; faulty links are also how minimal adaptive routing loses its
    adaptivity in the Figure 2 example.  Removing a link removes the physical
    channel in *one* direction only (the reverse channel survives unless also
    listed).  Minimal-path geometry falls back to a BFS over surviving links.
    """

    def __init__(
        self, k: int, n: int, failed: Iterable[tuple[int, int]] = ()
    ) -> None:
        KAryNCube.__init__(self, k, n, bidirectional=True)
        failed = set(failed)
        if failed:
            keep = [l for l in self.links if (l.src, l.dst) not in failed]
            removed = len(self.links) - len(keep)
            if removed != len(failed):
                missing = {
                    (s, d) for (s, d) in failed if (s, d) not in self._by_pair
                }
                raise TopologyError(f"failed links not present: {sorted(missing)}")
            self.links = []
            self._out.clear()
            self._by_pair.clear()
            for l in keep:
                self._add_link(l.src, l.dst, l.dim, l.direction, l.latency)
        self.failed = failed
        self._build_distance_table()

    @cached_property
    def average_internode_distance(self) -> float:
        return Topology.average_internode_distance.func(self)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IrregularTorus(k={self.k}, n={self.n}, failed={len(self.failed)})"


class Dragonfly(_TableGeometry):
    """A ``(a, p, h)`` dragonfly: full-mesh groups joined by global links.

    Parameters
    ----------
    a:
        Routers per group (``>= 2``); every router pair within a group is
        joined by a local channel in each direction.
    p:
        Terminals per router.  Terminals are not modelled as separate
        graph nodes — each router is one simulation node with the usual
        single injection/reception interface — but ``p`` is part of the
        canonical signature because it fixes the balanced-dragonfly sizing
        ``a = 2p = 2h``.
    h:
        Global channels per router (``>= 1``).
    groups:
        Number of groups; defaults to the balanced maximum ``a*h + 1``
        where every group pair is joined by exactly one global channel
        pair.  Must satisfy ``2 <= groups <= a*h + 1``.
    local_latency / global_latency:
        Cycles per flit on intra-group and global channels.

    Global links use the *consecutive* (palmtree) arrangement: group ``g``'s
    ``q``-th global port (owned by router ``q // h``) connects to group
    ``(g + q + 1) mod groups``.  Node ``g * a + i`` is router ``i`` of
    group ``g``; local links are ``dim`` 0, global links ``dim`` 1.
    """

    def __init__(
        self,
        a: int,
        p: int,
        h: int,
        *,
        groups: Optional[int] = None,
        local_latency: int = 1,
        global_latency: int = 1,
    ) -> None:
        super().__init__()
        if a < 2:
            raise TopologyError(f"dragonfly needs a >= 2 routers/group, got {a}")
        if p < 1:
            raise TopologyError(f"dragonfly needs p >= 1 terminals/router, got {p}")
        if h < 1:
            raise TopologyError(f"dragonfly needs h >= 1 global ports, got {h}")
        max_groups = a * h + 1
        if groups is None:
            groups = max_groups
        if not 2 <= groups <= max_groups:
            raise TopologyError(
                f"dragonfly groups must be in [2, a*h+1] = [2, {max_groups}], "
                f"got {groups}"
            )
        self.a = a
        self.p = p
        self.h = h
        self.groups = groups
        self.num_nodes = groups * a
        # Local channels first: every ordered router pair within a group.
        for g in range(groups):
            base = g * a
            for i in range(a):
                for j in range(a):
                    if i != j:
                        self._add_link(base + i, base + j, 0, 0, local_latency)
        # Global channels: consecutive arrangement, one ordered link per
        # (group, offset); the reverse direction is added when the peer
        # group iterates its own offset groups - offset.
        for g in range(groups):
            for offset in range(1, groups):
                q = offset - 1  # global port index within the group
                src_router = q // h
                peer = (g + offset) % groups
                q_back = groups - 1 - offset
                dst_router = q_back // h
                self._add_link(
                    g * a + src_router,
                    peer * a + dst_router,
                    1,
                    0,
                    global_latency,
                )
        self._build_distance_table()

    # -- geometry ---------------------------------------------------------------
    def group_of(self, node: int) -> int:
        self._check_node(node)
        return node // self.a

    def global_links(self, node: int) -> list[PhysicalLink]:
        """Outgoing global (inter-group) channels of ``node``."""
        return [link for link in self.out_links(node) if link.dim == 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dragonfly(a={self.a}, p={self.p}, h={self.h}, "
            f"groups={self.groups})"
        )


class FullMesh(_TableGeometry):
    """A direct network: a dedicated channel between every ordered node pair.

    Every message can reach its destination in one hop, so minimal (direct)
    routing holds at most one virtual channel per message and is deadlock
    free without any virtual-channel discipline; misrouting through an
    intermediate node (see ``fm-2hop``) reintroduces hold-and-wait chains.
    """

    def __init__(self, num_nodes: int, *, latency: int = 1) -> None:
        super().__init__()
        if num_nodes < 2:
            raise TopologyError(f"full mesh needs >= 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        for src in range(num_nodes):
            for dst in range(num_nodes):
                if src != dst:
                    self._add_link(src, dst, 0, 0, latency)
        self._build_distance_table()

    @cached_property
    def average_internode_distance(self) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FullMesh(n={self.num_nodes})"
