"""Synthetic traffic patterns.

The paper evaluates uniform traffic by default and reports (Section 3.6)
that bit-reversal, matrix-transpose, perfect-shuffle and hot-spot loads give
similar deadlock behaviour — except for DOR under permutations whose
source/destination structure rules out the circular overlap single-cycle
deadlocks require.

Every pattern maps a source node to a destination; ``None`` means the source
generates no traffic under this pattern (self-addressed pairs in
permutations).  Bit-oriented permutations require a power-of-two node count.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.network.draws import Draws
from repro.network.topology import KAryNCube, Topology

__all__ = [
    "TrafficPattern",
    "UniformTraffic",
    "BitReversalTraffic",
    "TransposeTraffic",
    "PerfectShuffleTraffic",
    "BitComplementTraffic",
    "TornadoTraffic",
    "HotSpotTraffic",
    "HybridTraffic",
    "make_pattern",
]


class TrafficPattern:
    """Maps a source node to the destination of its next message.

    Subclasses implement ``dest_for(src, draws) -> int | None`` (``None``:
    this source sends nothing, e.g. a fixed point of a permutation).
    """

    name = "base"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    # -- helpers -----------------------------------------------------------------
    def _require_power_of_two(self) -> int:
        n = self.topology.num_nodes
        if n & (n - 1):
            raise ConfigurationError(
                f"{self.name} traffic requires a power-of-two node count, got {n}"
            )
        return n.bit_length() - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class UniformTraffic(TrafficPattern):
    """Each message targets a uniformly random node other than its source."""

    name = "uniform"

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        n = self.topology.num_nodes
        dest = draws.below(n - 1)
        return dest + 1 if dest >= src else dest


class BitReversalTraffic(TrafficPattern):
    """dest = bit-reversal of src (a fixed permutation)."""

    name = "bit-reversal"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        bits = self._require_power_of_two()
        self._map = [
            int(format(src, f"0{bits}b")[::-1], 2) if bits else src
            for src in range(topology.num_nodes)
        ]

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        dest = self._map[src]
        return None if dest == src else dest


class TransposeTraffic(TrafficPattern):
    """Matrix transpose: swap the high and low halves of the address bits.

    On a square 2-D torus this is exactly the (x, y) -> (y, x) coordinate
    transpose.
    """

    name = "transpose"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        bits = self._require_power_of_two()
        if bits % 2:
            raise ConfigurationError(
                "transpose traffic requires an even number of address bits"
            )
        half = bits // 2
        mask = (1 << half) - 1
        self._map = [
            ((src & mask) << half) | (src >> half)
            for src in range(topology.num_nodes)
        ]

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        dest = self._map[src]
        return None if dest == src else dest


class PerfectShuffleTraffic(TrafficPattern):
    """Perfect shuffle: rotate the address bits left by one."""

    name = "perfect-shuffle"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        bits = self._require_power_of_two()
        self._map = [
            ((src << 1) | (src >> (bits - 1))) & (topology.num_nodes - 1)
            if bits
            else src
            for src in range(topology.num_nodes)
        ]

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        dest = self._map[src]
        return None if dest == src else dest


class BitComplementTraffic(TrafficPattern):
    """dest = bitwise complement of src."""

    name = "bit-complement"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._require_power_of_two()

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        dest = (self.topology.num_nodes - 1) ^ src
        return None if dest == src else dest


class TornadoTraffic(TrafficPattern):
    """Each message travels half-way around every dimension.

    Maximally stresses wraparound links; only defined for the k-ary
    n-cube family (mixed-radix tori shift half-way around each ring).
    """

    name = "tornado"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        if not isinstance(topology, KAryNCube):
            raise ConfigurationError("tornado traffic requires a k-ary n-cube")

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        topo = self.topology
        assert isinstance(topo, KAryNCube)
        coords = [
            (c + max(1, (kd - 1) // 2)) % kd
            for c, kd in zip(topo.coords(src), topo.dims)
        ]
        dest = topo.node_at(coords)
        return None if dest == src else dest


class HotSpotTraffic(TrafficPattern):
    """Uniform traffic with a fraction diverted to a single hot-spot node."""

    name = "hot-spot"

    def __init__(
        self,
        topology: Topology,
        hotspot: Optional[int] = None,
        fraction: float = 0.1,
    ) -> None:
        super().__init__(topology)
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"hot-spot fraction must be in (0, 1], got {fraction}"
            )
        self.hotspot = (
            hotspot if hotspot is not None else topology.num_nodes // 2
        )
        if not 0 <= self.hotspot < topology.num_nodes:
            raise ConfigurationError(f"hot-spot node {self.hotspot} out of range")
        self.fraction = fraction
        self._split = (fraction, 1.0)  # categorical 0: the hot spot
        self._uniform = UniformTraffic(topology)

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        if draws.categorical(self._split) == 0 and src != self.hotspot:
            return self.hotspot
        return self._uniform.dest_for(src, draws)


class HybridTraffic(TrafficPattern):
    """A weighted mixture of other patterns (paper future work: "hybrid
    non-uniform traffic loads").

    Each generated message independently draws which component pattern
    supplies its destination, e.g. 70% uniform + 30% transpose.
    """

    name = "hybrid"

    def __init__(
        self,
        topology: Topology,
        components: Optional[list[tuple["TrafficPattern | str", float]]] = None,
    ) -> None:
        super().__init__(topology)
        if not components:
            raise ConfigurationError("hybrid traffic requires components")
        self.components: list[TrafficPattern] = []
        weights: list[float] = []
        for pattern, weight in components:
            if weight <= 0:
                raise ConfigurationError(f"weight must be > 0, got {weight}")
            if isinstance(pattern, str):
                pattern = make_pattern(pattern, topology)
            if isinstance(pattern, HybridTraffic):
                raise ConfigurationError("hybrid patterns cannot nest")
            self.components.append(pattern)
            weights.append(weight)
        total = sum(weights)
        self.cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)

    def dest_for(self, src: int, draws: Draws) -> Optional[int]:
        pattern = self.components[draws.categorical(self.cumulative)]
        return pattern.dest_for(src, draws)


_PATTERNS = {
    cls.name: cls
    for cls in (
        UniformTraffic,
        BitReversalTraffic,
        TransposeTraffic,
        PerfectShuffleTraffic,
        BitComplementTraffic,
        TornadoTraffic,
        HotSpotTraffic,
        HybridTraffic,
    )
}


def make_pattern(name: str, topology: Topology, **kwargs) -> TrafficPattern:
    """Instantiate a traffic pattern by name."""
    try:
        cls = _PATTERNS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown traffic pattern {name!r}; choose from {sorted(_PATTERNS)}"
        ) from None
    return cls(topology, **kwargs)
