"""Traffic patterns and the message-generation process."""

from repro.traffic.injection import MessageGenerator
from repro.traffic.lengths import (
    FixedLength,
    LengthMix,
    LengthSampler,
)
from repro.traffic.patterns import (
    BitComplementTraffic,
    BitReversalTraffic,
    HotSpotTraffic,
    HybridTraffic,
    PerfectShuffleTraffic,
    TornadoTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
)

__all__ = [
    "MessageGenerator",
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
    "LengthSampler",
    "FixedLength",
    "LengthMix",
]
