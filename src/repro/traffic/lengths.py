"""Message-length distributions.

The paper's evaluation fixes message length at 32 flits; its future-work
section proposes studying *hybrid message lengths*.  This module supplies
length samplers: fixed (the paper's setting) and a discrete mix (e.g. 80%
short control packets + 20% long data messages, the classic bimodal
multicomputer workload).

A sampler is a callable ``(random.Random) -> int`` with a ``mean``
attribute; the generator uses the mean to normalize offered load so that a
given load level injects the same *flit* rate regardless of the mix.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["LengthSampler", "FixedLength", "LengthMix"]


class LengthSampler:
    """Base class: ``sampler(rng) -> int`` draws the flit length of each
    new message."""

    mean: float


class FixedLength(LengthSampler):
    """Every message has the same length (paper default)."""

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ConfigurationError(f"length must be >= 1, got {length}")
        self.length = length
        self.mean = float(length)

    def __call__(self, rng: random.Random) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedLength({self.length})"


class LengthMix(LengthSampler):
    """A discrete mixture of lengths, e.g. ``[(4, 0.8), (32, 0.2)]``."""

    def __init__(self, mix: Sequence[tuple[int, float]]) -> None:
        if not mix:
            raise ConfigurationError("length mix must be non-empty")
        for length, weight in mix:
            if length < 1:
                raise ConfigurationError(f"length must be >= 1, got {length}")
            if weight <= 0:
                raise ConfigurationError(f"weight must be > 0, got {weight}")
        total = sum(w for _, w in mix)
        self.lengths = [l for l, _ in mix]
        self.weights = [w / total for _, w in mix]
        self.cumulative = []
        acc = 0.0
        for w in self.weights:
            acc += w
            self.cumulative.append(acc)
        self.mean = sum(l * w for l, w in zip(self.lengths, self.weights))

    def __call__(self, rng: random.Random) -> int:
        x = rng.random()
        for length, edge in zip(self.lengths, self.cumulative):
            if x < edge:
                return length
        return self.lengths[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LengthMix({list(zip(self.lengths, self.weights))})"
