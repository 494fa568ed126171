"""The one seam every random draw of a simulation goes through.

A draw source has five methods: ``bernoulli(p, n)`` lazily yields each
``i < n`` whose Bernoulli(p) trial hits, so the caller can draw between
two hits; ``below(n)`` is uniform in ``[0, n)``, ``n >= 1``;
``categorical(cumulative)`` is the index of the first cumulative weight
above one uniform draw (the last when rounding leaves none);
``permute(seq)`` shuffles a list in place; ``permute_unread(n)`` makes the
draws of permuting an ``n``-long list nobody reads.

The engine class picks the source, never a config field: the reference
engine draws through :class:`Draws`, CPython's own ``random.Random``
methods; the production engine through :class:`FastDraws`, the same word
stream straight from ``getrandbits``; the model-checking oracle swaps in a
scripted source (:class:`repro.validation.statespace.ScriptedDraws`).
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

__all__ = ["Draws", "FastDraws"]


class Draws:
    """Draws through ``random.Random``'s own methods (the reference)."""

    __slots__ = ("rng",)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def bernoulli(self, p: float, n: int) -> Iterator[int]:
        draw = self.rng.random
        for i in range(n):
            if draw() < p:
                yield i

    def below(self, n: int) -> int:
        return self.rng.randrange(n)

    def categorical(self, cumulative: Sequence[float]) -> int:
        x = self.rng.random()
        for i, edge in enumerate(cumulative):
            if x < edge:
                return i
        return len(cumulative) - 1

    def permute(self, seq: list) -> None:
        self.rng.shuffle(seq)

    def permute_unread(self, n: int) -> None:
        self.permute([None] * n)


class FastDraws(Draws):
    """:class:`Draws`' word stream straight from ``getrandbits``.

    :meth:`below` is ``Random._randbelow``'s rejection loop (its ``n == 1``
    case still consumes words until a zero arrives); :meth:`permute` is
    ``shuffle``'s Fisher–Yates over it with the per-step ``bit_length``
    hoisted; :meth:`permute_unread` is that walk without the swaps.
    """

    __slots__ = ("_getrandbits",)

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self._getrandbits = rng.getrandbits

    def below(self, n: int) -> int:
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def permute(self, x: list) -> None:
        hi = len(x)
        k = hi.bit_length()
        getrandbits = self._getrandbits
        # k == m.bit_length() for every threshold m in n..2, so the descent
        # runs per constant-k block with range supplying the thresholds;
        # hi > 1 forces k >= 2, so the range never passes m == 2
        while hi > 1:
            lo = 1 << (k - 1)
            for m in range(hi, lo - 1, -1):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                i = m - 1
                x[i], x[r] = x[r], x[i]
            hi = lo - 1
            k -= 1

    def permute_unread(self, n: int) -> None:
        hi = n
        k = n.bit_length()
        getrandbits = self._getrandbits
        while hi > 1:
            lo = 1 << (k - 1)
            for m in range(hi, lo - 1, -1):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
            hi = lo - 1
            k -= 1
