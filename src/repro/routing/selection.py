"""Channel-selection policies.

The routing function supplies a *set* of legal output VCs; the selection
policy picks one among those currently free.  The paper's default "favors
continuing routing in the current dimension over turning"
(:class:`StraightThroughFirst`).  Alternatives are provided for ablation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.network.channels import VirtualChannel
from repro.network.draws import Draws
from repro.network.message import Message

__all__ = [
    "SelectionPolicy",
    "StraightThroughFirst",
    "RandomSelection",
    "LowestIndexFirst",
    "make_selection",
]


class SelectionPolicy:
    """Chooses one free VC from a routing candidate list.

    Subclasses implement ``choose(message, free, draws) -> VirtualChannel |
    None`` over the list ``free`` of the candidates now free (None when it
    is empty).
    """

    name = "base"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class StraightThroughFirst(SelectionPolicy):
    """Prefer a VC that continues in the message's current dimension.

    Among same-preference VCs, ties are broken uniformly at random so that
    physical channels are load-balanced.  Messages not yet in the network
    have no current dimension and fall back to a random choice.
    """

    name = "straight"

    def choose(
        self,
        message: Message,
        free: Sequence[VirtualChannel],
        draws: Draws,
    ) -> Optional[VirtualChannel]:
        if not free:
            return None
        if message.vcs:
            dim = message.vcs[-1].link.dim
            straight = [vc for vc in free if vc.link.dim == dim]
            if straight:
                return straight[draws.below(len(straight))]
        return free[draws.below(len(free))]


class RandomSelection(SelectionPolicy):
    """Uniformly random choice among free candidates."""

    name = "random"

    def choose(
        self,
        message: Message,
        free: Sequence[VirtualChannel],
        draws: Draws,
    ) -> Optional[VirtualChannel]:
        return free[draws.below(len(free))] if free else None


class LowestIndexFirst(SelectionPolicy):
    """Deterministic choice: lowest global VC index.  Useful in tests."""

    name = "lowest"

    def choose(
        self,
        message: Message,
        free: Sequence[VirtualChannel],
        draws: Draws,
    ) -> Optional[VirtualChannel]:
        return min(free, key=lambda vc: vc.index) if free else None


_POLICIES = {
    cls.name: cls
    for cls in (StraightThroughFirst, RandomSelection, LowestIndexFirst)
}


def make_selection(name: str) -> SelectionPolicy:
    """Instantiate a selection policy by its short name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown selection policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
