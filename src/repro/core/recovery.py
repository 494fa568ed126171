"""Deadlock recovery policies.

The paper breaks each detected deadlock "by removing a message in the
deadlock set (flit-by-flit) from the network so as to synthesize a recovery
procedure (as in the Disha scheme [5])".  In Disha the victim message is not
lost — it is delivered to its destination over a dedicated deadlock-free
recovery lane — so the default policy counts the victim as delivered.

Removing a single victim may leave a residual knot in a multi-cycle
deadlock; the detector's next invocation (every ``detection_interval``
cycles) resolves the remainder, exactly as in the paper's methodology.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.message import Message

__all__ = [
    "RecoveryPolicy",
    "DishaRecovery",
    "AbortAllRecovery",
    "NoRecovery",
    "make_recovery",
]


class RecoveryPolicy:
    """Chooses which deadlock-set messages to remove, and how.

    Subclasses implement ``victims(deadlock_set) -> list[Message]``,
    the messages to remove for one detected knot.
    """

    name = "base"
    #: recovered messages reach their destination (Disha semantics)?
    delivers_victim = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DishaRecovery(RecoveryPolicy):
    """Remove one victim per knot; the victim is delivered via recovery lane.

    Victim selection follows Disha's progressive recovery intuition: the
    message that has been blocked the longest (i.e. the "most deadlocked")
    claims the recovery resource.  Ties break deterministically by id.
    """

    name = "disha"
    delivers_victim = True

    def victims(self, deadlock_set: Sequence["Message"]) -> list["Message"]:
        def key(m: "Message") -> tuple[int, int]:
            since = m.blocked_since if m.blocked_since is not None else 1 << 60
            return (since, m.id)

        return [min(deadlock_set, key=key)]


class AbortAllRecovery(RecoveryPolicy):
    """Remove every message in the deadlock set (regressive recovery).

    Models compressionless-routing-style regressive recovery [4]: victims
    are killed and must be reinjected, so they do not count as delivered.
    """

    name = "abort-all"
    delivers_victim = False

    def victims(self, deadlock_set: Sequence["Message"]) -> list["Message"]:
        return list(deadlock_set)


class NoRecovery(RecoveryPolicy):
    """Detect but never break deadlocks.

    Used to study deadlock persistence and to validate that an unresolved
    knot remains a knot (deadlocked messages never progress).
    """

    name = "none"
    delivers_victim = False

    def victims(self, deadlock_set: Sequence["Message"]) -> list["Message"]:
        return []


_POLICIES = {cls.name: cls for cls in (DishaRecovery, AbortAllRecovery, NoRecovery)}


def make_recovery(name: str) -> RecoveryPolicy:
    """Instantiate a recovery policy by its short name."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
