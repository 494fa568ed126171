"""Messages: the unit of communication, pipelined flit-by-flit.

A message of ``length`` flits occupies a *chain* of virtual channels from
its tail to its head.  We exploit exclusive VC ownership to avoid per-flit
objects entirely: the flits a message holds in a VC's edge buffer are exactly
that VC's ``occupancy``, and the header flit is always the leading flit of
the chain.  A message therefore carries only:

* ``at_source``  — flits not yet injected (the source-queue stage),
* ``vcs``        — the owned VC chain in acquisition order (tail .. head),
* ``ejected``    — flits already consumed at the destination.

Conservation invariant::

    at_source + sum(vc.occupancy for vc in vcs) + ejected == length
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import SimulationError
from repro.network.channels import ReceptionChannel, VirtualChannel

__all__ = ["MessageStatus", "Message"]


class MessageStatus(enum.Enum):
    QUEUED = "queued"  # waiting in the source queue, owns nothing
    ACTIVE = "active"  # owns at least one network resource
    DELIVERED = "delivered"  # every flit consumed at the destination
    RECOVERED = "recovered"  # removed from the network by deadlock recovery
    ABORTED = "aborted"  # removed by a non-delivering recovery policy


class Message:
    """A single message in flight (or queued / completed)."""

    __slots__ = (
        "id",
        "src",
        "dest",
        "length",
        "created_cycle",
        "injected_cycle",
        "completed_cycle",
        "status",
        "at_source",
        "vcs",
        "ejected",
        "reception",
        "deadlock_count",
        "blocked_since",
        "recovering",
        "head_arrival",
        "routable",
        "stalled",
        "immobile",
        "steady",
        "wait_keys",
    )

    def __init__(
        self, message_id: int, src: int, dest: int, length: int, created_cycle: int
    ) -> None:
        if length < 1:
            raise SimulationError(f"message length must be >= 1, got {length}")
        if src == dest:
            raise SimulationError("self-addressed messages are not modelled")
        self.id = message_id
        self.src = src
        self.dest = dest
        self.length = length
        self.created_cycle = created_cycle
        self.injected_cycle: Optional[int] = None  # first flit entered network
        self.completed_cycle: Optional[int] = None
        self.status = MessageStatus.QUEUED
        self.at_source = length
        self.vcs: list[VirtualChannel] = []
        self.ejected = 0
        self.reception: Optional[ReceptionChannel] = None
        self.deadlock_count = 0  # how many detected deadlocks this message joined
        self.blocked_since: Optional[int] = None  # cycle the header last blocked
        self.recovering = False  # being torn out of the network flit-by-flit
        self.head_arrival: Optional[int] = None  # cycle header entered newest VC
        # -- engine fast-path activity flags (maintained by the simulator) --
        # ``routable`` mirrors NetworkSimulator.routing_eligible at phase
        # boundaries; ``stalled`` marks a blocked header none of whose awaited
        # resources has freed since its last failed allocation attempt;
        # ``immobile`` marks a fully-compressed worm that provably cannot
        # move a flit until it acquires a new resource; ``steady`` marks a
        # draining worm whose every owned VC holds a flit, so each move pass
        # only ejects a flit and drains the tail end; ``wait_keys`` lists
        # the resource keys this message is registered as waiting on.
        self.routable = False
        self.stalled = False
        self.immobile = False
        self.steady = False
        self.wait_keys: Optional[tuple] = None

    # -- position & status queries ------------------------------------------------
    @property
    def is_done(self) -> bool:
        return self.status in (
            MessageStatus.DELIVERED,
            MessageStatus.RECOVERED,
            MessageStatus.ABORTED,
        )

    @property
    def head_node(self) -> int:
        """The router at which the header flit currently resides.

        If the header has not yet left the source queue this is the source
        node; otherwise it is the downstream node of the newest owned VC.
        """
        if not self.vcs:
            return self.src
        return self.vcs[-1].dst

    @property
    def header_in_newest_vc(self) -> bool:
        """True when the header flit has entered the newest owned VC's buffer.

        Routing for the next hop may only occur once the header has physically
        arrived at :attr:`head_node`.
        """
        return bool(self.vcs) and self.vcs[-1].occupancy > 0

    @property
    def is_draining(self) -> bool:
        return self.reception is not None

    @property
    def at_destination(self) -> bool:
        return self.header_in_newest_vc and self.vcs[-1].dst == self.dest

    @property
    def needs_next_vc(self) -> bool:
        """Header is ready to route and no onward resource is allocated yet."""
        if self.is_draining or self.is_done or self.recovering:
            return False
        if not self.vcs:
            return self.status is MessageStatus.QUEUED or self.at_source > 0
        return self.header_in_newest_vc and self.vcs[-1].dst != self.dest

    @property
    def needs_reception(self) -> bool:
        return self.at_destination and not self.is_draining and not self.recovering

    @property
    def flits_in_network(self) -> int:
        return sum(vc.occupancy for vc in self.vcs)

    def check_conservation(self) -> None:
        total = self.at_source + self.flits_in_network + self.ejected
        if total != self.length:
            raise SimulationError(
                f"message {self.id}: flit conservation violated "
                f"({self.at_source} + {self.flits_in_network} + {self.ejected} "
                f"!= {self.length})"
            )

    # -- resource transitions -------------------------------------------------------
    def acquire_vc(self, vc: VirtualChannel, cycle: int) -> None:
        """Take exclusive ownership of ``vc`` and append it to the chain."""
        vc.acquire(self.id)
        self.vcs.append(vc)
        self.blocked_since = None
        self.head_arrival = None  # header has not yet crossed into vc
        if self.status is MessageStatus.QUEUED:
            self.status = MessageStatus.ACTIVE
            self.injected_cycle = cycle

    def acquire_reception(self, rx: ReceptionChannel) -> None:
        rx.acquire(self.id)
        self.reception = rx
        self.blocked_since = None

    def release_drained_tail(self) -> list[VirtualChannel]:
        """Release the leading prefix of now-empty VCs at the tail end.

        A VC may be released once the tail flit has left it: all flits behind
        it are gone (``at_source == 0``) and its buffer is empty.  Interior
        bubbles (an empty VC with flits still upstream) are *not* released —
        the worm still needs them.  Returns the released VCs (oldest first)
        so the production engine can wake the messages waiting on them.
        """
        released: list[VirtualChannel] = []
        if self.at_source > 0:
            return released
        while self.vcs and self.vcs[0].occupancy == 0:
            # Never release the newest VC while the message is mid-route: the
            # header still needs it (occupancy 0 there means the header has
            # not yet crossed its link).
            if len(self.vcs) == 1 and not self.is_draining and self.ejected == 0:
                break
            vc = self.vcs.pop(0)
            vc.release(self.id)
            released.append(vc)
        return released

    def finish_delivery(self, cycle: int) -> None:
        if self.ejected != self.length:
            raise SimulationError(
                f"message {self.id} finishing with {self.ejected}/{self.length} flits"
            )
        if self.vcs:
            raise SimulationError(f"message {self.id} finishing while owning VCs")
        if self.reception is not None:
            self.reception.release(self.id)
            self.reception = None
        self.status = MessageStatus.DELIVERED
        self.completed_cycle = cycle

    def begin_teardown(self) -> None:
        """Start removing this message from the network flit-by-flit.

        Synthesizes Disha recovery faithfully: flits still at the source are
        discarded immediately (they never entered the network), in-flight
        flits drain out of the header end at one flit per cycle through the
        recovery lane, and owned VCs are released as the tail passes — so
        other blocked messages resume progressively, exactly as the paper's
        "removing a message (flit-by-flit) from the network" describes.
        """
        self.ejected += self.at_source  # source flits vanish instantly
        self.at_source = 0
        self.recovering = True
        self.blocked_since = None
        if self.reception is not None:
            self.reception.release(self.id)
            self.reception = None

    def teardown_step(self) -> int:
        """Drain one flit into the recovery lane; returns flits drained."""
        if not self.vcs:
            return 0
        head = self.vcs[-1]
        if head.occupancy == 0:
            return 0
        head.occupancy -= 1
        self.ejected += 1
        return 1

    @property
    def teardown_complete(self) -> bool:
        return self.recovering and self.ejected == self.length

    def remove_from_network(self, cycle: int, *, delivered: bool) -> None:
        """Tear the message out of the network flit-by-flit (recovery).

        Synthesizes the paper's Disha-style recovery: every owned VC is
        emptied and released, the reception channel (if held) is released,
        and the message is marked RECOVERED (Disha delivers the recovered
        message over its deadlock-free recovery lane) or ABORTED.
        """
        for vc in self.vcs:
            vc.occupancy = 0
            vc.release(self.id)
        self.vcs.clear()
        if self.reception is not None:
            self.reception.release(self.id)
            self.reception = None
        self.at_source = 0
        self.ejected = self.length
        self.status = MessageStatus.RECOVERED if delivered else MessageStatus.ABORTED
        self.completed_cycle = cycle

    @property
    def latency(self) -> Optional[int]:
        """Cycles from creation to completion, if completed."""
        if self.completed_cycle is None:
            return None
        return self.completed_cycle - self.created_cycle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(m{self.id}, {self.src}->{self.dest}, len={self.length}, "
            f"{self.status.value}, src={self.at_source}, "
            f"net={self.flits_in_network}, out={self.ejected})"
        )
