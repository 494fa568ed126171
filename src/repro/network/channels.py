"""Dynamic channel resources: virtual channels and consumption channels.

A physical channel carries one flit per cycle and multiplexes ``num_vcs``
virtual channels (VCs).  Each VC owns a FIFO *edge buffer* of configurable
depth at the downstream router (2 flits by default in the paper; a depth
equal to the message length yields virtual cut-through switching).

Messages acquire **exclusive ownership** of a VC before sending flits over
it and release it when their tail flit has drained out of its buffer — the
hold-and-wait discipline from which deadlock arises.

Two further resource types complete the router model:

* an **injection channel** per node (host -> router), modelled implicitly by
  the message's source stage, and
* a **reception channel** per node (router -> host), modelled explicitly by
  :class:`ReceptionChannel` since messages can block waiting for it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.network.topology import PhysicalLink, Topology

__all__ = ["VirtualChannel", "ReceptionChannel", "ChannelPool"]


class VirtualChannel:
    """One virtual channel of a physical link, with its edge buffer.

    Buffer contents are tracked as a flit *count* rather than per-flit
    objects: flits of a message are interchangeable and always drain in FIFO
    order, so the count plus the owning message's stage bookkeeping fully
    determines behaviour.  This keeps the flit-level inner loop cheap, per
    the HPC guidance of minimizing per-event allocation.
    """

    __slots__ = (
        "index",
        "link",
        "link_index",
        "vc_index",
        "capacity",
        "occupancy",
        "owner",
    )

    def __init__(
        self, index: int, link: PhysicalLink, vc_index: int, capacity: int
    ) -> None:
        self.index = index  # dense global id across the network
        self.link = link
        self.link_index = link.index  # denormalized for the movement hot loop
        self.vc_index = vc_index  # 0..num_vcs-1 within the physical link
        self.capacity = capacity
        self.occupancy = 0  # flits currently queued in the edge buffer
        self.owner: Optional[int] = None  # owning message id, or None if free

    @property
    def is_free(self) -> bool:
        return self.owner is None

    @property
    def src(self) -> int:
        return self.link.src

    @property
    def dst(self) -> int:
        return self.link.dst

    def acquire(self, message_id: int) -> None:
        if self.owner is not None:
            raise SimulationError(
                f"VC {self.index} already owned by message {self.owner}; "
                f"message {message_id} cannot acquire it"
            )
        self.owner = message_id

    def release(self, message_id: int) -> None:
        if self.owner != message_id:
            raise SimulationError(
                f"message {message_id} releasing VC {self.index} owned by {self.owner}"
            )
        if self.occupancy != 0:
            raise SimulationError(
                f"VC {self.index} released with {self.occupancy} flits buffered"
            )
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        own = "free" if self.owner is None else f"m{self.owner}"
        return (
            f"VC#{self.index}(link {self.link.src}->{self.link.dst}."
            f"{self.vc_index}, {self.occupancy}/{self.capacity}, {own})"
        )


class ReceptionChannel:
    """One reception (ejection) channel of a node.

    A message whose header has reached its destination must acquire the
    reception channel before draining; it holds it until its tail drains.
    The reception channel always makes progress (the consumption assumption),
    so it can never participate in a knot — but messages *waiting* for it do
    appear blocked, and their wait-for arcs are represented in the CWG.
    """

    __slots__ = ("node", "index", "owner")

    def __init__(self, node: int, index: int = 0) -> None:
        self.node = node
        self.index = index
        self.owner: Optional[int] = None

    @property
    def is_free(self) -> bool:
        return self.owner is None

    def acquire(self, message_id: int) -> None:
        if self.owner is not None:
            raise SimulationError(
                f"reception channel at node {self.node} already owned by "
                f"message {self.owner}"
            )
        self.owner = message_id

    def release(self, message_id: int) -> None:
        if self.owner != message_id:
            raise SimulationError(
                f"message {message_id} releasing reception channel owned by {self.owner}"
            )
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        own = "free" if self.owner is None else f"m{self.owner}"
        return f"RX@{self.node}.{self.index}({own})"


class ChannelPool:
    """All virtual channels and reception channels of a network instance."""

    def __init__(
        self,
        topology: Topology,
        num_vcs: int,
        buffer_depth: int,
        rx_channels: int = 1,
    ) -> None:
        if num_vcs < 1:
            raise SimulationError(f"num_vcs must be >= 1, got {num_vcs}")
        if buffer_depth < 1:
            raise SimulationError(f"buffer_depth must be >= 1, got {buffer_depth}")
        if rx_channels < 1:
            raise SimulationError(f"rx_channels must be >= 1, got {rx_channels}")
        self.topology = topology
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.rx_channels = rx_channels
        self.vcs: list[VirtualChannel] = []
        self._link_vcs: list[list[VirtualChannel]] = []
        for link in topology.links:
            group = [
                VirtualChannel(len(self.vcs) + i, link, i, buffer_depth)
                for i in range(num_vcs)
            ]
            self.vcs.extend(group)
            self._link_vcs.append(group)
        self.reception_groups: list[list[ReceptionChannel]] = [
            [ReceptionChannel(node, i) for i in range(rx_channels)]
            for node in range(topology.num_nodes)
        ]
        # CWG vertex keys of each node's reception channels, precomputed so
        # the engine and detector do not rebuild them on every blocked wait.
        self._rx_request_keys: list[list[tuple]] = [
            [("rx", node, i) for i in range(rx_channels)]
            for node in range(topology.num_nodes)
        ]

    @property
    def reception(self) -> list[ReceptionChannel]:
        """First reception channel per node (the common 1-channel view)."""
        return [group[0] for group in self.reception_groups]

    def free_reception(self, node: int) -> Optional[ReceptionChannel]:
        """A free reception channel at ``node``, if any."""
        for rx in self.reception_groups[node]:
            if rx.owner is None:
                return rx
        return None

    def reception_request_keys(self, node: int) -> list[tuple]:
        """CWG request targets for a message waiting on ``node``'s reception.

        The returned list is shared — callers must not mutate it.
        """
        return self._rx_request_keys[node]

    def vcs_of_link(self, link: PhysicalLink) -> list[VirtualChannel]:
        return self._link_vcs[link.index]

    def free_vcs_of_link(self, link: PhysicalLink) -> list[VirtualChannel]:
        return [vc for vc in self._link_vcs[link.index] if vc.is_free]

    @property
    def total_vcs(self) -> int:
        return len(self.vcs)

    def owned_vcs(self) -> list[VirtualChannel]:
        """All VCs currently owned by some message (CWG vertex set)."""
        return [vc for vc in self.vcs if vc.owner is not None]

    def assert_consistent(self) -> None:
        """Cheap structural sanity checks used by tests and debug runs."""
        for vc in self.vcs:
            if not 0 <= vc.occupancy <= vc.capacity:
                raise SimulationError(f"occupancy out of range on {vc!r}")
            if vc.owner is None and vc.occupancy != 0:
                raise SimulationError(f"unowned VC holds flits: {vc!r}")
