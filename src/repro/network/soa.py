"""Structure-of-arrays mirrors of the live network state.

:class:`SoAState` keeps index-mapped array mirrors of the object-model
state the kernel engine (:mod:`repro.network.kernels`) works over:

* **per-VC columns** — ``vc_owner`` (owning message id, -1 free) and
  ``vc_occupancy`` (buffered flits), parallel to the static columns of
  :meth:`~repro.network.channels.ChannelPool.static_arrays`;
* **per-reception-channel column** — ``rx_owner``, flat-indexed
  ``node * rx_channels + index``;
* **per-message rows** — a dense slot table holding message id, flit
  position counters (``at_source`` / ``ejected``; in-network flits are the
  difference from ``length``), head/tail channel indices of the owned VC
  chain, and the engine activity flags (``routable`` / ``stalled`` /
  ``immobile`` / ``blocked``).

Slots are recycled through a LIFO free list when messages leave the system
(delivery, recovery, abort) — victim removal compacts into the free list
rather than shifting rows, so ``Message.slot`` stays stable for a
message's whole lifetime.  The table grows geometrically.

The mirrors are *push*-maintained: the engine updates them inline at every
state transition (the columns for the highest-frequency counters are plain
Python lists, which take scalar stores ~3x faster than numpy arrays; the
transition-level columns are numpy arrays directly).  :meth:`as_arrays`
exposes everything uniformly as numpy arrays, and :meth:`verify`
cross-checks every mirror against the object model — randomized property
tests (``tests/properties/test_soa_mirrors.py``) and
``check_invariants`` runs drive it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.simulator import NetworkSimulator

__all__ = ["SoAState"]

_GROW = 2  # geometric slot-table growth factor


class SoAState:
    """Index-mapped array mirrors of channels, receptions and messages."""

    def __init__(self, pool: "ChannelPool", capacity: int = 256) -> None:
        self.pool = pool
        num_vcs = len(pool.vcs)
        self.rx_channels = pool.rx_channels
        # -- per-VC columns (owner transitions are numpy; the occupancy
        # counter mutates on every flit hop, so it stays a Python list) --
        self.vc_owner = np.full(num_vcs, -1, dtype=np.int64)
        self.vc_occupancy: list[int] = [0] * num_vcs
        self.static = pool.static_arrays()
        # -- per-reception-channel column ---------------------------------
        num_rx = len(pool.reception_groups) * pool.rx_channels
        self.rx_owner = np.full(num_rx, -1, dtype=np.int64)
        # -- per-message slot table ---------------------------------------
        n = max(capacity, 16)
        self.msg_id = np.full(n, -1, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int32)
        self.head_vc = np.full(n, -1, dtype=np.int32)
        self.tail_vc = np.full(n, -1, dtype=np.int32)
        self.routable = np.zeros(n, dtype=np.uint8)
        self.stalled = np.zeros(n, dtype=np.uint8)
        self.immobile = np.zeros(n, dtype=np.uint8)
        self.blocked = np.zeros(n, dtype=np.uint8)
        self.live = np.zeros(n, dtype=np.uint8)
        self.at_source: list[int] = [0] * n
        self.ejected: list[int] = [0] * n
        self.slot_msgs: list[Optional["Message"]] = [None] * n
        self._free: list[int] = list(range(n - 1, -1, -1))  # LIFO, 0 first
        self.slots_recycled = 0  #: total slots returned to the free list
        self.high_water = 0  #: max simultaneously-live slots

    # -- slot allocation ------------------------------------------------------------
    def _grow(self) -> None:
        old = len(self.slot_msgs)
        new = old * _GROW

        def ext(arr, fill):
            out = np.full(new, fill, dtype=arr.dtype)
            out[:old] = arr
            return out

        self.msg_id = ext(self.msg_id, -1)
        self.length = ext(self.length, 0)
        self.head_vc = ext(self.head_vc, -1)
        self.tail_vc = ext(self.tail_vc, -1)
        self.routable = ext(self.routable, 0)
        self.stalled = ext(self.stalled, 0)
        self.immobile = ext(self.immobile, 0)
        self.blocked = ext(self.blocked, 0)
        self.live = ext(self.live, 0)
        self.at_source.extend([0] * (new - old))
        self.ejected.extend([0] * (new - old))
        self.slot_msgs.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def on_created(self, msg: "Message") -> None:
        """Assign a slot to a newly generated (source-queued) message."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        msg.slot = slot
        self.slot_msgs[slot] = msg
        self.msg_id[slot] = msg.id
        self.length[slot] = msg.length
        self.at_source[slot] = msg.length
        self.ejected[slot] = 0
        self.head_vc[slot] = -1
        self.tail_vc[slot] = -1
        self.routable[slot] = 0
        self.stalled[slot] = 0
        self.immobile[slot] = 0
        self.blocked[slot] = 0
        self.live[slot] = 1
        used = len(self.slot_msgs) - len(self._free)
        if used > self.high_water:
            self.high_water = used

    def on_done(self, msg: "Message", owned: tuple = ()) -> None:
        """Recycle a completed/recovered message's slot.

        ``owned`` carries the VC indices the message still held when an
        instant teardown released them (their mirrors are cleared here);
        normal delivery releases VCs one by one through
        :meth:`on_released` first, so it passes nothing.
        """
        slot = msg.slot
        if slot is None:
            return
        for idx in owned:
            self.vc_owner[idx] = -1
            self.vc_occupancy[idx] = 0
        msg.slot = None
        self.slot_msgs[slot] = None
        self.msg_id[slot] = -1
        self.head_vc[slot] = -1
        self.tail_vc[slot] = -1
        self.routable[slot] = 0
        self.stalled[slot] = 0
        self.immobile[slot] = 0
        self.blocked[slot] = 0
        self.live[slot] = 0
        self._free.append(slot)
        self.slots_recycled += 1

    # -- transition mirrors ---------------------------------------------------------
    def on_acquired_vc(self, msg: "Message", vc_index: int) -> None:
        slot = msg.slot
        self.vc_owner[vc_index] = msg.id
        self.head_vc[slot] = vc_index
        if self.tail_vc[slot] < 0:
            self.tail_vc[slot] = vc_index

    def on_released(self, msg: "Message", released_indices) -> None:
        """Tail VCs drained and released; recompute the chain's tail end."""
        for idx in released_indices:
            self.vc_owner[idx] = -1
        slot = msg.slot
        vcs = msg.vcs
        if vcs:
            self.tail_vc[slot] = vcs[0].index
        else:
            self.tail_vc[slot] = -1
            self.head_vc[slot] = -1

    def sync_message(self, msg: "Message") -> None:
        """Re-derive one slot row from the object model (recovery paths).

        Victim teardown mutates several fields at once (source flits
        discarded, reception released, flags cleared); recoveries are rare
        enough that an O(chain) resync beats threading per-field updates
        through the recovery code.
        """
        slot = msg.slot
        if slot is None:
            return
        self.at_source[slot] = msg.at_source
        self.ejected[slot] = msg.ejected
        vcs = msg.vcs
        self.head_vc[slot] = vcs[-1].index if vcs else -1
        self.tail_vc[slot] = vcs[0].index if vcs else -1
        for vc in vcs:
            self.vc_occupancy[vc.index] = vc.occupancy
        self.routable[slot] = 1 if msg.routable else 0
        self.stalled[slot] = 1 if msg.stalled else 0
        self.immobile[slot] = 1 if msg.immobile else 0
        self.blocked[slot] = 1 if msg.blocked_since is not None else 0

    def rx_index(self, node: int, index: int) -> int:
        return node * self.rx_channels + index

    # -- uniform numpy views ----------------------------------------------------------
    def as_arrays(self) -> dict[str, np.ndarray]:
        """Every mirror as a numpy array (list-backed columns are copied)."""
        return {
            "vc_owner": self.vc_owner,
            "vc_occupancy": np.array(self.vc_occupancy, dtype=np.int32),
            "vc_capacity": self.static["capacity"],
            "rx_owner": self.rx_owner,
            "msg_id": self.msg_id,
            "length": self.length,
            "at_source": np.array(self.at_source, dtype=np.int32),
            "ejected": np.array(self.ejected, dtype=np.int32),
            "head_vc": self.head_vc,
            "tail_vc": self.tail_vc,
            "routable": self.routable,
            "stalled": self.stalled,
            "immobile": self.immobile,
            "blocked": self.blocked,
            "live": self.live,
        }

    # -- cross-checks ------------------------------------------------------------------
    def verify(self, sim: "NetworkSimulator") -> None:
        """Assert every mirror equals the object model it shadows."""
        pool = self.pool
        for vc in pool.vcs:
            owner = -1 if vc.owner is None else vc.owner
            if int(self.vc_owner[vc.index]) != owner:
                raise SimulationError(
                    f"SoA vc_owner[{vc.index}]={int(self.vc_owner[vc.index])} "
                    f"but VC owner is {vc.owner}"
                )
            if self.vc_occupancy[vc.index] != vc.occupancy:
                raise SimulationError(
                    f"SoA vc_occupancy[{vc.index}]={self.vc_occupancy[vc.index]} "
                    f"but VC holds {vc.occupancy}"
                )
        for group in pool.reception_groups:
            for rx in group:
                flat = self.rx_index(rx.node, rx.index)
                owner = -1 if rx.owner is None else rx.owner
                if int(self.rx_owner[flat]) != owner:
                    raise SimulationError(
                        f"SoA rx_owner[{flat}] diverges at node "
                        f"{rx.node}.{rx.index}: "
                        f"{int(self.rx_owner[flat])} != {rx.owner}"
                    )
        seen_slots: set[int] = set()
        for msg in sim._live.values():
            slot = msg.slot
            if slot is None:
                raise SimulationError(f"live message {msg.id} has no SoA slot")
            if slot in seen_slots:
                raise SimulationError(f"slot {slot} assigned twice")
            seen_slots.add(slot)
            if self.slot_msgs[slot] is not msg:
                raise SimulationError(
                    f"slot_msgs[{slot}] does not point back at message {msg.id}"
                )
            row = {
                "msg_id": (int(self.msg_id[slot]), msg.id),
                "length": (int(self.length[slot]), msg.length),
                "at_source": (self.at_source[slot], msg.at_source),
                "ejected": (self.ejected[slot], msg.ejected),
                "head_vc": (
                    int(self.head_vc[slot]),
                    msg.vcs[-1].index if msg.vcs else -1,
                ),
                "tail_vc": (
                    int(self.tail_vc[slot]),
                    msg.vcs[0].index if msg.vcs else -1,
                ),
                "routable": (int(self.routable[slot]), int(msg.routable)),
                "stalled": (int(self.stalled[slot]), int(msg.stalled)),
                "immobile": (int(self.immobile[slot]), int(msg.immobile)),
                "blocked": (
                    int(self.blocked[slot]),
                    int(msg.blocked_since is not None),
                ),
                "live": (int(self.live[slot]), 1),
            }
            for name, (mirror, truth) in row.items():
                if mirror != truth:
                    raise SimulationError(
                        f"SoA {name}[{slot}] (message {msg.id}): "
                        f"mirror {mirror} != object {truth}"
                    )
        for slot in range(len(self.slot_msgs)):
            if slot not in seen_slots:
                if self.live[slot]:
                    raise SimulationError(
                        f"slot {slot} live without a backing message"
                    )
        n_free = len(self._free)
        if n_free + len(seen_slots) != len(self.slot_msgs):
            raise SimulationError(
                f"slot accounting: {n_free} free + {len(seen_slots)} live "
                f"!= {len(self.slot_msgs)} total"
            )
