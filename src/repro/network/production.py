"""The production engine: activity-tracked hot loops on every topology.

:class:`ProductionEngine` is what ``NetworkSimulator(config)`` builds by
default (``engine_fast_path=True``).  It replaces the reference engine's
per-cycle full rescans with live activity state maintained at resource
transitions, and draws through :class:`~repro.network.draws.FastDraws`,
the reference's word stream made straight from the C-backed
``Random.getrandbits``:

* every message carries a ``routable`` flag mirroring
  :meth:`routing_eligible`, updated when its header crosses into a new VC,
  when it acquires a resource, and when recovery touches it — the
  allocation phase builds its request list from the flag instead of
  re-deriving eligibility per message per cycle;
* a blocked header registers its candidate set — a pure function of the
  relation's ``cache_key`` — in a *wake index* (resource key → waiting
  message ids) and is marked ``stalled``; its allocation attempt is
  skipped entirely until one of the awaited resources is released, which
  provably cannot change the outcome (an all-owned candidate set yields no
  free VC and consumes no RNG).  A *queue head* whose candidate VCs are
  all owned parks the same way — ``blocked_since`` and the waiting set
  stay untouched, since those belong to active messages and the reference
  engine never sets them for queued heads;
* a fully-compressed worm (every owned edge buffer full, header blocked)
  is marked ``immobile`` and skipped by the movement phase until it
  acquires a new resource — no flit of such a worm can move;
* a draining, non-recovering worm whose move pass leaves a flit in every
  owned VC is marked ``steady``, on a pool with one VC per physical link
  and uniform unit link latency only (``_steady_pool``).  There no other
  worm can take one of its links and no link is busy past the cycle, so
  every later pass ejects one flit at the head and moves one flit across
  every boundary: each VC keeps its count except the tail VC, which
  refills from the source or, once the source is empty, loses a flit and
  is released when it empties.  The move phase applies exactly that in
  O(1) — no hop loop, and no ``link_used`` marks, which only the owner of
  a link's single VC would read — at the worm's place in the service
  order, so the draws and the delivery order stay the reference's.  A
  victim removal and :meth:`ProductionEngine.rebuild_activity` clear the
  flag; the other mobile worms take one boundary pass each, which calls
  ``release_drained_tail`` only when the tail VC is empty and the source
  drained;
* queue depths feed the traffic generator from maintained counters
  (``+1`` on append, ``-1`` on dequeue) instead of a per-cycle list
  comprehension, and the dequeue scan pops on ``at_source == 0`` alone —
  every completion path zeroes ``at_source``, making the ``is_done``
  check redundant;
* the serve loop reads the shared position-keyed candidate table
  (:class:`~repro.routing.batch.CandidateTable`) directly, whose entries
  carry the candidate indices as a ready-made tuple for wait-key
  registration, and calls the selection policy only when a candidate is
  free;
* two maintained facts skip a whole phase of a frozen network, the state
  a deadlocked run sits in between detections: ``_all_immobile`` (the last
  move pass skipped every worm; lowered by any acquisition or victim
  removal) returns from the move phase, and ``_alloc_quiet`` (the request
  count of the last allocate pass that served nothing; dropped by any
  move pass that runs, a victim removal or a message generated into an
  empty queue, ignored while a ``router_delay`` header is pending) from
  the allocate phase — each after replaying only the *ordering* side
  effects of the service list nobody would have read:
  ``draws.permute_unread`` (a function of the list length alone), one
  round-robin counter bump, nothing for oldest-first.

**Bit-identical by construction.**  Messages skipped by a flag are still
placed in the per-phase service-order lists, so arbitration makes the
same draws; every draw goes through the same seam as the reference's
(:mod:`repro.network.draws`), and ``FastDraws`` makes ``Draws``' words;
for a *routable* active message, ``needs_reception`` reduces to
``vcs[-1].dst == dest`` (the routable invariant rules out draining,
recovering and done states and guarantees the header has arrived), and a
queue head always takes the VC branch.  The loops never ask which draw
source they hold, so the oracle's scripted source enumerates this engine,
whole-phase skips included, after :meth:`ProductionEngine.rebuild_activity`
derives the activity state of a restored snapshot.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.faults import active_faults
from repro.network.draws import FastDraws
from repro.network.message import Message, MessageStatus
from repro.network.simulator import (
    _PHASE_ALLOC,
    _PHASE_MOVE,
    NetworkSimulator,
)
from repro.traffic.injection import MessageGenerator

__all__ = ["ProductionEngine"]

#: shared empty snapshot handed to generators that never read queue depths
_NO_QLENS: list[int] = []


class ProductionEngine(NetworkSimulator):
    """Activity-tracked default engine; see the module docstring."""

    draws_class = FastDraws

    def __init__(self, config: SimulationConfig) -> None:
        super().__init__(config)
        if not self.fast_path:
            raise ConfigurationError(
                f"{type(self).__name__} requires engine_fast_path=True"
            )
        # test-only fault injection (repro.faults), sampled once
        faults = active_faults()
        self._fault_skip_wake = "skip-wake" in faults
        self._fault_skip_immobile_clear = "skip-immobile-clear" in faults
        self._fault_skip_block_epoch = "skip-block-epoch" in faults
        # steady drains (module docstring) are exact only where no sibling
        # VC shares a link and no link is slow; the fault drops the gate
        self._steady_pool = "steady-drain-gap" in faults or (
            self.pool.num_vcs == 1 and self._link_free_at is None
        )
        self._waiting: dict[int, Message] = {}  # blocked_since set, by id
        self._wake_index: dict = {}  # resource key -> set of waiting ids
        self._delay_due: deque[tuple[int, Message]] = deque()  # router_delay
        self._arb_random = config.arbitration == "random"
        self._arb_rr = config.arbitration == "round-robin"
        # whole-phase skips (module docstring); -1 = allocate not quiet
        self._all_immobile = False
        self._alloc_quiet = -1
        # generate-phase qlens snapshot is only read by capped generators
        self._gen_needs_qlens = not (
            type(self.generator) is MessageGenerator
            and self.generator.max_queued_per_node is None
        )
        # maintained queue-depth snapshot: every read happens inside
        # generator.tick() before any queue mutation of the cycle, so a
        # live-maintained copy equals the reference's per-cycle listcomp
        self._qlens = [0] * len(self.queues)
        # cumulative activity counters (cheap ints, read by the tests and
        # booked by the observer): requests skipped stalled, worm-cycles
        # skipped immobile, taken as steady drains, and moved at all
        self.vec_stall_skips = 0
        self.vec_immobile_skips = 0
        self.vec_steady_drains = 0
        self.vec_mobile_cycles = 0

    # -- queries ------------------------------------------------------------------------
    def waiting_messages(self) -> Iterable[Message]:
        return self._waiting.values()

    def activity_counters(self) -> dict[str, int]:
        """Cumulative counts of the work the activity tracking skipped or
        shortened, and of the worm-cycles the move phase visited."""
        return {
            "stall_skips": self.vec_stall_skips,
            "immobile_skips": self.vec_immobile_skips,
            "steady_drains": self.vec_steady_drains,
            "mobile_worm_cycles": self.vec_mobile_cycles,
        }

    def _skip_order(self, n: int, phase: int) -> None:
        """The side effects of ordering an ``n``-long service list that no
        one will read: the permutation's draws, or the round-robin bump of
        a non-empty phase."""
        if self._arb_random:
            self.draws.permute_unread(n)
        elif n and self._arb_rr:
            self._rr_counters[phase] += 1

    def rebuild_activity(self) -> None:
        """Derive the activity state of a restored snapshot (the oracle's
        ``load_state``) from the object model, claiming nothing the next
        pass must prove: headers routable per :meth:`routing_eligible`, none
        stalled or keyed in the wake index, a worm immobile when every owned
        buffer is full and it is neither draining nor recovering, none
        steady, the allocate phase not quiet."""
        active = self.active.values()
        self._waiting = {m.id: m for m in active if m.blocked_since is not None}
        self._wake_index = {}
        self._delay_due.clear()
        self._qlens = [len(q) for q in self.queues]
        for msg in active:
            msg.routable = self.routing_eligible(msg)
            msg.stalled = False
            msg.wait_keys = None
            msg.immobile = bool(msg.vcs) and not (
                msg.is_draining or msg.recovering
            ) and all(vc.occupancy >= vc.capacity for vc in msg.vcs)
            msg.steady = False
        self._all_immobile = bool(active) and all(m.immobile for m in active)
        self._alloc_quiet = -1

    # -- activity bookkeeping ----------------------------------------------------------
    def _begin_wait(self, msg: Message, keys: tuple) -> None:
        """Record a failed allocation attempt in the activity state.

        The first failure at a position registers the awaited resource
        ``keys``; later failures find the registration already in place.
        The message is marked ``stalled`` and skipped by the allocation
        phase until one of them is released.
        """
        self._waiting[msg.id] = msg
        if msg.wait_keys is None:
            self._register_wait_keys(msg, keys)
        msg.stalled = True

    def _register_wait_keys(self, msg: Message, keys: tuple) -> None:
        msg.wait_keys = keys
        index = self._wake_index
        for key in keys:
            waiters = index.get(key)
            if waiters is None:
                index[key] = waiters = set()
            waiters.add(msg.id)

    def _end_wait(self, msg: Message) -> None:
        """Drop the message from the waiting set and the wake index."""
        self._waiting.pop(msg.id, None)
        self._drop_wait_keys(msg)

    def _drop_wait_keys(self, msg: Message) -> None:
        """Invalidate the stall registration (the message stays blocked).

        Used on its own when a blocked message's *tail* releases a VC: the
        chain length enters some relations' candidate keys (misrouting
        budgets), so the awaited set must be recomputed at the next attempt.
        """
        keys = msg.wait_keys
        if keys is not None:
            index = self._wake_index
            for key in keys:
                waiters = index.get(key)
                if waiters is not None:
                    waiters.discard(msg.id)
                    if not waiters:
                        del index[key]
            msg.wait_keys = None
        msg.stalled = False

    def _wake(self, key) -> None:
        """A resource was released: unstall every message waiting on it."""
        if self._fault_skip_wake:
            return
        waiters = self._wake_index.get(key)
        if waiters:
            live = self._live
            for mid in waiters:
                m = live.get(mid)
                if m is not None:
                    m.stalled = False

    def _release_due_headers(self) -> None:
        """Mark headers routable once their router pipeline delay is served."""
        due = self._delay_due
        cycle = self.cycle
        while due and due[0][0] <= cycle:
            _, msg = due.popleft()
            if (
                msg.is_done
                or msg.recovering
                or msg.is_draining
                or msg.head_arrival is None
            ):
                continue
            msg.routable = True

    def _remove_victim(self, victim: Message) -> None:
        owned = [vc.index for vc in victim.vcs]
        held_rx = victim.reception
        super()._remove_victim(victim)
        victim.routable = False
        victim.immobile = False
        victim.steady = False
        if not self._fault_skip_immobile_clear:
            self._all_immobile = False
        self._alloc_quiet = -1
        self._end_wait(victim)
        if victim.is_done:  # instant teardown released the whole chain
            for index in owned:
                self._wake(index)
        if held_rx is not None:
            self._wake(("rx", held_rx.node))

    # -- the hot phases ----------------------------------------------------------------
    def _phase_generate(self) -> None:
        qlens = self._qlens
        # an uncapped MessageGenerator never reads queue_lengths, so hand
        # it the shared empty snapshot instead of the maintained one
        snapshot = qlens if self._gen_needs_qlens else _NO_QLENS
        for msg in self.generator.tick(self.cycle, snapshot):
            q = self.queues[msg.src]
            if not q:
                self._alloc_quiet = -1  # a new queue head: a new request
            q.append(msg)
            qlens[msg.src] += 1
            self._live[msg.id] = msg
            self.stats.on_generated(self.cycle)

    def _phase_allocate(self) -> None:
        quiet = self._alloc_quiet
        if quiet >= 0 and not self._delay_due:
            # same requests as last pass, every one still parked: no pop,
            # no serve — only the ordering of the list would be observable
            self._skip_order(quiet, _PHASE_ALLOC)
            self.vec_stall_skips += quiet
            return
        queued = MessageStatus.QUEUED
        requests: list[Message] = []
        append = requests.append
        live_pop = self._live.pop
        qlens = self._qlens
        for q in self.queues:
            if not q:
                continue
            head = q[0]
            if head.status is queued:
                append(head)
                continue
            # done implies at_source == 0 (every completion path zeroes
            # it), so the cheap counter alone decides the pop and the
            # is_done property cascade runs only for popped messages
            while q and q[0].at_source == 0:
                done = q.popleft()
                qlens[done.src] -= 1
                if done.is_done:
                    live_pop(done.id, None)
            if q and q[0].status is queued:
                append(q[0])
        if self._delay_due:
            self._release_due_headers()
        for m in self.active.values():
            if m.routable:
                append(m)
        requests = self._service_order(requests, _PHASE_ALLOC)

        tracer = self._obs_tracer
        cycle = self.cycle
        pool = self.pool
        cand_table = self._cands.table
        cache_key = self.routing.cache_key
        lookup = self._cands.lookup
        choose = self.selection.choose
        draws = self.draws
        waiting_pop = self._waiting.pop
        # what an acquisition leaves in _all_immobile: False, unless the
        # skip-immobile-clear fault keeps a raised flag up
        still_immobile = self._fault_skip_immobile_clear and self._all_immobile
        skip_block_epoch = self._fault_skip_block_epoch
        serves = 0
        for msg in requests:
            if msg.stalled:
                # nothing this header waits on has freed since it last
                # failed: the attempt would fail identically (and consume
                # no RNG), so skip it
                continue
            serves += 1
            vcs = msg.vcs
            if vcs and vcs[-1].dst == msg.dest:
                # -- reception branch (routable active at destination) ----
                dest = msg.dest
                rx = pool.free_reception(dest)
                if rx is not None:
                    if tracer is not None and msg.blocked_since is not None:
                        tracer.instant("wake", msg=msg.id)
                    msg.acquire_reception(rx)
                    self.blocked_epoch += 1
                    msg.routable = False
                    msg.immobile = False
                    self._all_immobile = still_immobile
                    waiting_pop(msg.id, None)
                    if msg.wait_keys is not None:
                        self._drop_wait_keys(msg)
                else:
                    if msg.blocked_since is None:
                        msg.blocked_since = cycle
                        if not skip_block_epoch:
                            self.blocked_epoch += 1
                        if tracer is not None:
                            tracer.instant("block", msg=msg.id, node=dest)
                    self._begin_wait(msg, (("rx", dest),))
                continue
            # -- VC branch (routable active mid-route, or queue head) -----
            node = vcs[-1].dst if vcs else msg.src
            entry = cand_table.get(cache_key(msg, node))
            if entry is None:
                entry = lookup(msg, node)
            cands, idxs = entry
            free = [vc for vc in cands if vc.owner is None]
            choice = choose(msg, free, draws) if free else None
            if choice is not None:
                was_queued = msg.status is queued
                if tracer is not None and msg.blocked_since is not None:
                    tracer.instant("wake", msg=msg.id)
                msg.acquire_vc(choice, cycle)
                self.blocked_epoch += 1
                msg.routable = False
                msg.immobile = False
                self._all_immobile = still_immobile
                waiting_pop(msg.id, None)
                if msg.wait_keys is not None:
                    self._drop_wait_keys(msg)
                if was_queued:
                    self.active[msg.id] = msg
                    self.stats.on_injected(cycle)
            elif vcs:
                if msg.blocked_since is None:
                    msg.blocked_since = cycle
                    if not skip_block_epoch:
                        self.blocked_epoch += 1
                    if tracer is not None:
                        tracer.instant("block", msg=msg.id, node=node)
                self._begin_wait(msg, idxs)
            else:
                # Queue-head injection failed: every candidate VC at the
                # source is owned.  The attempt consumed no RNG and mutated
                # nothing, so it is skippable verbatim until one awaited VC
                # frees — register the head in the wake index only
                # (blocked_since and the waiting set stay untouched: those
                # are active-message state the reference never sets for
                # queue heads).
                if msg.wait_keys is None:
                    self._register_wait_keys(msg, idxs)
                msg.stalled = True
        self._alloc_quiet = -1 if serves else len(requests)
        self.vec_stall_skips += len(requests) - serves

    def _phase_move(self) -> None:
        if self._all_immobile:
            # no worm can move a flit, and active cannot have changed,
            # until an acquisition or a victim removal lowers the flag
            n = len(self.active)
            self._skip_order(n, _PHASE_MOVE)
            self.vec_immobile_skips += n
            return
        # the loop can set routable, release buffers and wake parked
        # headers: the next allocate pass must look again
        self._alloc_quiet = -1
        link_used = self._link_used
        link_used[:] = self._zero_links
        free_at = self._link_free_at  # None on uniform unit-latency topologies
        latency = self._link_latency
        cycle = self.cycle
        delay = self._router_delay
        steady_pool = self._steady_pool
        order = self._service_order(list(self.active.values()), _PHASE_MOVE)
        finished: list[Message] = []
        torn_down: list[Message] = []
        mobile = 0
        steady = 0
        for msg in order:
            if msg.immobile:
                # fully-compressed blocked worm: every owned buffer is full,
                # so no boundary can advance until a new resource is acquired
                continue
            mobile += 1
            vcs = msg.vcs
            if msg.steady:
                # steady drain (module docstring): the pass would eject one
                # flit and shift one flit up every boundary, so only the
                # tail end changes
                steady += 1
                msg.ejected += 1
                if msg.at_source:
                    msg.at_source -= 1
                else:
                    tail = vcs[0]
                    tail.occupancy -= 1
                    if not tail.occupancy:
                        del vcs[0]
                        tail.release(msg.id)
                        self.blocked_epoch += 1
                        self._wake(tail.index)
                        if msg.ejected == msg.length:
                            finished.append(msg)
                continue
            n = len(vcs)
            draining = msg.reception is not None
            recovering = msg.recovering
            moved = False
            if recovering:
                msg.teardown_step()  # one flit into the recovery lane
            elif draining and n and vcs[-1].occupancy > 0:
                vcs[-1].occupancy -= 1
                msg.ejected += 1
                moved = True
            # Head-to-tail boundary pass: each flit advances at most one hop.
            for i in range(n - 1, -1, -1):
                dst = vcs[i]
                if dst.occupancy >= dst.capacity:
                    continue
                li = dst.link_index
                if link_used[li]:
                    continue
                if free_at is not None and free_at[li] > cycle:
                    # latency-L channel still busy with an earlier flit
                    continue
                if i > 0:
                    src = vcs[i - 1]
                    if src.occupancy == 0:
                        continue
                    src.occupancy -= 1
                else:
                    if msg.at_source == 0:
                        continue
                    msg.at_source -= 1
                dst.occupancy += 1
                link_used[li] = 1
                if free_at is not None:
                    free_at[li] = cycle + latency[li]
                moved = True
                if i == n - 1 and msg.head_arrival is None:
                    msg.head_arrival = cycle  # header reached a new node
                    if not recovering:
                        if delay == 0:
                            msg.routable = True
                        else:
                            self._delay_due.append((cycle + delay, msg))
            if n and msg.at_source == 0 and vcs[0].occupancy == 0:
                released = msg.release_drained_tail()
                if released:
                    self.blocked_epoch += 1
                    for vc in released:
                        self._wake(vc.index)
                    if msg.wait_keys is not None:
                        # the chain shortened: candidate keys that include
                        # the hop count (misrouting budgets) may now differ,
                        # so the next attempt must re-derive the awaited set
                        self._drop_wait_keys(msg)
            if recovering:
                if msg.teardown_complete and not vcs:
                    torn_down.append(msg)
            elif draining:
                if msg.ejected == msg.length:
                    finished.append(msg)
                elif steady_pool:
                    # every owned VC holds a flit: from the next pass on,
                    # the worm drains in steady state
                    for vc in vcs:
                        if not vc.occupancy:
                            break
                    else:
                        msg.steady = True
            elif not moved and vcs:
                # Nothing moved: if every owned buffer is also full, the worm
                # is fully compressed and provably immobile until it acquires
                # a new resource (which clears the flag).
                for vc in vcs:
                    if vc.occupancy < vc.capacity:
                        break
                else:
                    msg.immobile = True
        for msg in finished:
            rx_node = msg.dest
            msg.finish_delivery(cycle)
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            self._end_wait(msg)
            self._wake(("rx", rx_node))
            self.stats.on_delivered(msg, cycle)
        for msg in torn_down:
            msg.remove_from_network(
                cycle, delivered=self.recovery.delivers_victim
            )
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            self._end_wait(msg)
            self.stats.on_recovered(msg, cycle)
        if order and not mobile:
            self._all_immobile = True
        self.vec_immobile_skips += len(order) - mobile
        self.vec_steady_drains += steady
        self.vec_mobile_cycles += mobile
