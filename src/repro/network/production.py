"""The production engine: activity-tracked hot loops on every topology.

:class:`ProductionEngine` is what ``NetworkSimulator(config)`` builds by
default (``engine_fast_path=True``).  It replaces the reference engine's
per-cycle full rescans with live activity state maintained at resource
transitions, and its interpreter-bound arbitration with an inline stream
over the C-backed ``Random.getrandbits``:

* every message carries a ``routable`` flag mirroring
  :meth:`routing_eligible`, updated when its header crosses into a new VC,
  when it acquires a resource, and when recovery touches it — the
  allocation phase builds its request list from the flag instead of
  re-deriving eligibility per message per cycle;
* a blocked header whose candidate set is position-pure registers in a
  *wake index* (resource key → waiting message ids) and is marked
  ``stalled``; its allocation attempt is skipped entirely until one of the
  awaited resources is released, which provably cannot change the outcome
  (an all-owned candidate set yields no free VC and consumes no RNG).  A
  *queue head* whose candidate VCs are all owned parks the same way —
  ``blocked_since`` and the waiting set stay untouched, since those belong
  to active messages and the reference engine never sets them for queued
  heads;
* a fully-compressed worm (every owned edge buffer full, header blocked)
  is marked ``immobile`` and skipped by the movement phase until it
  acquires a new resource — no flit of such a worm can move;
* queue depths feed the traffic generator from maintained counters
  (``+1`` on append, ``-1`` on dequeue) instead of a per-cycle list
  comprehension, and the dequeue scan pops on ``at_source == 0`` alone —
  every completion path zeroes ``at_source``, making the ``is_done``
  check redundant;
* the serve loop reads the shared position-keyed candidate table
  (:class:`~repro.routing.batch.CandidateTable`) directly, whose entries
  carry the candidate indices as a ready-made tuple for wait-key
  registration;
* two maintained facts skip a whole phase of a frozen network, the state
  a deadlocked run sits in between detections: ``_all_immobile`` (the last
  move pass skipped every worm; lowered by any acquisition or victim
  removal) returns from the move phase, and ``_alloc_quiet`` (the request
  count of the last allocate pass that served nothing; dropped by any
  move pass that runs, a victim removal or a message generated into an
  empty queue, ignored while a ``router_delay`` header is pending) from
  the allocate phase — each after replaying only the *ordering* side
  effects of the service list nobody would have read: Fisher–Yates word
  consumption (a function of the list length alone), one round-robin
  counter bump, nothing for oldest-first.

**Bit-identical by construction.**  Messages skipped by a flag are still
placed in the per-phase service-order lists, so arbitration consumes an
identical RNG stream, and every inlined draw replays CPython's own:

* ``_shuffle_inline`` is ``Random.shuffle`` (Fisher–Yates over
  ``_randbelow_with_getrandbits``, including the rejection loop and its
  word-consumption pattern) with the per-step ``bit_length`` hoisted
  behind a descending power-of-two boundary;
* the inlined selection replays ``StraightThroughFirst`` /
  ``RandomSelection`` draw for draw (``rng.choice`` =
  ``seq[_randbelow(len(seq))]``, whose ``n == 1`` case still consumes
  words until a zero arrives);
* for a *routable* active message, ``needs_reception`` reduces to
  ``vcs[-1].dst == dest`` (the routable invariant rules out draining,
  recovering and done states and guarantees the header has arrived), and
  a queue head always takes the VC branch.

The inline draws — and, under random arbitration, the whole-phase skips —
are taken only when ``type(self.rng) is random.Random``.  Any other RNG —
the model-checking oracle swaps in a scripted ``ChoiceRandom`` per step —
goes through ``rng.shuffle`` and ``selection.choose`` unchanged, so
scripted choice streams replay on this engine exactly as on the reference.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Optional

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.faults import active_faults
from repro.network.message import Message, MessageStatus
from repro.network.simulator import (
    _PHASE_ALLOC,
    _PHASE_MOVE,
    NetworkSimulator,
)
from repro.routing.selection import (
    LowestIndexFirst,
    RandomSelection,
    StraightThroughFirst,
)
from repro.traffic.injection import MessageGenerator

__all__ = ["ProductionEngine"]

#: shared empty snapshot handed to generators that never read queue depths
_NO_QLENS: list[int] = []


def _by_index(vc) -> int:
    return vc.index


class ProductionEngine(NetworkSimulator):
    """Activity-tracked default engine; see the module docstring."""

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
        self._waiting: dict[int, Message] = {}  # blocked_since set, by id
        self._wake_index: dict = {}  # resource key -> set of waiting ids
        self._delay_due: deque[tuple[int, Message]] = deque()  # router_delay
        self._vc_dim = self._cands.vc_dim
        self._arb_random = config.arbitration == "random"
        self._arb_rr = config.arbitration == "round-robin"
        # whole-phase skips (module docstring); -1 = allocate not quiet
        self._all_immobile = False
        self._alloc_quiet = -1
        # exact-type checks: the inlined draws replay these specific
        # policies; any other (or subclassed) policy goes through its own
        # choose() unmodified
        self._sel_straight = type(self.selection) is StraightThroughFirst
        self._sel_random = type(self.selection) is RandomSelection
        self._sel_lowest = type(self.selection) is LowestIndexFirst
        # generate-phase qlens snapshot is only read by capped generators
        self._gen_needs_qlens = not (
            type(self.generator) is MessageGenerator
            and self.generator.max_queued_per_node is None
        )
        # maintained queue-depth snapshot: every read happens inside
        # generator.tick() before any queue mutation of the cycle, so a
        # live-maintained copy equals the reference's per-cycle listcomp
        self._qlens = [0] * len(self.queues)
        # cumulative phase counters (cheap ints, read by the tests)
        self.vec_alloc_requests = 0
        self.vec_alloc_serves = 0
        self.vec_stall_skips = 0
        self.vec_move_mobile = 0
        self.vec_immobile_skips = 0

    # -- queries ------------------------------------------------------------------------
    def waiting_messages(self) -> Iterable[Message]:
        return self._waiting.values()

    # -- inline arbitration stream ---------------------------------------------------
    def _shuffle_inline(self, x: list) -> None:
        """Bit-exact ``self.rng.shuffle(x)`` via direct getrandbits calls.

        Identical word stream: ``_randbelow(m)`` draws ``getrandbits(k)``
        with ``k = m.bit_length()`` and rejects until ``r < m``.  ``m``
        descends by one per step, so ``k`` is maintained against a falling
        power-of-two boundary instead of recomputed.
        """
        n = len(x)
        hi = n
        k = n.bit_length()
        getrandbits = self.rng.getrandbits
        # k == m.bit_length() for every threshold m in n..2, so the descent
        # runs per constant-k block with range supplying the thresholds —
        # no per-draw boundary check or decrement (m == i + 1 throughout)
        while hi > 1:
            # hi > 1 forces k >= 2, so lo - 1 >= 1 and the range never
            # descends past the final threshold m == 2
            lo = 1 << (k - 1)
            for m in range(hi, lo - 1, -1):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                i = m - 1
                x[i], x[r] = x[r], x[i]
            hi = lo - 1
            k -= 1

    def _skip_order(self, n: int, phase: int) -> None:
        """The side effects of ordering an ``n``-long service list that no
        one will read: ``_shuffle_inline``'s draws minus the swaps (widths
        and rejection redraws depend on ``n`` alone), or the round-robin
        bump of a non-empty phase."""
        if self._arb_random:
            hi = n
            k = n.bit_length()
            getrandbits = self.rng.getrandbits
            while hi > 1:
                lo = 1 << (k - 1)
                for m in range(hi, lo - 1, -1):
                    r = getrandbits(k)
                    while r >= m:
                        r = getrandbits(k)
                hi = lo - 1
                k -= 1
        elif n and self._arb_rr:
            self._rr_counters[phase] += 1

    # -- activity bookkeeping ----------------------------------------------------------
    def _begin_wait(self, msg: Message, keys: Optional[tuple]) -> None:
        """Record a failed allocation attempt in the activity state.

        ``keys`` carries the awaited resource keys on the *first* failure at
        this position (None when the candidate set is not position-pure);
        later failures find the registration already in place.  A message
        with registered keys is marked ``stalled`` and skipped by the
        allocation phase until one of them is released.
        """
        self._waiting[msg.id] = msg
        if keys is not None and msg.wait_keys is None:
            self._register_wait_keys(msg, keys)
        if msg.wait_keys is not None:
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
        # the inline draws replay random.Random's word stream; a scripted
        # stand-in (the oracle's ChoiceRandom) takes the generic calls
        rng = self.rng
        inline = type(rng) is random.Random
        quiet = self._alloc_quiet
        if quiet >= 0 and not self._delay_due and (
            inline or not self._arb_random
        ):
            # same requests as last pass, every one still parked: no pop,
            # no serve — only the ordering of the list would be observable
            self._skip_order(quiet, _PHASE_ALLOC)
            self.vec_alloc_requests += quiet
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
        if inline and self._arb_random:
            self._shuffle_inline(requests)
        else:
            requests = self._service_order(requests, _PHASE_ALLOC)

        tracer = self._obs_tracer
        cycle = self.cycle
        pool = self.pool
        routing = self.routing
        topology = self.topology
        cand_table = self._cands.table
        cache_key = routing.cache_key
        vc_dim = self._vc_dim
        sel_straight = inline and self._sel_straight
        sel_random = inline and self._sel_random
        sel_lowest = self._sel_lowest
        getrandbits = rng.getrandbits if inline else None
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
            key = cache_key(msg, node)
            if key is None:
                self._uncacheable_routing = True
                cands = routing.candidates(msg, node, topology, pool)
                idxs = None
            else:
                entry = cand_table.get(key)
                if entry is None:
                    cands = routing.candidates(msg, node, topology, pool)
                    idxs = tuple(vc.index for vc in cands)
                    cand_table[key] = (cands, idxs)
                else:
                    cands, idxs = entry
            free = [vc for vc in cands if vc.owner is None]
            if not free:
                choice = None
            elif sel_straight:
                pick = free
                if vcs:
                    cur = vc_dim[vcs[-1].index]
                    straight = [vc for vc in free if vc_dim[vc.index] == cur]
                    if straight:
                        pick = straight
                n = len(pick)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                choice = pick[r]
            elif sel_random:
                n = len(free)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                choice = free[r]
            elif sel_lowest:
                choice = min(free, key=_by_index)
            else:
                choice = self.selection.choose(msg, free, rng)
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
                keys = None
                if msg.wait_keys is None and not self._uncacheable_routing:
                    keys = idxs
                self._begin_wait(msg, keys)
            else:
                # Queue-head injection failed: every candidate VC at the
                # source is owned.  The attempt consumed no RNG and mutated
                # nothing, so it is skippable verbatim until one awaited VC
                # frees — register the head in the wake index only
                # (blocked_since and the waiting set stay untouched: those
                # are active-message state the reference never sets for
                # queue heads).
                if msg.wait_keys is not None:
                    msg.stalled = True
                elif idxs is not None and not self._uncacheable_routing:
                    self._register_wait_keys(msg, idxs)
                    msg.stalled = True
        self._alloc_quiet = -1 if serves else len(requests)
        self.vec_alloc_requests += len(requests)
        self.vec_alloc_serves += serves
        self.vec_stall_skips += len(requests) - serves

    def _phase_move(self) -> None:
        inline = type(self.rng) is random.Random
        if self._all_immobile and (inline or not self._arb_random):
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
        order = list(self.active.values())
        if self._arb_random and inline:
            self._shuffle_inline(order)
        else:
            order = self._service_order(order, _PHASE_MOVE)
        finished: list[Message] = []
        torn_down: list[Message] = []
        mobile = 0
        for msg in order:
            if msg.immobile:
                # fully-compressed blocked worm: every owned buffer is full,
                # so no boundary can advance until a new resource is acquired
                continue
            mobile += 1
            vcs = msg.vcs
            moved = False
            if msg.recovering:
                msg.teardown_step()  # one flit into the recovery lane
            elif msg.is_draining and vcs and vcs[-1].occupancy > 0:
                vcs[-1].occupancy -= 1
                msg.ejected += 1
                moved = True
            # Head-to-tail boundary pass: each flit advances at most one hop.
            for i in range(len(vcs) - 1, -1, -1):
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
                if i == len(vcs) - 1 and msg.head_arrival is None:
                    msg.head_arrival = cycle  # header reached a new node
                    if not msg.recovering:
                        if delay == 0:
                            msg.routable = True
                        else:
                            self._delay_due.append((cycle + delay, msg))
            released = msg.release_drained_tail()
            if released:
                self.blocked_epoch += 1
                for vc in released:
                    self._wake(vc.index)
                if msg.wait_keys is not None:
                    # the chain shortened: candidate keys that include the
                    # hop count (misrouting budgets) may now differ, so the
                    # next attempt must re-derive the awaited set
                    self._drop_wait_keys(msg)
            if msg.recovering:
                if msg.teardown_complete and not msg.vcs:
                    torn_down.append(msg)
            elif msg.ejected == msg.length and msg.is_draining:
                finished.append(msg)
            elif not moved and not msg.is_draining and vcs:
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
        self.vec_move_mobile += mobile
        self.vec_immobile_skips += len(order) - mobile
