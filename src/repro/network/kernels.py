"""The NumPy array-kernel engine tier.

:class:`KernelEngine` is the opt-in third engine
(``config.engine_kernels``; unit-latency k-ary n-cubes only).  Where the
production engine still *walks* every queue and every active message per
cycle in Python to build phase orders and skip parked work, this tier
push-maintains structure-of-arrays mirrors of the live state
(:class:`~repro.network.soa.SoAState` — it is their only reader, so their
upkeep lives here and the production engine pays nothing for them) and
derives those decisions from the mirrors with masked array kernels:

* **request construction** — the allocate-phase request list is a cached
  queue-head list (maintained ``head_slot`` array, node order, rebuilt
  only when a head changes) concatenated with the maintained
  insertion-ordered active-slot array filtered by the ``routable`` mask
  — no per-cycle walk over all queues and actives;
* **dequeue scanning** — completed queue heads are popped only at nodes
  whose head's ``at_source`` hit zero since the last cycle (an explicit
  dirty set fed by the move phase and victim removal), not by probing
  every queue every cycle;
* **head-of-line eligibility** — the stalled-park skip of the serve loop
  becomes one ``stalled[slots] == 0`` gather *before* the arbitration
  shuffle (exact because during the allocate phase a message's
  ``stalled`` flag is only ever written by its own serve), so a cycle in
  which every request is parked — the common case in a saturated,
  deadlocking network — skips the per-request Python loop entirely;
* **generate** — the private traffic RNG is consumed through a buffered
  word stream (:class:`_TrafficStream`) that precomputes the positions
  of all sub-threshold Bernoulli uniforms per refill; per cycle the
  generate kernel locates injections with a ``searchsorted`` window
  probe instead of drawing one uniform per node.

What deliberately stays sequential (measured, not guessed — see
``docs/PERFORMANCE.md``): the Fisher-Yates arbitration shuffle and the
per-winner selection draws, whose word consumption depends on every
earlier decision in the same cycle, and the move-phase bodies, where
link arbitration is order-dependent and a gathered mobility mask costs
more than the flag check it replaces at realistic active counts.

**Bit-identical by construction.**  The RNG word stream is unchanged:
arbitration reuses the production engine's inline MT19937-compatible
Fisher-Yates verbatim, the serve/move bodies are the production bodies
(plus mirror writes) applied to exactly the messages the scalar loops
would have served, and the traffic stream reproduces CPython's
``Random.random`` / ``_randbelow`` word consumption bit for bit
(``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` over two
consecutive raw words — exact in float64).  Equivalence is enforced by
the legacy / production / kernels suite
(``tests/integration/test_fast_path_equivalence.py``), the golden trace
digests and the differential fuzzer's ``kernels`` axis.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

import numpy as np

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.faults import active_faults
from repro.network.message import Message, MessageStatus
from repro.network.production import _NO_QLENS, ProductionEngine, _by_index
from repro.network.simulator import _PHASE_ALLOC, _PHASE_MOVE
from repro.network.soa import SoAState
from repro.traffic.injection import MessageGenerator
from repro.traffic.lengths import FixedLength
from repro.traffic.patterns import UniformTraffic

__all__ = ["KernelEngine"]

#: traffic word-buffer refill granularity (words); large enough that the
#: big-int -> bytes -> ndarray conversion amortizes to ~noise per cycle
_FETCH_WORDS = 1 << 14
_U53 = 2.0 ** -53


class _TrafficStream:
    """Word-buffered, bit-exact stand-in for the private traffic RNG.

    Fetches raw MT19937 output words in blocks via
    ``Random.getrandbits(32 * n)`` (which yields exactly ``n``
    consecutive ``genrand_uint32`` words, little-endian) and replays
    CPython's consumption patterns on top of the buffer:

    * ``random()``  — two words: ``((a >> 5) * 67108864 + (b >> 6)) * 2**-53``;
    * ``getrandbits(k)`` — ``ceil(k/32)`` words, low word first, the top
      word right-shifted to its remaining width;
    * ``_randbelow`` / ``randrange`` / ``randint`` / ``choice`` — the
      ``getrandbits(bit_length)`` rejection loop.

    Over-fetching is safe *only* because the generator's RNG is private
    to traffic: every consumer (the batch Bernoulli scan and the
    pattern/length samplers, which receive this object as their ``rng``)
    reads through this buffer, so buffered words are never skipped.

    Two derived tables make the generate kernel cheap:

    * ``_u`` holds ``random()``'s value for the word pair starting at
      *every* offset, so uniforms stay addressable no matter how many
      extra words earlier injections consumed (the stride-2 mapping can
      shift by an odd delta);
    * ``_hits`` holds the sorted offsets where ``_u < threshold`` — the
      only positions where an injection can start — so a whole cycle of
      Bernoulli draws reduces to one ``searchsorted`` window probe.
    """

    __slots__ = ("_rng", "_w", "_u", "_hits", "_threshold", "_hits_only", "pos")

    def __init__(
        self, rng, threshold: float = 0.0, hits_only: bool = False
    ) -> None:
        self._rng = rng
        self._threshold = threshold
        #: hits-only streams (uniform destinations, fixed lengths) never
        #: read a paired uniform's *value* — only word draws and the hit
        #: positions — so refills can prefilter on integer top bits and
        #: skip building the full float table
        self._hits_only = hits_only
        self._w = np.empty(0, dtype=np.uint32)
        self._u: np.ndarray | None = np.empty(0, dtype=np.float64)
        self._hits: list[int] = []
        self.pos = 0

    def ensure(self, need: int) -> None:
        if len(self._w) - self.pos < need:
            self._refill(need)

    def _refill(self, need: int) -> None:
        blk = max(_FETCH_WORDS, need)
        raw = self._rng.getrandbits(32 * blk)
        fresh = np.frombuffer(raw.to_bytes(4 * blk, "little"), dtype="<u4")
        self._w = w = np.concatenate([self._w[self.pos :], fresh])
        self.pos = 0
        if self._hits_only:
            # a hit needs a*2^26 + b < p*2^53 with b < 2^26, so the first
            # word must satisfy a < p*2^27 + 1 — an integer compare that
            # discards ~99% of positions before any float math
            aa = w[:-1] >> np.uint32(5)
            pre = np.flatnonzero(
                aa < np.uint32(int(self._threshold * 134217728.0) + 1)
            )
            if pre.size:
                af = aa[pre].astype(np.float64)
                bf = (w[pre + 1] >> np.uint32(6)).astype(np.float64)
                u = (af * 67108864.0 + bf) * _U53
                self._hits = pre[u < self._threshold].tolist()
            else:
                self._hits = []
            self._u = None  # rebuilt lazily if random() is ever called
            return
        a = (w[:-1] >> np.uint32(5)).astype(np.float64)
        b = (w[1:] >> np.uint32(6)).astype(np.float64)
        self._u = (a * 67108864.0 + b) * _U53
        # sorted Python list: the generate kernel probes it with bisect,
        # whose per-call overhead beats np.searchsorted at these sizes
        self._hits = np.flatnonzero(self._u < self._threshold).tolist()

    # -- CPython Random replay -----------------------------------------------------
    def random(self) -> float:
        self.ensure(2)
        u = self._u
        if u is None:
            w = self._w
            a = (w[:-1] >> np.uint32(5)).astype(np.float64)
            b = (w[1:] >> np.uint32(6)).astype(np.float64)
            self._u = u = (a * 67108864.0 + b) * _U53
        val = u[self.pos]
        self.pos += 2
        return float(val)

    def getrandbits(self, k: int) -> int:
        if k <= 32:
            self.ensure(1)
            w = int(self._w[self.pos])
            self.pos += 1
            return w >> (32 - k)
        words = (k + 31) // 32
        self.ensure(words)
        r = 0
        top = k % 32
        for i in range(words):
            w = int(self._w[self.pos + i])
            if i == words - 1 and top:
                w >>= 32 - top
            r |= w << (32 * i)
        self.pos += words
        return r

    def _randbelow(self, n: int) -> int:
        if n <= 0:
            return 0
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            if start > 0:
                return self._randbelow(start)
            raise ValueError(f"empty range for randrange({start})")
        width = stop - start
        if width > 0:
            return start + self._randbelow(width)
        raise ValueError(f"empty range for randrange({start}, {stop})")

    def randint(self, a: int, b: int) -> int:
        return self.randrange(a, b + 1)

    def choice(self, seq):
        return seq[self._randbelow(len(seq))]


class KernelEngine(ProductionEngine):
    """Masked-batch engine over SoA state; see the module docstring."""

    def __init__(self, config: SimulationConfig, trace=None) -> None:
        super().__init__(config, trace)
        if not config.engine_kernels:
            raise ConfigurationError(
                "KernelEngine requires engine_kernels=True"
            )
        self.soa = SoAState(self.pool)
        self._vec_reg = self.obs.registry if self.obs.enabled else None
        n = self.topology.num_nodes
        self._num_nodes = n
        #: slot of each source queue's head iff that head is QUEUED, else -1
        self._head_slot = np.full(n, -1, dtype=np.int64)
        #: lazily rebuilt (array, list) projections of the >=0 entries of
        #: ``head_slot`` in node order; stale after any head change
        self._heads_arr = np.empty(0, dtype=np.int64)
        self._heads_list: list[int] = []
        self._heads_stale = False
        #: nodes whose queue head is live but no longer QUEUED (injecting
        #: or done-but-unpopped); only these can ever need a dequeue scan
        self._busy_heads: set[int] = set()
        #: busy nodes whose head's at_source hit zero since the last
        #: allocate phase — the only heads that can have become poppable
        self._head_dirty: set[int] = set()
        # insertion-ordered active-message slots (mirrors the `active`
        # dict order exactly); removals tombstone to -1 and compact lazily
        self._act_arr = np.empty(256, dtype=np.int64)
        self._act_len = 0
        self._act_dead = 0
        self._act_pos: dict[int, int] = {}  # message id -> position
        #: memoized dead-filtered view of the act array (None = stale)
        self._act_cache: np.ndarray | None = None
        #: True only while every active message is provably immobile and
        #: nothing has cleared an immobile flag since that was verified —
        #: the only clear sites are the two serve acquisitions and victim
        #: removal (messages only *become* immobile inside the move loop,
        #: which runs just when this flag is down)
        self._all_immobile = False
        #: True while the allocate request list and its (empty) eligible
        #: subset are provably unchanged since the last all-parked cycle,
        #: with the surviving request count cached in ``_q_nreq``.  Guarded
        #: at use by the dirty/stale/delay checks; invalidated by active-set
        #: changes, victim removal, and any move cycle that ran its loop
        #: (the only paths that can set ``routable`` or clear ``stalled``).
        self._alloc_quiescent = False
        self._q_nreq = 0
        self._arb_rr = config.arbitration == "round-robin"
        # test-only (repro.faults): leave _all_immobile stale after wake-ups
        # so the differential net can prove it catches a lying flag
        self._fault_skip_immobile_clear = (
            "skip-immobile-clear" in active_faults()
        )
        gen = self.generator
        #: the batch generate kernel replays the *unbounded*
        #: MessageGenerator.tick exactly; any other generator type (trace
        #: replay, subclasses) or a total-generation cap (max_messages,
        #: which silences the sources mid-cycle) keeps the scalar path
        self._kgen_batch = (
            type(gen) is MessageGenerator and gen.max_messages is None
        )
        #: paper-default traffic shape: uniform destinations draw exactly
        #: one ``_randbelow(n - 1)`` and fixed lengths draw nothing, so the
        #: generate kernel can read the destination word straight out of
        #: the stream buffer instead of taking four shim frames per
        #: injection.  Exact-type gates: a subclass may override the draw.
        self._kgen_uniform = self._kgen_batch and (
            type(gen.pattern) is UniformTraffic
        )
        self._kgen_fixed_len = (
            gen.lengths.length
            if self._kgen_batch and type(gen.lengths) is FixedLength
            else None
        )
        self._tstream = (
            _TrafficStream(
                gen.rng,
                gen.message_probability,
                # uniform + fixed-length never reads a uniform's value
                hits_only=self._kgen_uniform
                and self._kgen_fixed_len is not None,
            )
            if self._kgen_batch
            else None
        )

    # -- active-slot order maintenance -----------------------------------------------
    def _act_append(self, mid: int, slot: int) -> None:
        self._alloc_quiescent = False
        pos = self._act_len
        arr = self._act_arr
        if pos == arr.shape[0]:
            grown = np.empty(2 * pos, dtype=np.int64)
            grown[:pos] = arr
            self._act_arr = arr = grown
        arr[pos] = slot
        self._act_pos[mid] = pos
        self._act_len = pos + 1
        self._act_cache = None

    def _act_remove(self, mid: int) -> None:
        self._alloc_quiescent = False
        self._act_cache = None
        self._act_arr[self._act_pos.pop(mid)] = -1
        self._act_dead += 1
        if self._act_dead * 4 > self._act_len:
            self._act_compact()

    def _act_compact(self) -> None:
        arr = self._act_arr[: self._act_len]
        keep = arr[arr >= 0]
        self._act_arr[: keep.size] = keep
        self._act_len = int(keep.size)
        self._act_dead = 0
        self._act_cache = None
        slot_msgs = self.soa.slot_msgs
        self._act_pos = {
            slot_msgs[s].id: i for i, s in enumerate(keep.tolist())
        }

    def _act_view(self) -> np.ndarray:
        if not self._act_dead:
            return self._act_arr[: self._act_len]
        # the dead-entry filter is the costly branch: reuse it until the
        # next append/remove perturbs the array
        acts = self._act_cache
        if acts is None:
            acts = self._act_arr[: self._act_len]
            self._act_cache = acts = acts[acts >= 0]
        return acts

    def vec_stats(self) -> dict[str, int]:
        """The engine counters plus SoA slot-allocator accounting."""
        stats = super().vec_stats()
        stats.update(
            slots_total=len(self.soa.slot_msgs),
            slots_recycled=self.soa.slots_recycled,
            slots_high_water=self.soa.high_water,
        )
        return stats

    # -- activity bookkeeping overrides (flag mirrors) ---------------------------------
    def _begin_wait(self, msg: Message, keys: Optional[tuple]) -> None:
        super()._begin_wait(msg, keys)
        slot = msg.slot
        if slot is not None and msg.stalled:
            self.soa.stalled[slot] = 1

    def _drop_wait_keys(self, msg: Message) -> None:
        super()._drop_wait_keys(msg)
        slot = msg.slot
        if slot is not None:
            self.soa.stalled[slot] = 0

    def _wake(self, key) -> None:
        if self._fault_skip_wake:
            return
        waiters = self._wake_index.get(key)
        if waiters:
            live = self._live
            stalled = self.soa.stalled
            for mid in waiters:
                m = live.get(mid)
                if m is not None:
                    m.stalled = False
                    if m.slot is not None:
                        stalled[m.slot] = 0

    def _release_due_headers(self) -> None:
        due = self._delay_due
        cycle = self.cycle
        routable = self.soa.routable
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
            routable[msg.slot] = 1

    def _remove_victim(self, victim: Message) -> None:
        owned = tuple(vc.index for vc in victim.vcs)
        held_rx = victim.reception
        super()._remove_victim(victim)
        soa = self.soa
        if held_rx is not None:
            soa.rx_owner[soa.rx_index(held_rx.node, held_rx.index)] = -1
        if victim.is_done:
            soa.on_done(victim, owned)
        else:
            # flit-by-flit teardown: the slot stays live while the worm
            # drains through the recovery lane
            soa.sync_message(victim)
        if not self._fault_skip_immobile_clear:
            self._all_immobile = False
        self._alloc_quiescent = False
        # both teardown styles zero at_source, so the source queue head
        # (the victim itself, or unchanged) may now be poppable
        self._head_dirty.add(victim.src)
        if victim.id not in self.active:  # instant teardown left the network
            self._act_remove(victim.id)

    # -- the hot phases ----------------------------------------------------------------
    def _phase_generate(self) -> None:
        gen = self.generator
        if not self._kgen_batch:
            # scalar path (trace replay / subclassed generators), plus
            # head-slot upkeep
            on_created = self.soa.on_created
            qlens = self._qlens
            head_slot = self._head_slot
            snapshot = qlens if self._gen_needs_qlens else _NO_QLENS
            for msg in gen.tick(self.cycle, snapshot):
                q = self.queues[msg.src]
                q.append(msg)
                qlens[msg.src] += 1
                self._live[msg.id] = msg
                on_created(msg)
                if len(q) == 1:
                    head_slot[msg.src] = msg.slot
                    self._heads_stale = True
                self.stats.on_generated(self.cycle)
            return
        p = gen.message_probability
        if p <= 0.0:
            return
        ts = self._tstream
        n = self._num_nodes
        cap = gen.max_queued_per_node
        qlens = self._qlens
        cycle = self.cycle
        pattern = gen.pattern
        lengths = gen.lengths
        queues = self.queues
        live = self._live
        head_slot = self._head_slot
        on_generated = self.stats.on_generated
        uni = self._kgen_uniform
        fixed_len = self._kgen_fixed_len
        n1 = n - 1
        dshift = 32 - n1.bit_length()
        node = 0
        # The precomputed hit table gives every buffer offset whose
        # paired uniform is below the injection threshold, so a segment
        # of nodes is tested with one sorted-window probe.  Only hits on
        # the segment's stride-2 parity are real Bernoulli draws; each
        # actual injection consumes extra words (dest/length draws),
        # shifting the mapping for later nodes, so the scan restarts just
        # past it.  Suppressed hits and pattern self-addresses consume
        # nothing beyond their uniform and continue within the window.
        while node < n:
            m = n - node
            if len(ts._w) - ts.pos < 2 * m:
                ts._refill(2 * m)
            w = ts._w
            wlen = len(w)
            pos = ts.pos
            end = pos + 2 * m
            hits = ts._hits
            lo = bisect_left(hits, pos)
            restart = False
            for h in hits[lo : bisect_left(hits, end, lo)]:
                if (h - pos) & 1:
                    continue  # other parity: not a uniform under this mapping
                nd = node + ((h - pos) >> 1)
                if cap is not None and qlens[nd] >= cap:
                    gen.suppressed += 1
                    continue
                pp = h + 2
                ts.pos = pp
                if uni and pp < wlen and (r := int(w[pp]) >> dshift) < n1:
                    # inline UniformTraffic.dest_for + _randbelow: one
                    # accepted top-bits draw from the buffered word.  The
                    # rare cases — rejection (draw >= n-1) or the word
                    # falling past the buffer — replay through the shim,
                    # which refills and rejects identically.
                    dest = r + 1 if r >= nd else r
                    ts.pos = pp + 1
                else:
                    dest = pattern.dest_for(nd, ts)
                if dest is not None:
                    length = fixed_len if fixed_len is not None else lengths(ts)
                    msg = Message(gen._next_id, nd, dest, length, cycle)
                    gen._next_id += 1
                    gen.generated += 1
                    q = queues[nd]
                    q.append(msg)
                    qlens[nd] += 1
                    live[msg.id] = msg
                    self.soa.on_created(msg)
                    if len(q) == 1:
                        head_slot[nd] = msg.slot
                        self._heads_stale = True
                    on_generated(cycle)
                node = nd + 1
                restart = True
                break
            if not restart:
                ts.pos = end
                node = n

    def _phase_allocate(self) -> None:
        soa = self.soa
        head_slot = self._head_slot
        busy = self._busy_heads
        dirty = self._head_dirty
        if (
            self._alloc_quiescent
            and not dirty
            and not self._heads_stale
            and not self._delay_due
        ):
            # Nothing that could alter the request list or wake a parked
            # message has happened since the last all-parked cycle: replay
            # that cycle's (empty-serve) side effects from the cached
            # request count alone.
            n_req = self._q_nreq
            if self._arb_random:
                self._consume_shuffle_draws(n_req)
            elif self._arb_rr and n_req:
                self._rr_counters[_PHASE_ALLOC] += 1
            self.vec_alloc_requests += n_req
            self.vec_stall_skips += n_req
            if self._vec_reg is not None:
                self._vec_reg.histogram("engine/alloc_requests").observe(
                    n_req
                )
                self._vec_reg.histogram("engine/alloc_serves").observe(0)
            return
        if dirty:
            queued = MessageStatus.QUEUED
            live_pop = self._live.pop
            qlens = self._qlens
            queues = self.queues
            for node in dirty:
                if node not in busy:
                    continue
                q = queues[node]
                while q and q[0].at_source == 0:
                    done = q.popleft()
                    qlens[node] -= 1
                    if done.is_done:
                        live_pop(done.id, None)
                if not q:
                    busy.discard(node)
                else:
                    head = q[0]
                    if head.status is queued:
                        head_slot[node] = head.slot
                        self._heads_stale = True
                        busy.discard(node)
            dirty.clear()
        if self._delay_due:
            self._release_due_headers()
        if self._heads_stale:
            self._heads_arr = harr = head_slot[head_slot >= 0]
            self._heads_list = harr.tolist()
            self._heads_stale = False
        else:
            harr = self._heads_arr
        acts = self._act_view()
        if acts.size:
            racts = acts[soa.routable[acts] == 1]
            req_arr = np.concatenate((harr, racts)) if harr.size else racts
        else:
            racts = None
            req_arr = harr
        # head-of-line eligibility BEFORE arbitration: `stalled` is
        # phase-static during allocate (only ever written by a message's
        # own serve), so the surviving set equals what the scalar serve
        # loop's per-message skip would leave — and an all-parked cycle
        # (the saturated steady state) skips the serve loop entirely
        eligible = (
            set(req_arr[soa.stalled[req_arr] == 0].tolist())
            if req_arr.size
            else ()
        )
        n_req = int(req_arr.size)
        serves = 0
        if eligible:
            requests = (
                self._heads_list + racts.tolist()
                if racts is not None
                else list(self._heads_list)
            )
            if self._arb_random:
                self._shuffle_inline(requests)
            elif requests:
                requests = self._order_slots(requests, _PHASE_ALLOC)
            serves = len(eligible)
            slot_msgs = soa.slot_msgs
            serve_one = self._alloc_serve_one
            tracker = self.tracker
            tracer = self._obs_tracer
            cycle = self.cycle
            getrandbits = self.rng.getrandbits
            for s in requests:
                if s in eligible:
                    serve_one(
                        slot_msgs[s], soa, tracker, tracer, cycle, getrandbits
                    )
        elif n_req:
            # Every request is parked, so the arbitration permutation is
            # unobservable — but its RNG/counter side effects are not.
            # Consume exactly what ordering would have consumed without
            # building or permuting the request list: Fisher-Yates word
            # counts depend only on the list length, round-robin bumps
            # its counter once per non-empty phase, oldest-first draws
            # nothing.
            if self._arb_random:
                self._consume_shuffle_draws(n_req)
            elif self._arb_rr:
                self._rr_counters[_PHASE_ALLOC] += 1
        self._alloc_quiescent = serves == 0
        self._q_nreq = n_req
        self.vec_alloc_requests += n_req
        self.vec_alloc_serves += serves
        self.vec_stall_skips += n_req - serves
        if self._vec_reg is not None:
            self._vec_reg.histogram("engine/alloc_requests").observe(n_req)
            self._vec_reg.histogram("engine/alloc_serves").observe(serves)

    def _alloc_serve_one(
        self, msg, soa, tracker, tracer, cycle, getrandbits
    ) -> None:
        """Serve one eligible request: the production serve body plus
        mirror writes."""
        vcs = msg.vcs
        if vcs and vcs[-1].dst == msg.dest:
            # -- reception branch (routable active at destination) --------
            dest = msg.dest
            rx = self.pool.free_reception(dest)
            if rx is not None:
                if tracer is not None and msg.blocked_since is not None:
                    tracer.instant("wake", msg=msg.id)
                msg.acquire_reception(rx)
                self.blocked_epoch += 1
                if tracker is not None:
                    tracker.on_acquire(msg.id, ("rx", dest, rx.index))
                slot = msg.slot
                soa.rx_owner[dest * soa.rx_channels + rx.index] = msg.id
                soa.blocked[slot] = 0
                soa.routable[slot] = 0
                soa.immobile[slot] = 0
                if not self._fault_skip_immobile_clear:
                    self._all_immobile = False
                msg.routable = False
                msg.immobile = False
                self._waiting.pop(msg.id, None)
                self._drop_wait_keys(msg)
            else:
                if msg.blocked_since is None:
                    msg.blocked_since = cycle
                    soa.blocked[msg.slot] = 1
                    self.blocked_epoch += 1
                    if tracer is not None:
                        tracer.instant("block", msg=msg.id, node=dest)
                if tracker is not None:
                    tracker.on_block(
                        msg.id, self.pool.reception_request_keys(dest)
                    )
                self._begin_wait(msg, (("rx", dest),))
            return
        # -- VC branch (routable active mid-route, or queue head) ---------
        node = vcs[-1].dst if vcs else msg.src
        routing = self.routing
        key = routing.cache_key(msg, node)
        if key is None:
            self._uncacheable_routing = True
            cands = routing.candidates(msg, node, self.topology, self.pool)
            idxs = None
        else:
            cand_table = self._cands.table
            entry = cand_table.get(key)
            if entry is None:
                cands = routing.candidates(
                    msg, node, self.topology, self.pool
                )
                idxs = tuple(vc.index for vc in cands)
                cand_table[key] = (cands, idxs)
            else:
                cands, idxs = entry
        free = [vc for vc in cands if vc.owner is None]
        if not free:
            choice = None
        elif self._sel_straight:
            pick = free
            if vcs:
                vc_dim = self._vc_dim
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
        elif self._sel_random:
            n = len(free)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            choice = free[r]
        elif self._sel_lowest:
            choice = min(free, key=_by_index)
        else:
            choice = self.selection.choose(msg, free, self.rng)
        if choice is not None:
            was_queued = msg.status is MessageStatus.QUEUED
            if tracer is not None and msg.blocked_since is not None:
                tracer.instant("wake", msg=msg.id)
            msg.acquire_vc(choice, cycle)
            self.blocked_epoch += 1
            if tracker is not None:
                tracker.on_acquire(msg.id, choice.index)
            slot = msg.slot
            ci = choice.index
            soa.vc_owner[ci] = msg.id
            soa.head_vc[slot] = ci
            if soa.tail_vc[slot] < 0:
                soa.tail_vc[slot] = ci
            soa.blocked[slot] = 0
            soa.routable[slot] = 0
            soa.immobile[slot] = 0
            if not self._fault_skip_immobile_clear:
                self._all_immobile = False
            msg.routable = False
            msg.immobile = False
            self._waiting.pop(msg.id, None)
            self._drop_wait_keys(msg)
            if was_queued:
                self.active[msg.id] = msg
                self.stats.on_injected(cycle)
                self._act_append(msg.id, slot)
                self._head_slot[msg.src] = -1
                self._heads_stale = True
                self._busy_heads.add(msg.src)
        elif vcs:
            if msg.blocked_since is None:
                msg.blocked_since = cycle
                soa.blocked[msg.slot] = 1
                self.blocked_epoch += 1
                if tracer is not None:
                    tracer.instant("block", msg=msg.id, node=node)
            if tracker is not None:
                tracker.on_block(
                    msg.id,
                    idxs if idxs is not None else [vc.index for vc in cands],
                )
            keys = None
            if msg.wait_keys is None and not self._uncacheable_routing:
                keys = idxs
            self._begin_wait(msg, keys)
        else:
            # queue-head injection failed with every candidate owned:
            # park it in the wake index (consumes no RNG, mutates nothing)
            if msg.wait_keys is not None:
                msg.stalled = True
                soa.stalled[msg.slot] = 1
            elif idxs is not None and not self._uncacheable_routing:
                self._register_wait_keys(msg, idxs)
                msg.stalled = True
                soa.stalled[msg.slot] = 1

    def _phase_move(self) -> None:
        # The move bodies stay per-message on purpose: link arbitration
        # is order-dependent, and at realistic active counts a gathered
        # immobile mask measures slower than the maintained flag check
        # (the gather + index round-trip costs more than it saves).  The
        # kernel tier's contribution here is the head-dirty feed for the
        # allocate scan.
        link_used = self._link_used
        link_used[:] = self._zero_links
        if self._all_immobile:
            # The maintained flag proves the active set is unchanged since
            # an all-immobile cycle (any wake-up or removal lowers it), so
            # skip even the act-array gather: the count is the dict size.
            n_act = len(self.active)
            if self._arb_random:
                self._consume_shuffle_draws(n_act)
            elif self._arb_rr:
                self._rr_counters[_PHASE_MOVE] += 1
            self.vec_immobile_skips += n_act
            if self._vec_reg is not None:
                self._vec_reg.histogram("engine/move_mobile").observe(0)
            return
        soa = self.soa
        immobile_arr = soa.immobile
        acts = self._act_view()
        if acts.size and int(immobile_arr[acts].min()) == 1:
            # Every active message is immobile: the loop below would skip
            # all of them and mutate nothing, so the service order is
            # unobservable.  Consume its RNG/counter side effects without
            # building or permuting the message list (same trick as the
            # all-parked allocate cycle).
            self._all_immobile = True
            if self._arb_random:
                self._consume_shuffle_draws(int(acts.size))
            elif self._arb_rr:
                self._rr_counters[_PHASE_MOVE] += 1
            self.vec_immobile_skips += int(acts.size)
            if self._vec_reg is not None:
                self._vec_reg.histogram("engine/move_mobile").observe(0)
            return
        tracker = self.tracker
        cycle = self.cycle
        delay = self._router_delay
        occ = soa.vc_occupancy
        at_src = soa.at_source
        eject = soa.ejected
        routable_arr = soa.routable
        head_dirty = self._head_dirty
        # the loop below can set `routable`, release buffers and wake
        # parked messages — all of which change the next allocate cycle
        self._alloc_quiescent = False
        order = list(self.active.values())
        if self._arb_random:
            self._shuffle_inline(order)
        else:
            order = self._service_order(order, _PHASE_MOVE)
        finished: list[Message] = []
        torn_down: list[Message] = []
        mobile = 0
        for msg in order:
            if msg.immobile:
                continue
            mobile += 1
            vcs = msg.vcs
            slot = msg.slot
            moved = False
            if msg.recovering:
                if msg.teardown_step():  # one flit into the recovery lane
                    head = vcs[-1]
                    occ[head.index] = head.occupancy
                    eject[slot] += 1
            elif msg.is_draining and vcs and vcs[-1].occupancy > 0:
                head = vcs[-1]
                head.occupancy -= 1
                occ[head.index] -= 1
                msg.ejected += 1
                eject[slot] += 1
                moved = True
            # Head-to-tail boundary pass: each flit advances at most one hop.
            for i in range(len(vcs) - 1, -1, -1):
                dst = vcs[i]
                if dst.occupancy >= dst.capacity:
                    continue
                li = dst.link_index
                if link_used[li]:
                    continue
                if i > 0:
                    src = vcs[i - 1]
                    if src.occupancy == 0:
                        continue
                    src.occupancy -= 1
                    occ[src.index] -= 1
                else:
                    if msg.at_source == 0:
                        continue
                    msg.at_source -= 1
                    at_src[slot] -= 1
                    if msg.at_source == 0:
                        # the source-queue head (this message) is now
                        # poppable; schedule its node for the dequeue scan
                        head_dirty.add(msg.src)
                dst.occupancy += 1
                occ[dst.index] += 1
                link_used[li] = 1
                moved = True
                if i == len(vcs) - 1 and msg.head_arrival is None:
                    msg.head_arrival = cycle  # header reached a new node
                    if not msg.recovering:
                        if delay == 0:
                            msg.routable = True
                            routable_arr[slot] = 1
                        else:
                            self._delay_due.append((cycle + delay, msg))
            released = msg.release_drained_tail()
            if released:
                self.blocked_epoch += 1
                soa.on_released(msg, [vc.index for vc in released])
                for vc in released:
                    if tracker is not None:
                        tracker.on_release(msg.id, vc.index)
                    self._wake(vc.index)
                if msg.wait_keys is not None:
                    # the chain shortened: candidate keys that include the
                    # hop count (misrouting budgets) may now differ, so the
                    # next attempt must re-derive the awaited set
                    self._drop_wait_keys(msg)
                if tracker is not None:
                    self._refresh_requests(msg)
            if msg.recovering:
                if msg.teardown_complete and not msg.vcs:
                    torn_down.append(msg)
            elif msg.ejected == msg.length and msg.is_draining:
                finished.append(msg)
            elif not moved and not msg.is_draining and vcs:
                # Nothing moved: if every owned buffer is also full, the
                # worm is fully compressed and provably immobile until it
                # acquires a new resource (which clears the flag).
                for vc in vcs:
                    if vc.occupancy < vc.capacity:
                        break
                else:
                    msg.immobile = True
                    immobile_arr[slot] = 1
        rx_width = soa.rx_channels
        for msg in finished:
            rx_node = msg.dest
            rx = msg.reception
            soa.rx_owner[rx_node * rx_width + rx.index] = -1
            msg.finish_delivery(cycle)
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            if tracker is not None:
                tracker.on_done(msg.id)
            self._end_wait(msg)
            self._wake(("rx", rx_node))
            self._act_remove(msg.id)
            soa.on_done(msg)
            self.stats.on_delivered(msg, cycle)
        for msg in torn_down:
            msg.remove_from_network(
                cycle, delivered=self.recovery.delivers_victim
            )
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            if tracker is not None:
                tracker.on_done(msg.id)
            self._end_wait(msg)
            self._act_remove(msg.id)
            soa.on_done(msg)
            self.stats.on_recovered(msg, cycle)
        self.vec_move_mobile += mobile
        self.vec_immobile_skips += len(order) - mobile
        if self._vec_reg is not None:
            self._vec_reg.histogram("engine/move_mobile").observe(mobile)

    def _consume_shuffle_draws(self, n: int) -> None:
        """Advance ``self.rng`` exactly as ``_shuffle_inline`` on a list of
        length ``n`` would — the same ``getrandbits`` widths and rejection
        redraws, minus the swaps (and minus building the list at all).

        The draw width ``k`` equals ``m.bit_length()`` for every rejection
        threshold ``m`` in ``n .. 2``, so the descent is run per constant-k
        block with ``range`` supplying the thresholds — no per-draw
        boundary check or decrement.  This is the engine's hottest loop in
        the deep saturated regime (every quiescent-allocate and
        all-immobile-move cycle lands here), where shaving two bytecodes
        per draw is measurable.
        """
        hi = n
        k = n.bit_length()
        getrandbits = self.rng.getrandbits
        while hi > 1:
            # hi > 1 forces k >= 2, so lo - 1 >= 1 and the range never
            # descends past the final threshold m == 2
            lo = 1 << (k - 1)
            for m in range(hi, lo - 1, -1):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
            hi = lo - 1
            k -= 1

    # -- deterministic service orders over slots ---------------------------------------
    def _order_slots(self, slots: list[int], phase: int) -> list[int]:
        """``_service_order`` applied to slot ids (non-random arbitration).

        Message ids are unique, so sorting slots by the SoA ``msg_id``
        column reproduces the scalar ``sorted(messages, key=m.id)``
        order exactly; round-robin advances the same per-phase counter.
        """
        policy = self.config.arbitration
        arr = np.fromiter(slots, dtype=np.int64, count=len(slots))
        ordered = arr[np.argsort(self.soa.msg_id[arr])].tolist()
        if policy == "round-robin":
            self._rr_counters[phase] += 1
            offset = self._rr_counters[phase] % len(ordered)
            ordered = ordered[offset:] + ordered[:offset]
        return ordered

    # -- invariants --------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        self.soa.verify(self)
        queued = MessageStatus.QUEUED
        head_slot = self._head_slot
        busy = self._busy_heads
        for node, q in enumerate(self.queues):
            if q and q[0].status is queued:
                if head_slot[node] != q[0].slot:
                    raise SimulationError(
                        f"head_slot[{node}] = {head_slot[node]} but queue "
                        f"head is slot {q[0].slot}"
                    )
                if node in busy:
                    raise SimulationError(
                        f"node {node} busy with a QUEUED head"
                    )
            else:
                if head_slot[node] != -1:
                    raise SimulationError(
                        f"head_slot[{node}] = {head_slot[node]} but queue "
                        "head is not QUEUED"
                    )
                if q and node not in busy:
                    raise SimulationError(
                        f"node {node} has a non-QUEUED head but is not "
                        "tracked as busy"
                    )
        if not self._heads_stale:
            expect = self._head_slot[self._head_slot >= 0].tolist()
            if self._heads_list != expect:
                raise SimulationError(
                    "cached heads list diverged from head_slot: "
                    f"{self._heads_list} != {expect}"
                )
        slot_msgs = self.soa.slot_msgs
        act = [
            slot_msgs[s].id
            for s in self._act_arr[: self._act_len].tolist()
            if s >= 0
        ]
        if act != list(self.active):
            raise SimulationError(
                "active-slot array diverged from the active dict: "
                f"{act} != {list(self.active)}"
            )
        if self._act_pos.keys() != self.active.keys():
            raise SimulationError("active-slot position map diverged")
