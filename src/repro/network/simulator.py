"""The flit-level network simulation engine (the paper's "FlexSim").

A cycle-driven wormhole / virtual cut-through simulator.  Each cycle has
four phases:

1. **Generation** — Bernoulli message sources enqueue new messages.
2. **Allocation** — headers ready to route request an output VC from their
   routing function; a selection policy picks among the free candidates.
   Headers that arrived at their destination request the reception channel.
   Requests are served in randomized order for fairness.
3. **Movement** — flits advance one hop.  Every physical link carries at
   most one flit per cycle (VC multiplexing); every reception channel
   consumes at most one flit per cycle.  Within a message, boundaries are
   processed head-to-tail so a worm advances in lockstep.  Tails release
   VCs as they drain past.
4. **Detection** — every ``detection_interval`` cycles the deadlock detector
   snapshots the CWG, finds knots, and the recovery policy removes victims.

The engine enforces exclusive VC ownership and flit conservation; with
``check_invariants`` (or ``validation_level=2``) the runtime battery of
:mod:`repro.validation.invariants` asserts these every cycle.

Engines
-------

This module holds what every engine shares — construction, queries, the
detection phase and recovery — plus the **legacy reference** phase loops:
a full rescan of ``self.active`` every cycle, no maintained activity
state, every draw through CPython's own ``random.Random`` methods
(:class:`~repro.network.draws.Draws`).  It is the ground truth the
production engine is specified against.

``NetworkSimulator(config)`` dispatches on the config, so call sites
never name an engine class: ``engine_fast_path`` (the default) builds
:class:`~repro.network.production.ProductionEngine`, the activity-tracked
hot loops, on every topology; off, this class, the reference.

The two are bit-identical: the same seed produces the same
:class:`~repro.metrics.stats.RunResult` and the same deadlock event
sequence (asserted by ``tests/integration/test_fast_path_equivalence.py``,
the golden digests and the differential fuzzer).

Neither engine maintains a wait-for graph: the detector rebuilds the CWG
from live state at each pass (:meth:`DeadlockDetector.build_cwg`).
``cwg_maintenance`` is an inert field kept for stored-result digests;
both of its values run this same code.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter
from typing import Iterable, Optional

from repro.config import SimulationConfig
from repro.core.detector import DeadlockDetector, DeadlockEvent, DetectionRecord
from repro.core.recovery import RecoveryPolicy, make_recovery
from repro.metrics.stats import RunResult, StatsCollector
from repro.network.channels import ChannelPool, VirtualChannel
from repro.network.draws import Draws
from repro.obs import Observer
from repro.network.message import Message, MessageStatus
from repro.network.topology import (
    Dragonfly,
    FullMesh,
    IrregularTorus,
    KAryNCube,
    Mesh,
    Mesh3D,
    Topology,
    Torus3D,
)
from repro.routing import make_routing, make_selection
from repro.routing.batch import CandidateTable
from repro.traffic import LengthMix, MessageGenerator, make_pattern

__all__ = ["NetworkSimulator", "build_topology"]

# phase indices for per-phase round-robin arbitration state
_PHASE_ALLOC = 0
_PHASE_MOVE = 1


def build_topology(config: SimulationConfig) -> Topology:
    """Construct the topology a configuration describes."""
    lat = config.link_latencies or None
    if config.topology == "mesh3d":
        return Mesh3D(config.dims, link_latencies=lat)
    if config.topology == "torus3d":
        return Torus3D(
            config.dims, link_latencies=lat, bidirectional=config.bidirectional
        )
    if config.topology == "dragonfly":
        a, p, h = config.dims
        local, global_ = lat if lat else (1, 1)
        return Dragonfly(a, p, h, local_latency=local, global_latency=global_)
    if config.topology == "fullmesh":
        return FullMesh(config.dims[0], latency=lat[0] if lat else 1)
    if config.mesh:
        return Mesh(config.k, config.n, link_latencies=lat)
    if config.failed_links:
        return IrregularTorus(config.k, config.n, config.failed_links)
    return KAryNCube(
        config.k, config.n, bidirectional=config.bidirectional, link_latencies=lat
    )


class NetworkSimulator:
    """One network instance plus its workload, detector and recovery.

    Construction dispatches on ``config.engine_fast_path`` (see the module
    docstring), so call sites keep instantiating ``NetworkSimulator``
    regardless of engine choice; instantiated as itself
    (``engine_fast_path=False``) this class is the legacy reference.  Both
    engines are bit-identical given the same seed.
    """

    #: the draw source (repro.network.draws) both RNG streams go through
    draws_class = Draws

    def __new__(cls, config: SimulationConfig = None):
        if cls is NetworkSimulator and getattr(config, "engine_fast_path", False):
            from repro.network.production import ProductionEngine

            return object.__new__(ProductionEngine)
        return object.__new__(cls)

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self.config = config
        self.topology = build_topology(config)
        self.pool = ChannelPool(
            self.topology,
            config.num_vcs,
            config.buffer_depth,
            rx_channels=config.rx_channels,
        )
        self.routing = make_routing(config.routing)
        # the routing contract's one check: a pair it refuses never runs
        self.routing.validate(self.topology, self.pool)
        self.selection = make_selection(config.selection)
        self.recovery: RecoveryPolicy = make_recovery(config.recovery)
        self.rng = random.Random(config.seed)
        self.draws = self.draws_class(self.rng)
        pattern_kwargs = {}
        if config.traffic == "hot-spot":
            pattern_kwargs["fraction"] = config.hotspot_fraction
        elif config.traffic == "hybrid":
            pattern_kwargs["components"] = list(config.traffic_mix)
        self.pattern = make_pattern(config.traffic, self.topology, **pattern_kwargs)
        lengths = LengthMix(config.length_mix) if config.length_mix else None
        self.generator = MessageGenerator(
            self.topology,
            self.pattern,
            config.load,
            config.message_length,
            # an independent stream, so two simulations that differ only in
            # routing/recovery see the *same* offered workload
            self.draws_class(random.Random(config.seed + 0x5EED)),
            config.max_queued_per_node,
            lengths=lengths,
            max_messages=config.max_messages,
        )
        self.detector = DeadlockDetector(
            count_cycles=config.count_cycles,
            max_cycles_counted=config.max_cycles_counted,
            record_blocked_durations=config.record_blocked_durations,
            caching=config.detector_caching,
        )
        self.stats = StatsCollector(config, self.topology)
        # runtime invariant checker (repro.validation); None unless
        # check_invariants or validation_level asks for one
        from repro.validation.invariants import InvariantChecker

        self.validation = InvariantChecker.from_config(config)
        # observability (repro.obs): NULL_OBSERVER at obs_level=0, so the
        # per-cycle instrumentation below reduces to None-checks
        self.obs = Observer.from_config(config)
        self._obs_tracer = self.obs.tracer
        prof = self.obs.profiler
        if prof is not None:
            self._t_generate = prof.timer("engine/generate")
            self._t_allocate = prof.timer("engine/allocate")
            self._t_move = prof.timer("engine/move")
            self._t_detect = prof.timer("engine/detect")
            self._t_recover = prof.timer("engine/recover")
        else:
            self._t_generate = None
            self._t_recover = None
        self.cycle = 0
        self.queues: list[deque[Message]] = [
            deque() for _ in range(self.topology.num_nodes)
        ]
        self.active: dict[int, Message] = {}
        self._live: dict[int, Message] = {}  # queued + active, by id
        self._link_used = bytearray(self.topology.num_links)
        self._zero_links = bytes(self.topology.num_links)
        # Heterogeneous link latency (topology zoo): a flit crossing a
        # latency-L link keeps it busy until cycle + L.  None on the
        # paper's uniform unit-latency topologies, where the per-cycle
        # ``_link_used`` bytearray alone is exact (and the hot path pays
        # nothing for the feature).
        if self.topology.uniform_latency:
            self._link_free_at = None
            self._link_latency = None
        else:
            self._link_free_at = [0] * self.topology.num_links
            self._link_latency = [link.latency for link in self.topology.links]
        # per-phase monotone round-robin counters (allocation, movement)
        self._rr_counters = [0, 0]
        #: the one candidate memo: the allocate loops, route_candidates and
        #: (through it) the detector's CWG rebuild all share it
        self._cands = CandidateTable(self.routing, self.topology, self.pool)
        self._router_delay = config.router_delay
        #: True on the activity-tracked production engine; the detector and
        #: the invariant checker key their fast-path-only reasoning off it
        self.fast_path = bool(config.engine_fast_path)
        #: monotone counter of ownership / blocked-set transitions; the
        #: detector short-circuits a pass when it has not advanced
        self.blocked_epoch = 0

    # -- queries used by the detector and tests -----------------------------------
    def active_messages(self) -> Iterable[Message]:
        return self.active.values()

    def message_by_id(self, message_id: int) -> Message:
        return self._live[message_id]

    def route_candidates(self, message: Message) -> list[VirtualChannel]:
        """The routing relation's candidate VCs for a message's next hop.

        Memoized by the relation's :meth:`cache_key` in the shared
        :class:`~repro.routing.batch.CandidateTable`: a blocked header
        requests the same set every cycle, and the key names everything the
        candidate set reads (the profile showed candidate recomputation
        dominating saturated runs).
        """
        return self._cands.lookup(message, message.head_node)[0]

    @property
    def messages_in_network(self) -> int:
        return len(self.active)

    def routing_eligible(self, message: Message) -> bool:
        """Header ready to request its next resource (pipeline delay served).

        With ``router_delay`` > 0 a header that just arrived at a node is
        still in the router pipeline (route computation / VC allocation
        stages) and neither requests resources nor counts as blocked.
        """
        if not (message.needs_next_vc or message.needs_reception):
            return False
        if not message.header_in_newest_vc and message.vcs:
            return False
        delay = self._router_delay
        if delay and message.vcs:
            arrived = message.head_arrival
            if arrived is None or self.cycle - arrived < delay:
                return False
        return True

    def waiting_messages(self) -> Iterable[Message]:
        """Active messages with a failed allocation outstanding.

        Exactly the messages whose ``blocked_since`` is set.  The reference
        engine derives it by scanning; the production engine maintains the
        set at state transitions.  Used by statistics (starvation tracking).
        """
        return [m for m in self.active.values() if m.blocked_since is not None]

    def _service_order(
        self, messages: list[Message], phase: int = _PHASE_ALLOC
    ) -> list[Message]:
        """Order in which competing messages are served this cycle.

        ``random`` (default) draws a fresh permutation per cycle — fair in
        expectation.  ``oldest-first`` gives strict age priority (smallest
        id first), which bounds starvation but can convoy.  ``round-robin``
        rotates the starting message each cycle, independently per phase:
        each phase advances its own monotone counter exactly once per cycle,
        so rotation is fair regardless of how the two phases' list lengths
        differ.
        """
        policy = self.config.arbitration
        if policy == "oldest-first":
            return sorted(messages, key=lambda m: m.id)
        if policy == "round-robin":
            if not messages:
                return messages
            ordered = sorted(messages, key=lambda m: m.id)
            self._rr_counters[phase] += 1
            offset = self._rr_counters[phase] % len(ordered)
            return ordered[offset:] + ordered[:offset]
        self.draws.permute(messages)
        return messages

    # -- the four phases (legacy reference loops) ---------------------------------------
    def _phase_generate(self) -> None:
        qlens = [len(q) for q in self.queues]
        for msg in self.generator.tick(self.cycle, qlens):
            self.queues[msg.src].append(msg)
            self._live[msg.id] = msg
            self.stats.on_generated(self.cycle)

    def _phase_allocate(self) -> None:
        queued = MessageStatus.QUEUED
        requests: list[Message] = []
        for q in self.queues:
            if not q:
                continue
            head = q[0]
            # Common case: the head is still waiting to inject — a queued
            # message is never done and always has flits at the source.
            if head.status is queued:
                requests.append(head)
                continue
            # Let the next queued message start once its predecessor has
            # fully left the source (one injection channel per node).
            while q and (q[0].is_done or q[0].at_source == 0):
                done = q.popleft()
                if done.is_done:
                    self._live.pop(done.id, None)
            if q and q[0].status is queued:
                requests.append(q[0])
        for m in self.active.values():
            if self.routing_eligible(m):
                requests.append(m)
        requests = self._service_order(requests, _PHASE_ALLOC)
        tracer = self._obs_tracer
        cycle = self.cycle
        for msg in requests:
            if msg.needs_reception:
                rx = self.pool.free_reception(msg.dest)
                if rx is not None:
                    if tracer is not None and msg.blocked_since is not None:
                        tracer.instant("wake", msg=msg.id)
                    msg.acquire_reception(rx)
                    self.blocked_epoch += 1
                else:
                    if msg.blocked_since is None:
                        msg.blocked_since = cycle
                        self.blocked_epoch += 1
                        if tracer is not None:
                            tracer.instant("block", msg=msg.id, node=msg.dest)
                continue
            candidates = self.route_candidates(msg)
            free = [vc for vc in candidates if vc.owner is None]
            choice = self.selection.choose(msg, free, self.draws)
            if choice is not None:
                was_queued = msg.status is MessageStatus.QUEUED
                if tracer is not None and msg.blocked_since is not None:
                    tracer.instant("wake", msg=msg.id)
                msg.acquire_vc(choice, cycle)
                self.blocked_epoch += 1
                if was_queued:
                    self.active[msg.id] = msg
                    self.stats.on_injected(cycle)
            elif msg.vcs:
                if msg.blocked_since is None:
                    msg.blocked_since = cycle
                    self.blocked_epoch += 1
                    if tracer is not None:
                        tracer.instant(
                            "block", msg=msg.id, node=msg.head_node
                        )

    def _phase_move(self) -> None:
        link_used = self._link_used
        link_used[:] = self._zero_links
        free_at = self._link_free_at  # None on uniform unit-latency topologies
        latency = self._link_latency
        cycle = self.cycle
        order = self._service_order(list(self.active.values()), _PHASE_MOVE)
        finished: list[Message] = []
        torn_down: list[Message] = []
        for msg in order:
            vcs = msg.vcs
            if msg.recovering:
                msg.teardown_step()  # one flit into the recovery lane
            elif msg.is_draining and vcs and vcs[-1].occupancy > 0:
                vcs[-1].occupancy -= 1
                msg.ejected += 1
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
                if i == len(vcs) - 1 and msg.head_arrival is None:
                    msg.head_arrival = cycle  # header reached a new node
            if msg.release_drained_tail():
                self.blocked_epoch += 1
            if msg.recovering:
                if msg.teardown_complete and not msg.vcs:
                    torn_down.append(msg)
            elif msg.ejected == msg.length and msg.is_draining:
                finished.append(msg)
        for msg in finished:
            msg.finish_delivery(cycle)
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            self.stats.on_delivered(msg, cycle)
        for msg in torn_down:
            msg.remove_from_network(
                cycle, delivered=self.recovery.delivers_victim
            )
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            self.stats.on_recovered(msg, cycle)

    def _phase_detect(self) -> Optional[DetectionRecord]:
        if self.cycle % self.config.detection_interval != 0:
            return None
        # True (knot) detection always runs: in timeout mode it provides the
        # ground truth against which the heuristic's recoveries are judged.
        record = self.detector.detect(self)
        if self.validation is not None:
            # verify reported knots against the definition while the state
            # they describe is still intact (recovery runs next)
            self.validation.on_detection(self, record)
        tracer = self._obs_tracer
        if tracer is not None:
            tracer.instant(
                "detection",
                knots=len(record.events),
                blocked=record.blocked_messages,
                vertices=record.cwg_vertices,
            )
            for event in record.events:
                tracer.instant(
                    "deadlock",
                    size=event.deadlock_set_size,
                    resources=event.resource_set_size,
                    density=event.knot_cycle_density,
                )
        t_recover = self._t_recover
        if t_recover is None:
            self._apply_recovery(record)
        else:
            with t_recover:
                self._apply_recovery(record)
        self.stats.on_detection(record, self)
        return record

    def _apply_recovery(self, record: DetectionRecord) -> None:
        if self.config.detection_mode == "timeout":
            self._recover_by_timeout(record)
        else:
            for event in record.events:
                self._recover(event)

    def _recover(self, event: DeadlockEvent) -> None:
        members = [self._live[mid] for mid in sorted(event.deadlock_set)]
        for msg in members:
            msg.deadlock_count += 1
        victims = self.recovery.victims(members)
        for victim in victims:
            self._remove_victim(victim)

    def _recover_by_timeout(self, record: DetectionRecord) -> None:
        """Heuristic recovery: presume the longest-blocked message deadlocked.

        Models timeout-based recovery schemes (Disha's presumed deadlock,
        compressionless routing): one victim per detection — the message
        blocked beyond ``timeout_threshold`` the longest — is recovered
        regardless of whether a knot actually exists.  The true detector's
        concurrent record lets the statistics count how many of these
        recoveries were unnecessary (victim not in any real deadlock set).
        """
        for event in record.events:
            for mid in event.deadlock_set:
                self._live[mid].deadlock_count += 1
        threshold = self.config.timeout_threshold
        # in timeout mode the detector books the engine-blocked set of
        # this same pass; reuse it instead of rescanning the population
        pool = [self._live[mid] for mid in record.blocked_ids]
        candidates = [
            m
            for m in pool
            if m.blocked_since is not None
            and self.cycle - m.blocked_since >= threshold
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda m: (m.blocked_since, m.id))
        truly_deadlocked = set()
        for event in record.events:
            truly_deadlocked |= event.deadlock_set
        self.stats.on_timeout_recovery(
            self.cycle, necessary=victim.id in truly_deadlocked
        )
        self._remove_victim(victim)

    def _remove_victim(self, victim: Message) -> None:
        if self._obs_tracer is not None:
            self._obs_tracer.instant(
                "recovery",
                victim=victim.id,
                teardown=self.config.recovery_teardown,
            )
        if self.config.recovery_teardown == "flit-by-flit":
            victim.begin_teardown()
            self.blocked_epoch += 1
            # completion (and stats) happen in the movement phase as the
            # message drains through the recovery lane
            return
        victim.remove_from_network(
            self.cycle, delivered=self.recovery.delivers_victim
        )
        self.active.pop(victim.id)
        self._live.pop(victim.id, None)
        self.blocked_epoch += 1
        self.stats.on_recovered(victim, self.cycle)

    # -- driving ------------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one cycle."""
        self.cycle += 1
        if self._t_generate is None:
            self._phase_generate()
            self._phase_allocate()
            self._phase_move()
            self._phase_detect()
        else:
            # profiled path: identical phase sequence, each stage's interval
            # booked on its pre-bound timer (pure observation — see
            # repro.obs).  The intervals share their boundary readings, so
            # booking one stage is timed with the next.
            tracer = self._obs_tracer
            if tracer is not None:
                tracer.cycle = self.cycle
            t0 = perf_counter()
            self._phase_generate()
            t1 = perf_counter()
            self._t_generate.book(t0, t1)
            self._phase_allocate()
            t2 = perf_counter()
            self._t_allocate.book(t1, t2)
            self._phase_move()
            t3 = perf_counter()
            self._t_move.book(t2, t3)
            self._phase_detect()
            self._t_detect.book(t3, perf_counter())
        if self.validation is not None:
            self.validation.maybe_check(self)

    def run(self, progress_every: int = 0) -> RunResult:
        """Run warmup + measurement and return the collected results."""
        cfg = self.config
        total = cfg.warmup_cycles + cfg.measure_cycles
        self.stats.measure_start = cfg.warmup_cycles
        while self.cycle < total:
            self.step()
            if progress_every and self.cycle % progress_every == 0:
                print(
                    f"  cycle {self.cycle}/{total}: "
                    f"{self.messages_in_network} msgs in flight, "
                    f"{len(self.detector.events)} deadlocks"
                )
        self.obs.finalize(self)
        return self.stats.finalize(self)
