"""True deadlock detection over live network state.

This is the paper's core instrument: every ``detection_interval`` cycles the
detector snapshots the network into a channel wait-for graph, finds knots
(the exact deadlock criterion), extracts each deadlock's *deadlock set*,
*resource set* and *knot cycle density*, classifies it as single- or
multi-cycle, distinguishes *dependent* and *transient dependent* messages,
and optionally censuses all resource-dependency cycles in the CWG.

The detector is pure observation plus classification; breaking the deadlock
is delegated to a :class:`~repro.core.recovery.RecoveryPolicy` by the
simulation engine.

The worm-level pipeline
-----------------------

Every full pass runs :meth:`DeadlockDetector._analyze_pipeline` on the
**worm multigraph** of the CWG, :func:`~repro.core.cwg.worm_graph`, rather
than on its vertices: one node per message that owns resources, one arc
``m -> owner(t)`` per request target ``t`` of a blocked ``m``, and
``None`` for a free target.
A saturated 16-ary CWG has ~900 vertices but only ~210 worms, and the
front end (:func:`_worm_snapshot`) never builds the vertex-level graph:
one walk over the active messages reads each blocked header's awaited set
from the production engine's wait index (instead of asking the routing
relation again) and each arc's owner straight off the channel object
(``pool.vcs[t].owner``, or the reception channel's), with no owner dict
in between.  It counts the CWG's vertices and arcs on the way, and builds
a message's chain only when a knot or a resource set asks for it.

Why the quotient is exact.  In a CWG a non-head vertex has exactly one
arc (the solid arc to the next VC of its chain), and dashed arcs leave
only chain heads.  So a path that enters a chain — necessarily through a
dashed arc into some position ``p`` — can leave it only after walking
``chain[p:]`` to the head.  Hence:

* *Cycles.*  A simple CWG cycle enters each chain at most once (it would
  otherwise repeat the head), so it is a cyclic sequence of distinct
  messages, each step naming one dashed arc.  That is exactly a simple
  cycle of the worm multigraph with one arc chosen per step: simple cycles
  correspond 1:1, parallel arcs counting as distinct cycles, and a target
  in the requester's own chain is one self-loop arc.  Bounded counts are
  order-independent (:mod:`repro.core.cycles`), so the census and every
  knot density are the same ``CycleCount`` on either graph.
* *Knots.*  A CWG knot (sink SCC with an arc) holds no free vertex (a free
  vertex has no arc) and is closed under successors, so it contains the
  suffix of each member chain from its earliest knot vertex, every member
  head's targets, and nothing else.  Its owners therefore form a sink SCC
  of the worm graph with an arc and no arc to the free sentinel.
  Conversely such an SCC ``S`` expands to the knot
  ``∪ chain[m][p_m:]`` over ``m`` in ``S``, where ``p_m`` is the earliest
  position of ``m``'s chain that a member of ``S`` targets: the set is
  successor-closed by the minimality of each ``p_m``, and strongly
  connected because any worm path realises as a CWG path from head to
  head.

One Tarjan decomposition of the worm multigraph serves the knot test and
the census (:func:`~repro.core.cycles.count_cycles_contracted`, which
contracts each non-trivial SCC once more before Johnson).  Knot densities
need no vertex-level adjacency either: fan-out 1 everywhere is one cycle,
an oversized knot reports its cyclomatic number from counts, and anything
else is a bounded count on the knot's sub-multigraph.  With observability
on, the same decomposition also yields the pass's packet-wait-for-graph
verdicts (:func:`granularity_verdicts`), booked as ``detector/*``
counters for EXT-GRAN; the reference pass books identical ones.

The from-scratch reference the differential fuzzer and the oracle compare
the pipeline against is a subclass the correctness nets construct,
:class:`repro.validation.reference.ReferenceDetector`:
:meth:`DeadlockDetector.build_cwg`, global Tarjan in
:func:`~repro.core.knots.find_knots`, then uncontracted Johnson in
:func:`~repro.core.cycles.count_simple_cycles`.  Both emit deadlock events
in one canonical order (knots sorted by their least vertex), making
pipeline passes **bit-identical** to reference passes, asserted over
randomized runs by
``tests/integration/test_detector_caching_equivalence.py``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING, Callable, Hashable, Mapping, Optional, Sequence,
)

from repro.core.cwg import ChannelWaitForGraph
from repro.core.cycles import ContractedGraph, CycleCount, count_cycles_contracted
from repro.core.knots import strongly_connected_components
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.simulator import NetworkSimulator

__all__ = [
    "DeadlockEvent", "DetectionRecord", "DeadlockDetector",
    "granularity_verdicts",
]

Vertex = Hashable

SINGLE_CYCLE = "single-cycle"
MULTI_CYCLE = "multi-cycle"


def _vertex_key(v: Vertex):
    """Total order over the mixed vertex universe (ints, strings, tuples).

    VC indices are ints, reception channels are ``("rx", node, index)``
    tuples, and test galleries use string vertices; tagging by type makes
    them mutually comparable so knot ordering never depends on hash seeds
    or dict insertion order.
    """
    if isinstance(v, tuple):
        return (2, tuple(_vertex_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    return (0, v)


def _knot_key(knot: frozenset[Vertex]):
    return min(map(_vertex_key, knot))


@dataclass
class WormSnapshot:
    """What a pipeline pass reads of the network: the worm multigraph
    (module docstring) plus the CWG's sizes, with no vertex-level graph.

    ``succ`` equals :func:`~repro.core.cwg.worm_graph` of the pass's CWG and
    ``requests`` its ``requests``, both in ``build_cwg``'s order.  Chains
    are built by ``chain`` only for the messages a knot or a resource set
    asks for.
    """

    succ: dict[int, Sequence]  #: message -> owners of its targets (None: free)
    requests: dict[int, list]  #: blocked message -> its targets, in order
    chain: Callable[[int], list]  #: message -> its owned chain, tail to head
    vertices: int  #: CWG vertices: owned ones plus distinct free targets
    arcs: int  #: CWG arcs: solid plus dashed


def _chain_of(msg) -> list:
    """``msg``'s owned chain as ``build_cwg`` lists it, tail to head."""
    chain: list[Vertex] = [vc.index for vc in msg.vcs]
    rx = msg.reception
    if rx is not None:
        chain.append(("rx", msg.dest, rx.index))
    return chain


def _worm_snapshot(sim: "NetworkSimulator") -> WormSnapshot:
    """The pipeline's front end: the worm multigraph in one walk over the
    active messages, each arc's owner read off the channel object itself.

    Same arcs, requests and request order as ``worm_graph(build_cwg(sim))``.
    A blocked header on the production engine already holds its awaited
    set as ``wait_keys``: the candidate VC indices, or ``("rx", dest)`` for
    every reception channel of ``dest``.  A header without them — every
    header on the reference engine, which never sets them, and keys
    dropped by a tail release — takes ``build_cwg``'s generic derivation.
    """
    pool = sim.pool
    vc_table = pool.vcs
    rx_groups = pool.reception_groups
    rx_range = range(pool.rx_channels)
    active = sim.active
    succ: dict[int, Sequence] = {}
    requests: dict[int, list] = {}
    free: set[Vertex] = set()
    foreign = None  # a channel listed in a chain it is not owned by
    owned = dashed = 0
    for msg in active.values():
        vcs = msg.vcs
        rx = msg.reception
        mid = msg.id
        for vc in vcs:
            if vc.owner != mid:
                foreign = vc
        if rx is not None:
            if rx.owner != mid:
                foreign = rx
            owned += 1
        elif not vcs:
            continue
        owned += len(vcs)
        succ[mid] = ()
        if msg.blocked_since is None or not vcs:
            continue
        keys = msg.wait_keys
        if keys:
            if type(keys[0]) is tuple:
                dest = msg.dest
                targets = [("rx", dest, i) for i in rx_range]
                arcs = [ch.owner for ch in rx_groups[dest]]
            else:
                targets = list(keys)
                arcs = [vc_table[t].owner for t in keys]
        elif not sim.routing_eligible(msg):
            continue
        elif msg.needs_next_vc:
            cands = sim.route_candidates(msg)
            targets = [vc.index for vc in cands]
            arcs = [vc.owner for vc in cands]
        elif msg.needs_reception:
            dest = msg.dest
            targets = [("rx", dest, i) for i in rx_range]
            arcs = [ch.owner for ch in rx_groups[dest]]
        else:
            continue
        if not targets:
            raise SimulationError(f"blocked message {mid} waits on nothing")
        requests[mid] = targets
        succ[mid] = arcs
        dashed += len(targets)
        if None in arcs:
            free.update([t for t, o in zip(targets, arcs) if o is None])
    if foreign is not None:
        # build_cwg names the pair when two chains share the channel
        DeadlockDetector.build_cwg(sim)
        raise SimulationError(
            f"{foreign!r} sits in a chain it is not owned by: "
            "exclusive ownership violated"
        )
    return WormSnapshot(
        succ=succ,
        requests=requests,
        chain=lambda m: _chain_of(active[m]),
        vertices=owned + len(free),
        arcs=owned - len(succ) + dashed,
    )


def granularity_verdicts(
    succ: Mapping[int, Sequence], sccs: list[list], cwg_knots: int
) -> dict[str, int]:
    """One pass's packet-wait-for-graph verdicts, as ``detector/*`` counts.

    Read off the SCCs of the worm graph ``succ``.  The PWFG has the same
    SCCs over messages, so it is cyclic iff an SCC holds two or more
    messages, and such an SCC is a PWFG knot iff its members' arcs stay
    inside it or go to ``⊥``.  A PWFG knot with a ``⊥`` arc is no CWG knot
    (*free wait*); a singleton ``W`` knot, only self-arcs, is a CWG knot
    the PWFG misses (*self wait*).  See THEORY.md §3.1.
    """
    cyclic = pwfg_knots = free_wait = self_wait = 0
    for comp in sccs:
        if len(comp) == 1:
            arcs = succ.get(comp[0])
            if arcs and arcs.count(comp[0]) == len(arcs):
                self_wait += 1
            continue
        cyclic = 1
        members = set(comp)
        exits = [w for m in comp for w in succ[m] if w not in members]
        if all(w is None for w in exits):
            pwfg_knots += 1
            free_wait += bool(exits)
    knot = cwg_knots > 0
    return {
        "detector/passes_cwg_knot": int(knot),
        "detector/passes_pwfg_knot": int(pwfg_knots > 0),
        "detector/passes_pwfg_cycle": cyclic,
        "detector/passes_pwfg_cycle_no_knot": int(cyclic and not knot),
        "detector/passes_verdicts_differ": int(knot != (pwfg_knots > 0)),
        "detector/pwfg_knots_free_wait": free_wait,
        "detector/cwg_knots_self_wait": self_wait,
    }


@dataclass(frozen=True)
class DeadlockEvent:
    """One detected deadlock (one knot)."""

    cycle: int  #: simulation cycle of detection
    knot: frozenset[Vertex]  #: the knot's vertex set
    deadlock_set: frozenset[int]  #: message ids owning knot vertices
    resource_set: frozenset[Vertex]  #: every VC owned by deadlock-set messages
    knot_cycle_density: int  #: distinct simple cycles within the knot
    density_saturated: bool  #: True if the density count hit its cap
    dependent: frozenset[int]  #: blocked messages fully dependent on the set
    transient_dependent: frozenset[int]  #: partially dependent blocked messages

    @property
    def classification(self) -> str:
        return SINGLE_CYCLE if self.knot_cycle_density <= 1 else MULTI_CYCLE

    @property
    def deadlock_set_size(self) -> int:
        return len(self.deadlock_set)

    @property
    def resource_set_size(self) -> int:
        return len(self.resource_set)


@dataclass
class DetectionRecord:
    """Everything one detector invocation observed."""

    cycle: int
    events: list[DeadlockEvent]
    cwg_vertices: int
    cwg_arcs: int
    blocked_messages: int
    messages_in_network: int  #: network population at the detection instant
    cycle_count: Optional[CycleCount]  #: CWG-wide cycle census (if enabled)
    #: (message id, cycles spent blocked, in a deadlock set?) per blocked
    #: message — raw material for timeout-heuristic comparisons.
    blocked_durations: list[tuple[int, int, bool]] = field(default_factory=list)
    #: in timeout mode: ids of the engine-blocked messages at this instant,
    #: the pool the timeout recovery step draws its victims from
    blocked_ids: Optional[tuple[int, ...]] = None


class DeadlockDetector:
    """Builds CWGs from a live simulation and identifies knots."""

    def __init__(
        self,
        count_cycles: bool = True,
        max_cycles_counted: int = 50_000,
        knot_density_cap: int = 10_000,
        knot_size_enumeration_limit: int = 200,
        record_blocked_durations: bool = False,
    ) -> None:
        self.count_cycles = count_cycles
        self.max_cycles_counted = max_cycles_counted
        self.knot_density_cap = knot_density_cap
        self.knot_size_enumeration_limit = knot_size_enumeration_limit
        self.record_blocked_durations = record_blocked_durations
        self.records: list[DetectionRecord] = []
        self.events: list[DeadlockEvent] = []
        # short-circuit cache: last full pass and the blocked epoch it saw.
        # The sim is held weakly: it owns this detector, and a strong
        # back-reference would leave every finished sim to the cyclic GC.
        self._sc_sim: Optional[weakref.ref] = None
        self._sc_epoch = -1
        self._sc_record: Optional[DetectionRecord] = None
        self._sc_blocked: list[int] = []
        # pass accounting (surfaced by cache_stats() and repro.obs)
        self.full_passes = 0  #: passes that analysed the CWG
        self.shortcircuit_passes = 0  #: passes skipped on a stale epoch
        # observability session of the sim under detection (None or the
        # process-global null observer when obs is off)
        self._obs = None
        # granularity_verdicts of the last full pass (obs on only); a
        # short-circuited pass books them again
        self._verdicts: dict[str, int] = {}

    def cache_stats(self) -> dict[str, int]:
        """Pass accounting, cumulative over the detector's lifetime.

        ``full_passes`` analysed the CWG; ``shortcircuit_passes`` reused the
        previous record because the blocked epoch had not advanced (see
        :meth:`detect`).
        """
        return {
            "full_passes": self.full_passes,
            "shortcircuit_passes": self.shortcircuit_passes,
        }

    # -- CWG construction ------------------------------------------------------------
    @staticmethod
    def build_cwg(sim: "NetworkSimulator") -> ChannelWaitForGraph:
        """Snapshot the live network into a channel wait-for graph.

        Vertices are VC indices plus ``("rx", node, index)`` reception
        channels.
        Only messages owning at least one network resource contribute;
        source-queued messages hold nothing and cannot deadlock the network.
        """
        g = ChannelWaitForGraph()
        for msg in sim.active_messages():
            chain: list[Vertex] = [vc.index for vc in msg.vcs]
            if msg.is_draining:
                chain.append(("rx", msg.dest, msg.reception.index))
            if chain:
                g.add_ownership_chain(msg.id, chain)
        for msg in sim.active_messages():
            if not msg.vcs or not sim.routing_eligible(msg):
                continue
            if msg.blocked_since is None:
                # the header arrived this cycle and has not yet *failed* an
                # allocation attempt: it is requesting nothing yet
                continue
            if msg.needs_next_vc:
                cands = sim.route_candidates(msg)
                g.add_request(msg.id, [vc.index for vc in cands])
            elif msg.needs_reception:
                # the wait is recorded even if the reception channel freed
                # after this cycle's allocation phase (the message acquires
                # it next cycle): a free vertex has no outgoing arcs, so it
                # can never contribute to a knot
                g.add_request(
                    msg.id,
                    [
                        ("rx", msg.dest, i)
                        for i in range(sim.pool.rx_channels)
                    ],
                )
        return g

    # -- detection ---------------------------------------------------------------------
    def detect(self, sim: "NetworkSimulator") -> DetectionRecord:
        """Run one detection pass and append its record.

        With the engine's fast path, a pass is **short-circuited** when the
        simulator's ``blocked_epoch`` has not advanced since the previous
        pass and that pass found no deadlock: the epoch counts every
        ownership change and blocked-set transition, so an unchanged epoch
        means an unchanged CWG — same (empty) knot set, same vertex/arc/
        blocked counts, same cycle census, same granularity verdicts.  Only
        the per-message blocked durations (which depend on the current
        cycle) are refreshed.  A pass that *found* a deadlock is never
        short-circuited: a persisting knot must be re-reported every
        interval, exactly as the full pass would.

        Otherwise the pass analyses the whole CWG (a **full** pass, see
        :meth:`_analyze`).
        """
        cycle = sim.cycle
        if (
            self._sc_record is not None
            and not self._sc_record.events
            and self._sc_sim() is sim
            and sim.fast_path
            and sim.blocked_epoch == self._sc_epoch
        ):
            self.shortcircuit_passes += 1
            return self._detect_unchanged(sim, cycle)

        self._obs = sim.obs if sim.obs.enabled else None

        self.full_passes += 1
        events, cycle_count, blocked_list, vertices, arcs = self._analyze(
            sim, cycle
        )

        all_deadlocked: set[int] = set()
        for event in events:
            all_deadlocked.update(event.deadlock_set)

        if self._obs is not None:
            self._observe_pass(len(blocked_list), len(events))
        blocked_durations: list[tuple[int, int, bool]] = []
        if self.record_blocked_durations:
            for mid in blocked_list:
                msg = sim.message_by_id(mid)
                since = msg.blocked_since
                duration = cycle - since if since is not None else 0
                blocked_durations.append((mid, duration, mid in all_deadlocked))

        blocked_ids: Optional[tuple[int, ...]] = None
        if sim.config.detection_mode == "timeout":
            # A message whose awaited reception channel freed after its
            # last attempt is not engine-blocked: drop it from the pool.
            ids = []
            for mid in blocked_list:
                msg = sim.message_by_id(mid)
                if (
                    msg.needs_reception
                    and sim.pool.free_reception(msg.dest) is not None
                ):
                    continue
                ids.append(mid)
            blocked_ids = tuple(ids)

        record = DetectionRecord(
            cycle=cycle,
            events=events,
            cwg_vertices=vertices,
            cwg_arcs=arcs,
            blocked_messages=len(blocked_list),
            messages_in_network=sim.messages_in_network,
            cycle_count=cycle_count,
            blocked_durations=blocked_durations,
            blocked_ids=blocked_ids,
        )
        self.records.append(record)
        self.events.extend(events)
        self._sc_sim = weakref.ref(sim)
        self._sc_epoch = sim.blocked_epoch
        self._sc_record = record
        self._sc_blocked = blocked_list
        return record

    def _detect_unchanged(
        self, sim: "NetworkSimulator", cycle: int
    ) -> DetectionRecord:
        """Record a short-circuited pass (CWG unchanged, no deadlock).

        Structure-derived fields are copied from the cached record; only
        the blocked durations advance with the clock.  ``blocked_ids`` is
        reused as-is: reception-channel freeness is epoch-stable too (every
        acquire/release bumps the epoch).
        """
        prev = self._sc_record
        if self._obs is not None:
            self._observe_pass(prev.blocked_messages, 0)
        blocked_durations: list[tuple[int, int, bool]] = []
        if self.record_blocked_durations:
            for mid in self._sc_blocked:
                msg = sim.message_by_id(mid)
                since = msg.blocked_since
                duration = cycle - since if since is not None else 0
                blocked_durations.append((mid, duration, False))
        record = DetectionRecord(
            cycle=cycle,
            events=[],
            cwg_vertices=prev.cwg_vertices,
            cwg_arcs=prev.cwg_arcs,
            blocked_messages=prev.blocked_messages,
            messages_in_network=prev.messages_in_network,
            cycle_count=prev.cycle_count,
            blocked_durations=blocked_durations,
            blocked_ids=prev.blocked_ids,
        )
        self.records.append(record)
        self._sc_record = record
        return record

    def _observe_pass(self, blocked: int, knots: int) -> None:
        """Book one pass, full or short-circuited, into the registry."""
        reg = self._obs.registry
        reg.histogram("detector/blocked_per_pass").observe(blocked)
        reg.histogram("detector/knots_per_pass").observe(knots)
        for name, value in self._verdicts.items():
            reg.counter(name).inc(value)

    # -- analysis ---------------------------------------------------------------------
    def _knot_event(
        self,
        succ: Mapping[int, Sequence],
        knot: frozenset[Vertex],
        deadlock_set: frozenset[int],
        resource_set: frozenset[Vertex],
        density: CycleCount,
        cycle: int,
    ) -> DeadlockEvent:
        """Classify one knot into a :class:`DeadlockEvent`."""
        deps, transients = self._dependents(succ, deadlock_set)
        return DeadlockEvent(
            cycle=cycle,
            knot=knot,
            deadlock_set=deadlock_set,
            resource_set=resource_set,
            knot_cycle_density=density.count,
            density_saturated=density.saturated,
            dependent=deps,
            transient_dependent=transients,
        )

    def _analyze(self, sim: "NetworkSimulator", cycle: int) -> tuple[
        list[DeadlockEvent], Optional[CycleCount], list[int], int, int
    ]:
        """One full pass: its events, its census, the blocked message ids
        and the CWG's vertex and arc counts, through the worm-level
        pipeline (module docstring)."""
        snap = _worm_snapshot(sim)
        events, census = self._analyze_pipeline(snap, cycle)
        return events, census, list(snap.requests), snap.vertices, snap.arcs

    def _analyze_pipeline(
        self, snap: WormSnapshot, cycle: int
    ) -> tuple[list[DeadlockEvent], Optional[CycleCount]]:
        """Events and census on the worm multigraph (module docstring).

        One Tarjan decomposition shared by the knot test and the census;
        knots are sink SCCs with an arc (an arc to the free sentinel
        leaves the SCC), expanded to chain suffixes and emitted in
        canonical order.
        """
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t0 = perf_counter() if prof is not None else 0.0
        requests = snap.requests
        chain_of = snap.chain
        succ = snap.succ
        sccs = strongly_connected_components(succ)
        knots = []
        for comp in sccs:
            if len(comp) == 1:
                arcs = succ.get(comp[0])
                if not arcs or arcs.count(comp[0]) != len(arcs):
                    continue
                members = {comp[0]}
            else:
                members = set(comp)
                if not all(w in members for m in comp for w in succ[m]):
                    continue
            # the knot enters each member chain at its earliest targeted
            # VC; every member is targeted, so ``chains`` ends up holding
            # exactly the deadlock set's chains
            chains: dict[int, list] = {}
            first: dict[int, int] = {}
            for m in comp:
                for t, o in zip(requests[m], succ[m]):
                    chain = chains.get(o)
                    if chain is None:
                        chains[o] = chain = chain_of(o)
                    p = chain.index(t)
                    if p < first.get(o, p + 1):
                        first[o] = p
            knot: set[Vertex] = set()
            resources: set[Vertex] = set()
            for m, p in first.items():
                chain = chains[m]
                knot.update(chain[p:])
                resources.update(chain)
            # frozen from sets: a frozenset copied from a set is sized to
            # it, and every record keeps its events for the whole run
            knots.append(
                (frozenset(knot), frozenset(members), frozenset(resources), comp)
            )
        knots.sort(key=lambda k: _knot_key(k[0]))
        events = [
            self._knot_event(
                succ,
                knot,
                deadlock_set,
                resource_set,
                self._worm_density(succ, comp, len(knot)),
                cycle,
            )
            for knot, deadlock_set, resource_set, comp in knots
        ]
        if obs is not None:
            self._verdicts = granularity_verdicts(succ, sccs, len(events))
        if prof is not None:
            now = perf_counter()
            prof.add("detect/knots", now - t0)
            t0 = now
        census = (
            count_cycles_contracted(
                ContractedGraph(succ=succ), self.max_cycles_counted, sccs
            )
            if self.count_cycles
            else None
        )
        if prof is not None:
            prof.add("detect/census", perf_counter() - t0)
        return events, census

    def _worm_density(
        self, succ: Mapping[int, Sequence], members: list[int], knot_size: int
    ) -> CycleCount:
        """Simple-cycle count within a knot, from its worm-level SCC.

        * Fan-out 1 at every member is one Hamiltonian cycle: density
          exactly 1, no enumeration (the common single-cycle deadlock).
        * A knot larger than ``knot_size_enumeration_limit`` (the
          whole-network tangles of deep saturation) reports its
          cyclomatic number ``E - V + 1``, a lower bound on its simple
          cycles, with the saturated flag set.
        * Anything else is the exact bounded count on the knot's
          sub-multigraph.

        Every member has at least one arc, all inside the SCC, and the
        knot's arcs are its ``knot_size - len(members)`` solid arcs plus
        the members' fan-outs, so all three cases read off counts and
        the sub-multigraph, never the knot's vertices.
        """
        fan_out = sum(len(succ[m]) for m in members)
        if fan_out == len(members):
            return CycleCount(1, False)
        if knot_size > self.knot_size_enumeration_limit:
            return CycleCount(max(2, fan_out - len(members) + 1), True)
        sub = ContractedGraph(succ={m: succ[m] for m in members})
        return count_cycles_contracted(
            sub, self.knot_density_cap, sccs=[members]
        )

    @staticmethod
    def _dependents(
        succ: Mapping[int, Sequence], deadlock_set: frozenset[int]
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Dependent and transient-dependent messages for one deadlock.

        A blocked message outside the deadlock set is *dependent* when every
        resource it waits on is owned by a deadlock-set or (recursively)
        dependent message — it cannot progress until the deadlock resolves,
        yet removing it would not break the knot.  A *transient* dependent
        waits on at least one such resource but also has an alternative, so
        it may escape on its own.

        Implemented as a reverse-ownership worklist: each candidate counts
        the waited-on owners not yet known to be blocking, and is revisited
        exactly when one of those owners joins the dependent set — O(waits)
        total instead of the naive fixed point's O(blocked²) rescans.
        ``succ`` is the worm graph, so a wait on a free resource is a
        ``None`` arc and an unblocked message has no arcs.
        """
        dependents: set[int] = set()
        # need[mid]: waited-on owners still outside the blocking set; a
        # message waiting on any free resource can never become dependent
        # and is excluded up front (as is one waiting on itself — it can
        # only enter via its own membership, which is circular).
        need: dict[int, int] = {}
        waiters_on: dict[int, list[int]] = {}
        ready: list[int] = []
        for mid, owners in succ.items():
            if not owners or mid in deadlock_set:
                continue
            outside: list[int] = []
            for o in owners:
                if o is None:
                    break
                if o not in deadlock_set:
                    outside.append(o)
            else:
                need[mid] = len(outside)
                if outside:
                    for o in outside:
                        waiters_on.setdefault(o, []).append(mid)
                else:
                    ready.append(mid)
        while ready:
            m = ready.pop()
            if m in dependents:
                continue
            dependents.add(m)
            for w in waiters_on.get(m, ()):
                need[w] -= 1
                if need[w] == 0:
                    ready.append(w)

        transients: set[int] = set()
        blocking = deadlock_set | dependents
        for mid, owners in succ.items():
            if mid in deadlock_set or mid in dependents:
                continue
            for o in owners:
                if o is not None and o in blocking:
                    transients.add(mid)
                    break
        return frozenset(dependents), frozenset(transients)
