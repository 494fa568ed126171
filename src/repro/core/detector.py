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

The contracted pipeline
-----------------------

With ``detector_caching`` on (the default) every analysis runs through
:meth:`DeadlockDetector._analyze_pipeline` on the *chain-contracted* graph
(:func:`~repro.core.cycles.contract_graph`): CWGs are mostly unbranched
ownership chains, so contraction shrinks the graph several-fold with
provably identical results.  One Tarjan decomposition of the contracted
multigraph serves both the knot test and the cycle census, and the census
contracts each non-trivial SCC a second time before Johnson enumerates
(see :func:`~repro.core.cycles.count_cycles_contracted`) — a pass costs in
proportion to the *branching* structure of the wait-for graph, not the
length of its ownership chains.  The CWG is rebuilt from live network
state for every pass (:meth:`DeadlockDetector.build_cwg`) and the pipeline
runs once over all of it.

``detector_caching=False`` selects the from-scratch reference instead —
global Tarjan in :func:`~repro.core.knots.find_knots`, then uncontracted
Johnson in :func:`~repro.core.cycles.count_simple_cycles` — which the
differential fuzzer and the oracle compare the pipeline against.  Both
emit deadlock events in one canonical order (knots sorted by their least
vertex), making pipeline passes **bit-identical** to reference passes —
asserted over randomized runs by
``tests/integration/test_detector_caching_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Hashable, Mapping, Optional, Sequence

from repro.core.cwg import ChannelWaitForGraph
from repro.core.cycles import (
    CycleCount,
    contract_graph,
    count_cycles_contracted,
    count_simple_cycles,
)
from repro.core.knots import (
    find_knots,
    find_knots_contracted,
    strongly_connected_components,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.simulator import NetworkSimulator

__all__ = ["DeadlockEvent", "DetectionRecord", "DeadlockDetector", "classify_event"]

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


def classify_event(event: DeadlockEvent) -> str:
    """Single- vs multi-cycle classification (Section 2.2 of the paper)."""
    return event.classification


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
    #: in timeout mode: ids of the engine-blocked messages at this instant
    #: (``sim.blocked_messages()`` equivalent), so the recovery step reuses
    #: the detector's enumeration instead of rescanning the population
    blocked_ids: Optional[tuple[int, ...]] = None

    @property
    def has_deadlock(self) -> bool:
        return bool(self.events)


class DeadlockDetector:
    """Builds CWGs from a live simulation and identifies knots."""

    def __init__(
        self,
        count_cycles: bool = True,
        max_cycles_counted: int = 50_000,
        knot_density_cap: int = 10_000,
        knot_size_enumeration_limit: int = 200,
        record_blocked_durations: bool = False,
        caching: bool = True,
    ) -> None:
        self.count_cycles = count_cycles
        self.max_cycles_counted = max_cycles_counted
        self.knot_density_cap = knot_density_cap
        self.knot_size_enumeration_limit = knot_size_enumeration_limit
        self.record_blocked_durations = record_blocked_durations
        #: enables the contracted pipeline; off selects the from-scratch
        #: reference pass
        self.caching = caching
        self.records: list[DetectionRecord] = []
        self.events: list[DeadlockEvent] = []
        # short-circuit cache: last full pass and the blocked epoch it saw
        self._sc_sim: Optional["NetworkSimulator"] = None
        self._sc_epoch = -1
        self._sc_record: Optional[DetectionRecord] = None
        self._sc_blocked: list[int] = []
        # pass accounting (surfaced by cache_stats() and repro.obs)
        self.full_passes = 0  #: passes that analysed the CWG
        self.shortcircuit_passes = 0  #: passes skipped on a stale epoch
        # observability session of the sim under detection (None or the
        # process-global null observer when obs is off)
        self._obs = None

    def cache_stats(self) -> dict[str, int]:
        """Pass accounting, cumulative over the detector's lifetime.

        ``full_passes`` analysed the CWG (the pipeline or the uncached
        reference); ``shortcircuit_passes`` reused the previous record
        because the blocked epoch had not advanced (see :meth:`detect`).
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
        blocked counts, same cycle census.  Only the per-message blocked
        durations (which depend on the current cycle) are refreshed.  A
        pass that *found* a deadlock is never short-circuited: a persisting
        knot must be re-reported every interval, exactly as the full pass
        would.

        Otherwise the pass rebuilds the CWG and analyses all of it (a
        **full** pass): with ``caching`` set through the contracted
        pipeline (see the module docstring), with ``caching`` off through
        the from-scratch reference.  Both produce identical records.
        """
        cycle = sim.cycle
        if (
            self._sc_record is not None
            and not self._sc_record.events
            and self._sc_sim is sim
            and getattr(sim, "fast_path", False)
            and not getattr(sim, "_uncacheable_routing", True)
            and sim.blocked_epoch == self._sc_epoch
        ):
            self.shortcircuit_passes += 1
            return self._detect_unchanged(sim, cycle)

        obs = getattr(sim, "obs", None)
        self._obs = obs if obs is not None and obs.enabled else None

        self.full_passes += 1
        g = self.build_cwg(sim)
        adjacency = g.adjacency()
        if self.caching:
            events, cycle_count = self._analyze_pipeline(g, adjacency, cycle)
        else:
            # The from-scratch reference the fuzzer and the oracle compare
            # against: global Tarjan + uncontracted Johnson.
            knots = sorted(find_knots(adjacency), key=_knot_key)
            events = [
                self._knot_event(g, adjacency, knot, cycle) for knot in knots
            ]
            cycle_count = (
                count_simple_cycles(adjacency, limit=self.max_cycles_counted)
                if self.count_cycles
                else None
            )

        all_deadlocked: set[int] = set()
        for event in events:
            all_deadlocked.update(event.deadlock_set)

        blocked_list = g.blocked_messages()
        if self._obs is not None:
            reg = self._obs.registry
            reg.histogram("detector/blocked_per_pass").observe(
                len(blocked_list)
            )
            reg.histogram("detector/knots_per_pass").observe(len(events))
        blocked_durations: list[tuple[int, int, bool]] = []
        if self.record_blocked_durations:
            for mid in blocked_list:
                msg = sim.message_by_id(mid)
                since = msg.blocked_since
                duration = cycle - since if since is not None else 0
                blocked_durations.append((mid, duration, mid in all_deadlocked))

        blocked_ids: Optional[tuple[int, ...]] = None
        if sim.config.detection_mode == "timeout":
            # The engine's blocked_messages() additionally drops a message
            # whose awaited reception channel freed after its last attempt;
            # apply the same filter so recovery sees an identical pool.
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
            cwg_vertices=g.num_vertices,
            cwg_arcs=g.num_arcs,
            blocked_messages=len(blocked_list),
            messages_in_network=sim.messages_in_network,
            cycle_count=cycle_count,
            blocked_durations=blocked_durations,
            blocked_ids=blocked_ids,
        )
        self.records.append(record)
        self.events.extend(events)
        self._sc_sim = sim
        self._sc_epoch = getattr(sim, "blocked_epoch", -1)
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

    # -- per-knot event construction --------------------------------------------------
    def _knot_event(
        self,
        g: ChannelWaitForGraph,
        adjacency: Mapping[Vertex, Sequence[Vertex]],
        knot: frozenset[Vertex],
        cycle: int,
    ) -> DeadlockEvent:
        """Classify one knot into a :class:`DeadlockEvent`."""
        deadlock_set = frozenset(g.messages_owning(knot))
        resource_set = frozenset(g.resources_of(deadlock_set))
        sub = {v: [w for w in adjacency[v] if w in knot] for v in knot}
        density = self._knot_density(sub)
        deps, transients = self._dependents(g, deadlock_set)
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

    def _analyze_pipeline(
        self,
        g: ChannelWaitForGraph,
        adjacency: Mapping[Vertex, Sequence[Vertex]],
        cycle: int,
    ) -> tuple[list[DeadlockEvent], Optional[CycleCount]]:
        """Events and census of the contracted pipeline.

        Chain-contract, one Tarjan decomposition shared by the knot test
        and the census, knots in canonical order, then the per-SCC
        re-contracted census.
        """
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t0 = perf_counter() if prof is not None else 0.0
        contracted = contract_graph(adjacency)
        sccs = strongly_connected_components(contracted.succ)
        knots = sorted(find_knots_contracted(contracted, sccs), key=_knot_key)
        events = [self._knot_event(g, adjacency, knot, cycle) for knot in knots]
        if prof is not None:
            now = perf_counter()
            prof.add("detect/knots", now - t0)
            t0 = now
        census = (
            count_cycles_contracted(contracted, self.max_cycles_counted, sccs)
            if self.count_cycles
            else None
        )
        if prof is not None:
            prof.add("detect/census", perf_counter() - t0)
        return events, census

    def _knot_density(self, sub: dict) -> CycleCount:
        """Simple-cycle count within a knot, with structural shortcuts.

        * Every vertex of a strongly connected component with internal
          out-degree exactly 1 lies on one Hamiltonian cycle of the
          component: density is exactly 1, no enumeration needed.  This is
          the overwhelmingly common case (single-cycle deadlocks).
        * Huge multi-cycle knots (the whole-network tangles of deep
          saturation) would take minutes to enumerate; for knots larger
          than ``knot_size_enumeration_limit`` the cyclomatic number
          ``E - V + 1`` — the exact count of *independent* cycles and a
          lower bound on simple cycles in a strongly connected graph — is
          reported with the saturated flag set.
        * Everything else gets the exact bounded Johnson enumeration, run
          on the chain-contracted multigraph: knots are mostly unbranched
          ownership chains, so contraction shrinks the enumeration graph
          several-fold with provably identical bounded counts (cycle
          counts are enumeration-order independent, see
          :mod:`repro.core.cycles`).
        """
        vertices = len(sub)
        arcs = sum(len(v) for v in sub.values())
        if arcs == vertices and all(len(v) == 1 for v in sub.values()):
            return CycleCount(1, False)
        if vertices > self.knot_size_enumeration_limit:
            return CycleCount(max(2, arcs - vertices + 1), True)
        contracted = contract_graph(sub)
        # a knot is strongly connected, so its kept vertices are one SCC
        return count_cycles_contracted(
            contracted, self.knot_density_cap, sccs=[list(contracted.succ)]
        )

    @staticmethod
    def _dependents(
        g: ChannelWaitForGraph, deadlock_set: frozenset[int]
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
        """
        owner = g.owner
        dependents: set[int] = set()
        # need[mid]: waited-on owners still outside the blocking set; a
        # message waiting on any free resource can never become dependent
        # and is excluded up front (as is one waiting on itself — it can
        # only enter via its own membership, which is circular).
        need: dict[int, int] = {}
        waiters_on: dict[int, list[int]] = {}
        ready: list[int] = []
        for mid, targets in g.requests.items():
            if mid in deadlock_set:
                continue
            outside: list[int] = []
            for t in targets:
                o = owner.get(t)
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
        for mid, targets in g.requests.items():
            if mid in deadlock_set or mid in dependents:
                continue
            for t in targets:
                o = owner.get(t)
                if o is not None and o in blocking:
                    transients.add(mid)
                    break
        return frozenset(dependents), frozenset(transients)
