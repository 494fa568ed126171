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
:meth:`DeadlockDetector._analyze_region` on the *chain-contracted* graph
(:func:`~repro.core.cycles.contract_graph`): CWGs are mostly unbranched
ownership chains, so contraction shrinks the graph several-fold with
provably identical results.  One Tarjan decomposition of the contracted
multigraph serves both the knot test and the cycle census, and the census
contracts each non-trivial SCC a second time before Johnson enumerates
(see :func:`~repro.core.cycles.count_cycles_contracted`) — a pass costs in
proportion to the *branching* structure of the wait-for graph, not the
length of its ownership chains.

Without an incremental tracker (``cwg_maintenance="rebuild"``, the
default) the pipeline runs once per pass over the whole CWG.

Dirty-region caching
--------------------

With incremental CWG maintenance a pass additionally scales with *what
changed since the last pass* instead of with CWG size.  The CWG is
partitioned into weakly-connected regions; knots, deadlock events and the
bounded cycle census are computed **per region** by the same pipeline and
cached two ways:

* by the region's exact vertex set, reused when no member vertex is in the
  tracker's dirty set (ownership and adjacency provably unchanged — region
  merges and splits always change the vertex set);
* by a canonical region *signature* — the sorted ``(message, chain,
  targets)`` tuples composing the region — in a bounded LRU, so a region
  that returns to a previously-seen shape (common while knots persist or
  traffic cycles through configurations) skips re-analysis even after its
  vertices went dirty.

Per-region censuses merge exactly because bounded cycle counts are
enumeration-order independent (see :mod:`repro.core.cycles`).

``detector_caching=False`` selects the from-scratch reference instead —
global Tarjan in :func:`~repro.core.knots.find_knots`, then uncontracted
Johnson in :func:`~repro.core.cycles.count_simple_cycles` — which the
differential fuzzer and the oracle compare the pipeline against.  All
modes emit deadlock events in one canonical order (knots sorted by their
least vertex), making pipeline passes **bit-identical** to reference
passes — asserted over randomized runs by
``tests/integration/test_detector_caching_equivalence.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Hashable, Mapping, Optional, Sequence

from repro.core.cwg import ChannelWaitForGraph, WaitGraphQueries
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
    from repro.core.incremental import IncrementalCWG
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


@dataclass
class _RegionAnalysis:
    """Cached analysis of one weakly-connected CWG region.

    ``events`` carry the cycle stamp of the pass that computed them and are
    restamped on reuse; everything else is purely structural.
    """

    events: tuple[DeadlockEvent, ...]
    census: Optional[CycleCount]  #: bounded count with the detector's full cap


#: regions kept in the signature LRU; each entry is a handful of frozensets
#: and a CycleCount, so the cap bounds memory without evicting the working
#: set of a steady-state network (regions per pass ≪ this)
_SIG_CACHE_CAP = 512


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
        #: enables the contracted pipeline (per dirty region when the
        #: simulator carries an incremental tracker, over the whole CWG
        #: otherwise); off selects the from-scratch reference pass
        self.caching = caching
        self.records: list[DetectionRecord] = []
        self.events: list[DeadlockEvent] = []
        # short-circuit cache: last full pass and the blocked epoch it saw
        self._sc_sim: Optional["NetworkSimulator"] = None
        self._sc_epoch = -1
        self._sc_record: Optional[DetectionRecord] = None
        self._sc_blocked: list[int] = []
        # dirty-region caches (cached mode only)
        self._cache_sim: Optional["NetworkSimulator"] = None
        self._prev_regions: dict[frozenset, _RegionAnalysis] = {}
        self._sig_cache: OrderedDict[tuple, _RegionAnalysis] = OrderedDict()
        # incremental knot tracking (cached mode without the cycle census):
        # the knots of the previous pass and their densities, keyed by
        # vertex set — see _analyze_tracked
        self._kt_sim: Optional["NetworkSimulator"] = None
        self._kt_knots: dict[frozenset, CycleCount] = {}
        # cache accounting (always maintained — a handful of integer
        # increments per pass; surfaced by cache_stats() and repro.obs)
        self.region_hits = 0  #: regions reused clean via exact vertex set
        self.signature_hits = 0  #: dirty regions reused via the LRU
        self.region_misses = 0  #: fresh region analyses
        self.signature_evictions = 0  #: LRU entries dropped at capacity
        self.full_passes = 0  #: global (uncached) analysis passes
        self.cached_passes = 0  #: dirty-region analysis passes
        self.shortcircuit_passes = 0  #: passes skipped on a stale epoch
        self.tracked_passes = 0  #: incremental knot-tracking passes
        self.tracked_rescans = 0  #: tracked passes that fell back to Tarjan
        self.knots_reused = 0  #: persisting knots reused without re-analysis
        self.knots_discovered = 0  #: knots found by dirty-vertex closure walks
        # observability session of the sim under detection (None or the
        # process-global null observer when obs is off)
        self._obs = None

    def cache_stats(self) -> dict[str, int]:
        """Cache and pass accounting for the dirty-region pipeline.

        ``region_hits`` are regions reused because no member vertex went
        dirty (exact vertex-set match); ``signature_hits`` are dirty
        regions that matched a previously-analyzed canonical signature in
        the LRU; ``region_misses`` are fresh analyses; ``signature_evictions``
        counts LRU entries dropped at capacity.  Pass counters split
        detector invocations into full (whole-CWG analysis: the pipeline
        without a tracker, or the uncached reference), cached
        (dirty-region), tracked (incremental knot tracking) and
        short-circuited (stale blocked epoch) passes; ``tracked_rescans``
        counts tracked passes that chose the global-Tarjan fallback, and
        ``knots_reused`` / ``knots_discovered`` split the knots reported by
        tracked passes into persisting (density reused) and new (closure
        walk or rescan).  Counters are cumulative over the detector's
        lifetime.
        """
        return {
            "region_hits": self.region_hits,
            "signature_hits": self.signature_hits,
            "region_misses": self.region_misses,
            "signature_evictions": self.signature_evictions,
            "full_passes": self.full_passes,
            "cached_passes": self.cached_passes,
            "shortcircuit_passes": self.shortcircuit_passes,
            "tracked_passes": self.tracked_passes,
            "tracked_rescans": self.tracked_rescans,
            "knots_reused": self.knots_reused,
            "knots_discovered": self.knots_discovered,
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

        Otherwise, with ``caching`` set, the pass runs the contracted
        pipeline (see the module docstring): over dirty regions only when
        the simulator carries an incremental tracker (a **cached** pass),
        over the whole CWG when not (a **full** pass).  With ``caching``
        off it runs the from-scratch reference, also a full pass.  All
        produce identical records.
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

        g = sim.cwg_view() if hasattr(sim, "cwg_view") else sim.cwg_snapshot()
        tracker = getattr(sim, "tracker", None)
        if self.caching:
            if tracker is None:
                # no dirty set to partition by: the whole CWG is one region
                self.full_passes += 1
                analysis = self._analyze_region(g, g.adjacency(), cycle)
                events = list(analysis.events)
                cycle_count = analysis.census
            elif self.count_cycles:
                self.cached_passes += 1
                events, cycle_count = self._analyze_cached(sim, g, tracker, cycle)
            else:
                # No census wanted: knots are all that matters, and they
                # can be maintained incrementally across passes instead of
                # recomputed per region (see _analyze_tracked).
                self.tracked_passes += 1
                events = self._analyze_tracked(sim, g, tracker, cycle)
                cycle_count = None
        else:
            # The from-scratch reference the fuzzer and the oracle compare
            # against: global Tarjan + uncontracted Johnson.
            self.full_passes += 1
            adjacency = g.adjacency()
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
        g: WaitGraphQueries,
        adjacency: Mapping[Vertex, Sequence[Vertex]],
        knot: frozenset[Vertex],
        cycle: int,
    ) -> DeadlockEvent:
        """Classify one knot into a :class:`DeadlockEvent`.

        ``adjacency`` only needs to cover the knot's own region — deadlock,
        resource, dependent and transient sets never reach outside the
        knot's weakly-connected component.
        """
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

    # -- dirty-region cached pass -----------------------------------------------------
    def _analyze_cached(
        self,
        sim: "NetworkSimulator",
        g: WaitGraphQueries,
        tracker: "IncrementalCWG",
        cycle: int,
    ) -> tuple[list[DeadlockEvent], Optional[CycleCount]]:
        """Events + census via the region partition, reusing cached regions."""
        if self._cache_sim is not sim:
            self._cache_sim = sim
            self._prev_regions = {}
            self._sig_cache = OrderedDict()
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t0 = perf_counter() if prof is not None else 0.0
        dirty = tracker.consume_dirty()
        adjacency = tracker.adjacency()

        # Weakly-connected regions by union-find over the arcs.
        parent: dict[Vertex, Vertex] = {v: v for v in adjacency}

        def find(v: Vertex) -> Vertex:
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root

        for v, succs in adjacency.items():
            for w in succs:
                rv, rw = find(v), find(w)
                if rv != rw:
                    parent[rw] = rv
        components: dict[Vertex, list[Vertex]] = {}
        for v in adjacency:
            components.setdefault(find(v), []).append(v)
        if prof is not None:
            now = perf_counter()
            prof.add("detect/partition", now - t0)
            t0 = now
            obs.registry.histogram("detector/regions_per_pass").observe(
                len(components)
            )
            obs.registry.histogram("detector/dirty_per_pass").observe(
                len(dirty)
            )

        buckets: Optional[dict[Vertex, list[tuple]]] = None
        new_regions: dict[frozenset, _RegionAnalysis] = {}
        events: list[DeadlockEvent] = []
        census_total = 0
        for root, members in components.items():
            vertex_set = frozenset(members)
            analysis = self._prev_regions.get(vertex_set)
            if analysis is not None and dirty.isdisjoint(vertex_set):
                self.region_hits += 1
            else:
                if buckets is None:
                    buckets = self._bucket_messages(tracker, find)
                sig = tuple(
                    sorted(buckets.get(root, ()), key=lambda t: t[0])
                )
                analysis = self._sig_cache.get(sig)
                if analysis is not None:
                    self.signature_hits += 1
                    self._sig_cache.move_to_end(sig)
                else:
                    self.region_misses += 1
                    analysis = self._analyze_region(
                        g, {v: adjacency[v] for v in members}, cycle
                    )
                    self._sig_cache[sig] = analysis
                    if len(self._sig_cache) > _SIG_CACHE_CAP:
                        self._sig_cache.popitem(last=False)
                        self.signature_evictions += 1
            new_regions[vertex_set] = analysis
            events.extend(analysis.events)
            if analysis.census is not None:
                census_total += analysis.census.count
        self._prev_regions = new_regions
        if prof is not None:
            prof.add("detect/regions", perf_counter() - t0)

        events.sort(key=lambda e: _knot_key(e.knot))
        events = [e if e.cycle == cycle else replace(e, cycle=cycle) for e in events]

        cycle_count: Optional[CycleCount] = None
        if self.count_cycles:
            limit = self.max_cycles_counted
            if limit < 1:
                cycle_count = CycleCount(0, True)
            else:
                # Exact merge: bounded counts are enumeration-order
                # independent, so full-budget per-region counts sum to the
                # global census (see repro.core.cycles).
                cycle_count = CycleCount(
                    min(census_total, limit), census_total >= limit
                )
        return events, cycle_count

    @staticmethod
    def _bucket_messages(tracker: "IncrementalCWG", find) -> dict:
        """Region signatures' raw material: (mid, chain, targets) per region.

        A message's whole chain (and its request targets) lie in one region
        by construction, so bucketing by the chain head's root is exact.
        """
        buckets: dict[Vertex, list[tuple]] = {}
        for mid, chain in tracker.chains.items():
            targets = tracker.requests.get(mid)
            entry = (mid, tuple(chain), tuple(targets) if targets else ())
            buckets.setdefault(find(chain[0]), []).append(entry)
        return buckets

    def _analyze_region(
        self,
        g: WaitGraphQueries,
        region_adj: Mapping[Vertex, Sequence[Vertex]],
        cycle: int,
    ) -> _RegionAnalysis:
        """Fresh analysis of one region (or of the whole CWG).

        The one pipeline of every caching pass: chain-contract, one Tarjan
        decomposition shared by the knot test and the census, knots in
        canonical order, then the per-SCC re-contracted census.
        """
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t0 = perf_counter() if prof is not None else 0.0
        contracted = contract_graph(region_adj)
        sccs = strongly_connected_components(contracted.succ)
        knots = sorted(find_knots_contracted(contracted, sccs), key=_knot_key)
        events = tuple(
            self._knot_event(g, region_adj, knot, cycle) for knot in knots
        )
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
        return _RegionAnalysis(events=events, census=census)

    # -- incremental knot tracking ----------------------------------------------------
    def _analyze_tracked(
        self,
        sim: "NetworkSimulator",
        g: WaitGraphQueries,
        tracker: "IncrementalCWG",
        cycle: int,
    ) -> list[DeadlockEvent]:
        """Events via knot persistence + dirty-vertex discovery (no census).

        The pass maintains the invariant that ``self._kt_knots`` holds
        exactly the knots of the previous pass (vertex set -> density).
        Correctness rests on three facts about the tracker's dirty
        contract (every arc-source mutation and ownership change marks the
        vertex dirty):

        * **Persistence.**  A previous knot none of whose vertices went
          dirty is still exactly a knot: sink-ness and strong connectivity
          depend only on arcs *sourced inside* the knot, all of which are
          unchanged.  Its internal arc structure is unchanged too, so its
          cycle density is reused verbatim.
        * **Locality.**  Every *new* knot contains at least one dirty
          vertex: a knot made only of clean vertices had the same
          out-arcs last pass, hence was already a knot then (and so
          persisted).  On the very first pass the dirty set contains every
          owned vertex (acquisition dirties), so nothing is missed.
        * **Discovery.**  For a dirty vertex ``v``, a forward closure walk
          either (a) completes, yielding ``R = reach(v)`` — ``v`` lies in
          a knot iff ``R`` is strongly connected (checked by one reverse
          traversal inside ``R``) and, for ``|R| == 1``, carries a
          self-loop; ``R`` strongly connected and forward-closed is
          automatically a *maximal* SCC — or (b) touches a vertex already
          known to be in a (surviving or just-found) knot or already
          cleared, which proves ``v`` itself is in no knot (its reach
          strictly contains another knot, or escapes through a knot-free
          vertex).  Only ``v`` is cleared on abort: other visited vertices
          sit on branches that need not reach the abort trigger.

        Worst-case discovery is O(|dirty| x region size), dangerous in the
        churny pre-knot regime, so a pass falls back to one global
        chain-contracted Tarjan scan — still reusing densities of clean
        persisting knots — whenever the dirty set is large relative to the
        graph or a closure walk blows a step budget.  Both paths emit
        identical events, so the heuristic never affects results.

        Event construction matches :meth:`_knot_event` field by field;
        deadlock/resource/dependent sets are recomputed fresh every pass
        (a clean knot's *owners* and chain prefixes outside the knot can
        change without dirtying knot vertices), while densities — a
        function of knot-internal arcs only — persist.
        """
        if self._kt_sim is not sim:
            self._kt_sim = sim
            self._kt_knots = {}
        obs = self._obs
        prof = obs.profiler if obs is not None else None
        t0 = perf_counter() if prof is not None else 0.0
        dirty = tracker.consume_dirty()
        persist = self._kt_knots
        surviving: dict[frozenset, CycleCount] = {}
        for knot, density in persist.items():
            if dirty.isdisjoint(knot):
                surviving[knot] = density
        self.knots_reused += len(surviving)

        owned = len(tracker.owner)
        found = self._discover_incremental(tracker, dirty, surviving)
        if found is None:
            self.tracked_rescans += 1
            found = self._discover_rescan(tracker, surviving)
        new_knots = dict(surviving)
        new_knots.update(found)
        self.knots_discovered += len(found)

        events = []
        for knot in sorted(new_knots, key=_knot_key):
            density = new_knots[knot]
            deadlock_set = frozenset(g.messages_owning(knot))
            deps, transients = self._dependents(g, deadlock_set)
            events.append(
                DeadlockEvent(
                    cycle=cycle,
                    knot=knot,
                    deadlock_set=deadlock_set,
                    resource_set=frozenset(g.resources_of(deadlock_set)),
                    knot_cycle_density=density.count,
                    density_saturated=density.saturated,
                    dependent=deps,
                    transient_dependent=transients,
                )
            )
        self._kt_knots = new_knots
        if prof is not None:
            prof.add("detect/knot_track", perf_counter() - t0)
            reg = obs.registry
            reg.histogram("detector/dirty_per_pass").observe(len(dirty))
            reg.histogram("detector/tracked_vertices").observe(owned)
        return events

    def _discover_incremental(
        self,
        tracker: "IncrementalCWG",
        dirty: set,
        surviving: dict,
    ) -> Optional[dict]:
        """New knots by closure walks from dirty vertices, or None to bail.

        Returns ``None`` when the dirty set is too large a fraction of the
        graph for per-vertex walks to beat one global Tarjan scan, or when
        the walks exceed their collective step budget mid-pass (partial
        finds are discarded; the rescan recomputes everything).
        """
        owned = len(tracker.owner)
        if len(dirty) * 8 > owned:
            return None
        # the tracker's successors() inlined: one dict-get cascade per
        # vertex, and each vertex's successor list is computed exactly once
        # per walk (cached in ``succ_of``) — the reverse-reachability check
        # and the knot-subgraph build below reuse it instead of re-querying
        next_in_chain = tracker.next_in_chain
        owner = tracker.owner
        requests = tracker.requests
        in_known: set = set()
        for knot in surviving:
            in_known.update(knot)
        cleared: set = set()
        found: dict[frozenset, CycleCount] = {}
        budget = 4 * owned + 256
        for v in dirty:
            if v in cleared or v in in_known:
                continue
            # forward closure walk, aborting on contact with known state
            visited = {v}
            stack = [v]
            succ_of: dict = {}
            aborted = False
            while stack:
                u = stack.pop()
                nxt = next_in_chain.get(u)
                if nxt is not None:
                    succs = (nxt,)
                else:
                    m = owner.get(u)
                    succs = (
                        () if m is None else (requests.get(m) or ())
                    )
                succ_of[u] = succs
                for w in succs:
                    if w in visited:
                        continue
                    if w in in_known or w in cleared:
                        aborted = True
                        break
                    visited.add(w)
                    stack.append(w)
                budget -= 1
                if aborted or budget <= 0:
                    break
            if not aborted and stack:
                return None  # budget exhausted mid-walk: bail to the rescan
            if aborted:
                cleared.add(v)
                continue
            # visited == reach(v); knot iff strongly connected (+ self-loop
            # for singletons).  The completed walk popped every visited
            # vertex, so ``succ_of`` covers the closure exactly.
            if len(visited) == 1:
                if v not in succ_of[v]:
                    cleared.add(v)
                    continue
            else:
                preds: dict = {u: [] for u in visited}
                for u, succs in succ_of.items():
                    for w in succs:
                        preds[w].append(u)
                seen = {v}
                rstack = [v]
                while rstack:
                    u = rstack.pop()
                    for p in preds[u]:
                        if p not in seen:
                            seen.add(p)
                            rstack.append(p)
                if len(seen) != len(visited):
                    cleared.add(v)
                    continue
            knot = frozenset(visited)
            # succ_of IS the knot's internal adjacency: the walk closed
            # without abort, so every successor of a visited vertex is
            # visited.  Density analysis only reads it, so no copy.
            found[knot] = self._knot_density(succ_of)
            in_known.update(knot)
        return found

    def _discover_rescan(
        self, tracker: "IncrementalCWG", surviving: dict
    ) -> dict:
        """All current knots by one global chain-contracted Tarjan scan.

        Clean persisting knots keep their cached densities (a rescan finds
        the same vertex sets); only genuinely new knots are enumerated.
        """
        adjacency = tracker.adjacency()
        contracted = contract_graph(adjacency)
        found: dict[frozenset, CycleCount] = {}
        for knot in find_knots_contracted(contracted):
            if knot in surviving:
                continue
            sub = {v: [w for w in adjacency[v] if w in knot] for v in knot}
            found[knot] = self._knot_density(sub)
        return found

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
          counts are enumeration-order independent, the same fact that
          lets :meth:`_analyze_region` merge per-region censuses).
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
        g: WaitGraphQueries, deadlock_set: frozenset[int]
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
