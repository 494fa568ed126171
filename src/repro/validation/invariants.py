"""Runtime invariant checker for live simulations.

The engine's optimized paths cache derived state (activity flags, the wake
index, the whole-phase skip flags).
Each cache has a ground truth it must agree with; this module re-derives
those ground truths from scratch and asserts agreement, on a sampling
schedule controlled by ``SimulationConfig.validation_level``:

* ``0`` — off (the default; sweeps and benchmarks pay nothing),
* ``1`` — the full battery every ``validation_interval`` cycles,
* ``2`` — the full battery every cycle (as does ``check_invariants``).

``InvariantChecker().check_now(sim)`` runs the battery once, on demand.

At levels 1–2 every detector-reported deadlock is additionally verified
against the knot *definition* (closed under reachability, strongly
connected, every member message truly blocked) at the detection instant —
before recovery tears the evidence down.

Checks live in a named table so tests can run a subset.  Every check is a
pure observer — running the battery never mutates simulation state, so a
validated run is bit-identical to an unvalidated one (asserted through
:func:`repro.validation.differential.compare` in ``tests/validation/``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.core.detector import DeadlockDetector, DeadlockEvent, DetectionRecord
from repro.errors import SimulationError
from repro.network.message import MessageStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SimulationConfig
    from repro.network.simulator import NetworkSimulator

__all__ = ["InvariantViolation", "InvariantChecker"]


class InvariantViolation(SimulationError):
    """A runtime invariant check failed.

    Carries the check name and the simulation cycle so a violation in a
    long fuzz run pinpoints itself.
    """

    def __init__(self, check: str, cycle: int, detail: str) -> None:
        self.check = check
        self.cycle = cycle
        self.detail = detail
        super().__init__(f"[{check} @ cycle {cycle}] {detail}")

    def __reduce__(self):
        # ``args`` holds only the rendered message, which ``__init__``
        # cannot take back: rebuild from the three fields instead
        return type(self), (self.check, self.cycle, self.detail)


Check = Callable[["NetworkSimulator"], None]


# -- individual checks --------------------------------------------------------------
def check_flit_conservation(sim: "NetworkSimulator") -> None:
    """Every message's flits sum to its length; no flit leaks or duplicates.

    Cross-checks three independent accountings: per-message stage counters,
    per-VC buffer occupancies, and the pool-level occupancy sum.
    """
    pool_occupancy = 0
    for msg in sim.active_messages():
        msg.check_conservation()
        pool_occupancy += msg.flits_in_network
    total_buffered = sum(vc.occupancy for vc in sim.pool.vcs)
    if pool_occupancy != total_buffered:
        raise SimulationError(
            f"flits owned by active messages ({pool_occupancy}) != flits "
            f"buffered in VCs ({total_buffered}): some buffer holds flits "
            "of a non-active message"
        )
    # a queue's head may already be ACTIVE (mid-injection); messages behind
    # it are strictly QUEUED and must not own anything yet
    for q in sim.queues:
        for msg in q:
            if msg.status is MessageStatus.QUEUED and (msg.vcs or msg.ejected):
                raise SimulationError(
                    f"source-queued message {msg.id} owns VCs or ejected flits"
                )


def check_channel_exclusivity(sim: "NetworkSimulator") -> None:
    """Exclusive ownership and capacity bounds on every channel resource."""
    sim.pool.assert_consistent()  # occupancy in [0, capacity]; free => empty
    owners: dict[int, int] = {}
    for msg in sim.active_messages():
        for vc in msg.vcs:
            if vc.owner != msg.id:
                raise SimulationError(
                    f"message {msg.id} lists VC {vc.index} owned by {vc.owner}"
                )
            if vc.index in owners:
                raise SimulationError(
                    f"VC {vc.index} appears in the chains of messages "
                    f"{owners[vc.index]} and {msg.id}"
                )
            owners[vc.index] = msg.id
    for vc in sim.pool.vcs:
        if vc.owner is not None and vc.index not in owners:
            raise SimulationError(
                f"VC {vc.index} owned by {vc.owner} but absent from every "
                "active message's chain"
            )
    for group in sim.pool.reception_groups:
        for rx in group:
            if rx.owner is None:
                continue
            holder = sim.active.get(rx.owner)
            if holder is None:
                raise SimulationError(
                    f"reception channel {rx!r} owned by non-active "
                    f"message {rx.owner}"
                )
            if holder.reception is not rx:
                raise SimulationError(
                    f"reception channel {rx!r} not referenced back by its "
                    f"owner message {rx.owner}"
                )


def check_worm_contiguity(sim: "NetworkSimulator") -> None:
    """An owned VC chain is a connected path ending at the header's node.

    Wormhole switching stretches a message over consecutive links; the
    chain recorded in acquisition order must therefore be path-contiguous
    (each VC's downstream node is the next VC's upstream node), must not
    repeat a VC, and the newest VC must sit at :attr:`Message.head_node`.
    A message still holding flits at the source must remain anchored there.
    """
    for msg in sim.active_messages():
        vcs = msg.vcs
        seen: set[int] = set()
        for vc in vcs:
            if vc.index in seen:
                raise SimulationError(
                    f"message {msg.id} owns VC {vc.index} twice"
                )
            seen.add(vc.index)
        for a, b in zip(vcs, vcs[1:]):
            if a.dst != b.src:
                raise SimulationError(
                    f"message {msg.id} chain breaks between VC {a.index} "
                    f"(-> node {a.dst}) and VC {b.index} (from node {b.src})"
                )
        if vcs and msg.at_source > 0 and vcs[0].src != msg.src:
            raise SimulationError(
                f"message {msg.id} still has {msg.at_source} flits at its "
                f"source {msg.src} but its tail VC starts at {vcs[0].src}"
            )
        if vcs and msg.head_node != vcs[-1].dst:
            raise SimulationError(
                f"message {msg.id} head_node {msg.head_node} disagrees with "
                f"newest VC destination {vcs[-1].dst}"
            )
        if msg.is_draining and vcs and vcs[-1].dst != msg.dest:
            raise SimulationError(
                f"message {msg.id} draining at {vcs[-1].dst}, not its "
                f"destination {msg.dest}"
            )


def check_activity_coherence(sim: "NetworkSimulator") -> None:
    """Fast-path flags and the wake index agree with a from-scratch rescan.

    The maintained flags (routable / stalled / immobile / steady, the
    waiting set, the whole-phase skip flags ``_all_immobile`` and
    ``_alloc_quiet``) must agree with the predicates they cache, and the
    wake index must agree both ways: every registered ``wait_keys`` entry
    is indexed, and every index entry points back at a live waiting
    message that actually waits on that key.
    """
    if not sim.fast_path:
        return
    pool = sim.pool
    for msg in sim.active_messages():
        if msg.routable != sim.routing_eligible(msg):
            raise SimulationError(
                f"message {msg.id}: routable flag {msg.routable} "
                f"disagrees with routing_eligible"
            )
        if (msg.blocked_since is not None) != (msg.id in sim._waiting):
            raise SimulationError(
                f"message {msg.id}: waiting-set membership disagrees "
                f"with blocked_since={msg.blocked_since}"
            )
        if msg.stalled:
            if msg.wait_keys is None:
                raise SimulationError(
                    f"message {msg.id} stalled without wait keys"
                )
            for key in msg.wait_keys:
                if isinstance(key, tuple):  # ("rx", node)
                    if pool.free_reception(key[1]) is not None:
                        raise SimulationError(
                            f"message {msg.id} stalled on free "
                            f"reception at node {key[1]}"
                        )
                elif pool.vcs[key].owner is None:
                    raise SimulationError(
                        f"message {msg.id} stalled on free VC {key}"
                    )
        if msg.immobile:
            if msg.is_draining or msg.recovering:
                raise SimulationError(
                    f"message {msg.id} immobile while draining/recovering"
                )
            for vc in msg.vcs:
                if vc.occupancy < vc.capacity:
                    raise SimulationError(
                        f"message {msg.id} immobile with slack in "
                        f"VC {vc.index}"
                    )
        if msg.steady:
            if not msg.is_draining or msg.recovering:
                raise SimulationError(
                    f"message {msg.id} steady while not draining or "
                    "while recovering"
                )
            if pool.num_vcs != 1 or sim._link_free_at is not None:
                raise SimulationError(
                    f"message {msg.id} steady on a pool with sibling VCs "
                    "or slow links"
                )
            for vc in msg.vcs:
                if not vc.occupancy:
                    raise SimulationError(
                        f"message {msg.id} steady with empty VC {vc.index}"
                    )
    for mid in sim._waiting:
        if mid not in sim.active:
            raise SimulationError(
                f"waiting set retains non-active message {mid}"
            )
    if sim._all_immobile and not all(
        m.immobile for m in sim.active_messages()
    ):
        raise SimulationError("_all_immobile raised over a mobile worm")
    if sim._alloc_quiet >= 0:
        # what the skipped pass would have built: no head to pop, the
        # same number of requests, every one parked
        heads = [q[0] for q in sim.queues if q]
        requests = [m for m in heads if m.status is MessageStatus.QUEUED]
        requests += [m for m in sim.active_messages() if m.routable]
        if (
            len(requests) != sim._alloc_quiet
            or not all(m.stalled for m in requests)
            or any(m.at_source == 0 for m in heads)
        ):
            raise SimulationError(
                f"_alloc_quiet={sim._alloc_quiet} but the request list "
                f"rebuilds to {len(requests)} entries, not all parked"
            )
    index = sim._wake_index
    for msg in sim.active_messages():
        if msg.wait_keys is None:
            continue
        for key in msg.wait_keys:
            if msg.id not in index.get(key, ()):
                raise SimulationError(
                    f"message {msg.id} waits on {key!r} but is missing from "
                    "the wake index"
                )
    for key, waiters in index.items():
        if not waiters:
            raise SimulationError(f"wake index retains empty bucket {key!r}")
        for mid in waiters:
            msg = sim._live.get(mid)
            if msg is None:
                continue  # lazily cleaned on wake; stale ids are permitted
            if msg.wait_keys is not None and key not in msg.wait_keys:
                raise SimulationError(
                    f"wake index lists message {mid} under {key!r} but its "
                    f"wait keys are {msg.wait_keys}"
                )


#: the default battery, in execution order (cheap structural checks first)
DEFAULT_CHECKS: dict[str, Check] = {
    "flit-conservation": check_flit_conservation,
    "channel-exclusivity": check_channel_exclusivity,
    "worm-contiguity": check_worm_contiguity,
    "activity-coherence": check_activity_coherence,
}


class InvariantChecker:
    """Samples a battery of invariant checks over a running simulation.

    The engine calls :meth:`maybe_check` at the end of every cycle and
    :meth:`on_detection` after every detector pass (before recovery).
    Instances are cheap; all cost is in the checks themselves.
    """

    def __init__(
        self,
        interval: int = 1,
        checks: Optional[Iterable[str]] = None,
        verify_detections: bool = True,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        names = list(DEFAULT_CHECKS) if checks is None else list(checks)
        unknown = [n for n in names if n not in DEFAULT_CHECKS]
        if unknown:
            raise ValueError(
                f"unknown invariant check(s) {unknown}; "
                f"known: {list(DEFAULT_CHECKS)}"
            )
        self.checks: dict[str, Check] = {
            n: DEFAULT_CHECKS[n] for n in names
        }
        self.verify_detections = verify_detections
        #: batteries run / individual checks run / detections verified
        self.passes = 0
        self.checks_run = 0
        self.detections_verified = 0
        self.last_checked_cycle = -1

    @classmethod
    def from_config(
        cls, config: "SimulationConfig"
    ) -> Optional["InvariantChecker"]:
        """The checker a configuration asks for, or None when disabled.

        ``check_invariants`` asks for the same every-cycle battery as
        ``validation_level=2``.
        """
        if config.check_invariants or config.validation_level == 2:
            return cls(interval=1)
        if config.validation_level == 1:
            return cls(interval=config.validation_interval)
        return None

    # -- entry points called by the engine -----------------------------------------
    def maybe_check(self, sim: "NetworkSimulator") -> None:
        """Run the battery if this cycle is on the sampling schedule."""
        if sim.cycle % self.interval == 0:
            self.check_now(sim)

    def check_now(self, sim: "NetworkSimulator") -> None:
        """Run every configured check immediately."""
        for name, check in self.checks.items():
            try:
                check(sim)
            except InvariantViolation:
                raise
            except SimulationError as exc:
                raise InvariantViolation(name, sim.cycle, str(exc)) from exc
            self.checks_run += 1
        self.passes += 1
        self.last_checked_cycle = sim.cycle

    def on_detection(
        self, sim: "NetworkSimulator", record: DetectionRecord
    ) -> None:
        """Verify a detector pass's reported deadlocks against the definition.

        Called by the engine between detection and recovery, so the network
        state the events describe is still intact.  Short-circuited passes
        report no events and verify trivially.
        """
        if not self.verify_detections or not record.events:
            return
        graph = DeadlockDetector.build_cwg(sim)
        adjacency = graph.adjacency()
        for event in record.events:
            try:
                self._verify_knot_event(sim, graph, adjacency, event)
            except SimulationError as exc:
                raise InvariantViolation(
                    "knot-soundness", sim.cycle, str(exc)
                ) from exc
        self.detections_verified += 1

    # -- knot soundness ------------------------------------------------------------
    @staticmethod
    def _verify_knot_event(
        sim: "NetworkSimulator",
        graph,
        adjacency,
        event: DeadlockEvent,
    ) -> None:
        """One reported deadlock really is a knot of truly-blocked messages.

        Checks the definition directly on an independently rebuilt CWG:
        (i) no arc leaves the knot and it contains at least one arc,
        (ii) the knot is strongly connected (forward and reverse BFS from
        one member each cover it), (iii) the deadlock set is exactly the
        owners of the knot's vertices, every one of them blocked with all
        requested alternatives owned, and (iv) the resource set is exactly
        the union of the deadlock set's chains.
        """
        knot = event.knot
        if not knot:
            raise SimulationError("reported knot is empty")
        arcs = 0
        for v in knot:
            if v not in adjacency:
                raise SimulationError(
                    f"knot vertex {v!r} is not in the rebuilt CWG"
                )
            succs = adjacency[v]
            for w in succs:
                if w not in knot:
                    raise SimulationError(
                        f"escape arc {v!r} -> {w!r} leaves the reported knot"
                    )
            arcs += len(succs)
        if arcs == 0:
            raise SimulationError("reported knot contains no arc")

        start = next(iter(knot))
        reached = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if reached != knot:
            raise SimulationError(
                f"knot not reachability-closed: {len(reached)} of "
                f"{len(knot)} vertices reached from {start!r}"
            )
        reverse: dict = {v: [] for v in knot}
        for v in knot:
            for w in adjacency[v]:
                reverse[w].append(v)
        reached = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in reverse[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if reached != knot:
            raise SimulationError(
                "knot not strongly connected: reverse reachability from "
                f"{start!r} covers {len(reached)} of {len(knot)} vertices"
            )

        owners = graph.messages_owning(knot)
        if owners != set(event.deadlock_set):
            raise SimulationError(
                f"deadlock set {sorted(event.deadlock_set)} != owners of "
                f"knot vertices {sorted(owners)}"
            )
        for mid in event.deadlock_set:
            msg = sim.message_by_id(mid)
            if msg.blocked_since is None:
                raise SimulationError(
                    f"deadlock-set message {mid} is not blocked"
                )
            targets = graph.requests.get(mid)
            if not targets:
                raise SimulationError(
                    f"deadlock-set message {mid} requests nothing in the CWG"
                )
            for t in targets:
                if graph.owner.get(t) is None:
                    raise SimulationError(
                        f"deadlock-set message {mid} waits on free vertex "
                        f"{t!r} — it has an escape"
                    )
        resources = graph.resources_of(event.deadlock_set)
        if resources != set(event.resource_set):
            raise SimulationError(
                f"resource set diverges from the deadlock set's chains "
                f"(reported {len(event.resource_set)}, "
                f"rebuilt {len(resources)})"
            )
