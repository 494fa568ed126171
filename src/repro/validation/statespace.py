"""Canonical simulator snapshots and scripted-choice stepping.

The exhaustive model-checking oracle (:mod:`repro.validation.oracle`) needs
two capabilities the engines themselves never expose:

* a **canonical, hashable snapshot** of the full simulator state — message
  positions (source stage, VC chain occupancies, ejected count), VC
  ownership, reception-channel ownership, injection-queue contents and the
  blocked/arrived wait bits — such that two runs reaching the same physical
  state produce *equal* snapshots regardless of the path taken, and any
  snapshot can be **restored** into a live simulator of either engine; and

* a way to replace every draw of a simulation step with an explicit
  **branch point**, so the full nondeterministic choice tree of one cycle
  (per-node Bernoulli injections, destination and length draws,
  arbitration permutations, selection tie-breaks) can be enumerated or
  replayed from a recorded script: :class:`ScriptedDraws` is a draw source
  of the engines' one seam (:mod:`repro.network.draws`).

Canonicality relies on the *oracle pins* (:func:`oracle_config`): knot-mode
detection every cycle, no recovery and no router pipeline delay.  Under
those pins the absolute cycle number carries no behavioural information —
only the *None-ness* of ``blocked_since`` and ``head_arrival`` matters — so
snapshots store booleans and the reachable state space of a
generation-capped configuration is finite.

Restoration rebuilds the object model, and on the production engine
:meth:`~repro.network.production.ProductionEngine.rebuild_activity` its
activity state, so the oracle enumerates the engine that ships.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import OBSERVATION, SimulationConfig, defaults_of
from repro.errors import ConfigurationError, SimulationError
from repro.network.draws import Draws
from repro.network.message import Message, MessageStatus
from repro.network.simulator import NetworkSimulator

__all__ = [
    "ORACLE_PINS",
    "oracle_config",
    "ChoiceController",
    "ScriptedDraws",
    "next_script",
    "CanonicalState",
    "snapshot_state",
    "clear_state",
    "load_state",
    "step_with_script",
    "successors",
]


# -- oracle configuration pins --------------------------------------------------------
#: config fields forced by :func:`oracle_config`.  Each pin removes a source
#: of behavioural dependence on the absolute cycle number or on state the
#: snapshot does not carry:
#:
#: * ``detection_interval=1`` — the detection phase fires every cycle, so
#:   ``cycle % interval`` carries no information;
#: * ``detection_mode="knot"`` + ``recovery="none"`` — the detector is a
#:   pure observer (blocked *durations* never matter, only blockedness) and
#:   messages leave the system exclusively by delivery, which is what makes
#:   reachability ground truth well-defined;
#: * ``router_delay=0`` — ``head_arrival`` reduces to a boolean;
#: * every observation field at its default — enumeration runs no invariant
#:   checker, profiler or trace buffer.
ORACLE_PINS = dict(
    detector_caching=False,
    recovery="none",
    recovery_teardown="instant",
    detection_mode="knot",
    detection_interval=1,
    router_delay=0,
    count_cycles=False,
    record_blocked_durations=False,
    warmup_cycles=0,
    **defaults_of(OBSERVATION),
)


def oracle_config(config: SimulationConfig) -> SimulationConfig:
    """Pin ``config`` into the oracle's canonical form (see ORACLE_PINS).

    Raises :class:`~repro.errors.ConfigurationError` for configurations the
    oracle cannot enumerate: an unbounded message supply (no finite state
    space) and round-robin arbitration (its monotone rotation counter is
    unbounded, so states never close).
    """
    cfg = config.replace(**ORACLE_PINS)
    if cfg.max_messages is None:
        raise ConfigurationError(
            "the oracle needs max_messages set: an unbounded message "
            "supply has no finite reachable state space"
        )
    if cfg.arbitration == "round-robin":
        raise ConfigurationError(
            "round-robin arbitration carries an unbounded rotation counter; "
            "the oracle supports 'random' and 'oldest-first'"
        )
    cfg.validate()
    return cfg


# -- choice branching ----------------------------------------------------------------
class ChoiceController:
    """Records one step's branch decisions, optionally following a script.

    Every nondeterministic decision of width ``n`` calls :meth:`branch`;
    the first ``len(script)`` calls return the scripted choices and any
    further call defaults to alternative 0.  The ``trail`` — a list of
    ``(choice, num_options)`` pairs — is the complete record of the step's
    decision points, from which :func:`next_script` derives the next
    sibling leaf of the choice tree.
    """

    __slots__ = ("script", "trail")

    def __init__(self, script: Sequence[int] = ()) -> None:
        self.script = list(script)
        self.trail: list[tuple[int, int]] = []

    def branch(self, num_options: int) -> int:
        if num_options <= 1:
            return 0  # not a decision point: never recorded
        pos = len(self.trail)
        if pos < len(self.script):
            choice = self.script[pos]
            if not 0 <= choice < num_options:
                raise SimulationError(
                    f"scripted choice {choice} at position {pos} out of "
                    f"range for {num_options} options — the witness script "
                    f"does not match this simulation's decision points"
                )
        else:
            choice = 0
        self.trail.append((choice, num_options))
        return choice

    def choices(self) -> tuple[int, ...]:
        """The decisions actually taken, as a replayable script."""
        return tuple(c for c, _ in self.trail)


def next_script(trail: Sequence[tuple[int, int]]) -> Optional[list[int]]:
    """The next sibling script in depth-first enumeration order.

    Increments the rightmost non-exhausted decision and truncates
    everything after it (the subtree below a changed decision may have a
    completely different shape).  Returns None when ``trail`` was the last
    leaf of the choice tree.
    """
    for i in range(len(trail) - 1, -1, -1):
        choice, n = trail[i]
        if choice + 1 < n:
            return [c for c, _ in trail[:i]] + [choice + 1]
    return None


class ScriptedDraws(Draws):
    """A draw source whose every draw is a branch point of a controller.

    ``bernoulli`` branches per trial, hit first, unless ``p`` makes it
    certain; ``categorical`` once per draw over its entries of positive
    weight; ``permute`` per Fisher–Yates step (widths ``n .. 2``), so
    enumeration shares prefixes between permutations.  ``permute_unread``
    is ``Draws``': the same branch points on a list nobody reads.
    """

    __slots__ = ("_controller",)

    def __init__(self, controller: ChoiceController) -> None:
        self._controller = controller

    def bernoulli(self, p: float, n: int):
        branch = self._controller.branch
        for i in range(n):
            if p >= 1.0 or (p > 0.0 and not branch(2)):
                yield i

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"empty range for below({n})")
        return self._controller.branch(n)

    def categorical(self, cumulative) -> int:
        edges = (0.0, *cumulative[:-1], 1.0)
        live = [i for i in range(len(cumulative)) if edges[i + 1] > edges[i]]
        return live[self._controller.branch(len(live))]

    def permute(self, seq: list) -> None:
        branch = self._controller.branch
        for i in range(len(seq) - 1, 0, -1):
            j = branch(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


# -- canonical snapshots -------------------------------------------------------------
#: per-message canonical record:
#: (id, src, dest, length, status, at_source, ejected,
#:  ((vc_index, occupancy), ...), rx_index | None, blocked, head_arrived)
MessageRecord = tuple


@dataclass(frozen=True)
class CanonicalState:
    """A canonical, hashable snapshot of the full simulator state.

    ``messages`` holds one record per live (queued or active) message,
    sorted by id; ``queues`` holds each node's injection queue as a tuple
    of message ids *after* applying the engine's lazy head-pop (entries
    that are done or fully injected), so two states that differ only in
    not-yet-collected queue heads — which behave identically — compare
    equal.  ``next_id`` is the generator's id counter: it determines both
    the ids of future messages and how much of the generation budget
    remains.
    """

    next_id: int
    queues: tuple[tuple[int, ...], ...]
    messages: tuple[MessageRecord, ...]

    # -- derived views ---------------------------------------------------------------
    def live_ids(self) -> tuple[int, ...]:
        return tuple(rec[0] for rec in self.messages)

    def active_ids(self) -> tuple[int, ...]:
        return tuple(
            rec[0] for rec in self.messages if rec[4] == MessageStatus.ACTIVE.value
        )

    # -- serialization ---------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "next_id": self.next_id,
            "queues": [list(q) for q in self.queues],
            "messages": [
                [
                    rec[0], rec[1], rec[2], rec[3], rec[4], rec[5], rec[6],
                    [list(pair) for pair in rec[7]], rec[8], rec[9], rec[10],
                ]
                for rec in self.messages
            ],
        }

    def digest(self) -> str:
        """A short stable content hash, used by witness traces."""
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def snapshot_state(sim: NetworkSimulator) -> CanonicalState:
    """Snapshot a live simulator into a :class:`CanonicalState`.

    Works on either engine — it reads only the object model.  Raises
    when the state falls outside the oracle's pinned semantics (a message
    mid-teardown can only exist under flit-by-flit recovery).
    """
    records = []
    for mid in sorted(sim._live):
        msg = sim._live[mid]
        if msg.recovering:
            raise SimulationError(
                f"message {msg.id} is mid-teardown; canonical snapshots "
                "cover the oracle's no-recovery semantics only"
            )
        if msg.status not in (MessageStatus.QUEUED, MessageStatus.ACTIVE):
            raise SimulationError(
                f"live message {msg.id} in unexpected state {msg.status}"
            )
        records.append(
            (
                msg.id, msg.src, msg.dest, msg.length, msg.status.value,
                msg.at_source, msg.ejected,
                tuple((vc.index, vc.occupancy) for vc in msg.vcs),
                None if msg.reception is None else msg.reception.index,
                msg.blocked_since is not None,
                msg.head_arrival is not None,
            )
        )
    queues = []
    for q in sim.queues:
        entries = list(q)
        # canonical form of the engine's lazy queue-head collection: done or
        # fully-injected heads are popped at the next allocation phase
        # before any behavioural effect, so drop them here
        while entries and (entries[0].is_done or entries[0].at_source == 0):
            entries.pop(0)
        queues.append(tuple(m.id for m in entries))
    return CanonicalState(
        next_id=sim.generator._next_id,
        queues=tuple(queues),
        messages=tuple(records),
    )


def clear_state(sim: NetworkSimulator) -> None:
    """Return a simulator to the empty cycle-0 state.

    Together with :func:`load_state` this lets enumeration reuse one
    simulator across thousands of restores instead of reconstructing
    topology, channel pool and routing tables per choice-tree leaf.
    """
    for vc in sim.pool.vcs:
        vc.owner = None
        vc.occupancy = 0
    for group in sim.pool.reception_groups:
        for rx in group:
            rx.owner = None
    for q in sim.queues:
        q.clear()
    sim.active.clear()
    sim._live.clear()
    sim.cycle = 0
    sim._rr_counters = [0, 0]
    gen = sim.generator
    gen._next_id = 0
    gen.generated = 0
    gen.suppressed = 0
    # the detector and statistics accumulate per-pass records; drop them so
    # long enumerations stay flat in memory, and carry no short-circuit
    # verdict across a restore
    sim.detector.records.clear()
    sim.detector.events.clear()
    sim.detector._sc_record = None
    from repro.metrics.stats import StatsCollector

    sim.stats = StatsCollector(sim.config, sim.topology)


def load_state(sim: NetworkSimulator, state: CanonicalState) -> None:
    """Populate an empty (freshly built or cleared) simulator with ``state``."""
    gen = sim.generator
    gen._next_id = state.next_id
    gen.generated = state.next_id
    by_id: dict[int, Message] = {}
    for rec in state.messages:
        (mid, src, dest, length, status, at_source, ejected,
         chain, rx_index, blocked, arrived) = rec
        msg = Message(mid, src, dest, length, 0)
        msg.status = MessageStatus(status)
        msg.at_source = at_source
        msg.ejected = ejected
        for vc_index, occupancy in chain:
            vc = sim.pool.vcs[vc_index]
            vc.acquire(mid)
            vc.occupancy = occupancy
            msg.vcs.append(vc)
        if rx_index is not None:
            rx = sim.pool.reception_groups[dest][rx_index]
            rx.acquire(mid)
            msg.reception = rx
        # only None-ness is behavioural under the oracle pins (knot-mode
        # detection, zero router delay): restore the bits as cycle 0
        msg.blocked_since = 0 if blocked else None
        msg.head_arrival = 0 if arrived else None
        if msg.status is MessageStatus.ACTIVE:
            msg.injected_cycle = 0
        by_id[mid] = msg
    for mid in sorted(by_id):  # canonical insertion order for dict iteration
        msg = by_id[mid]
        sim._live[mid] = msg
        if msg.status is MessageStatus.ACTIVE:
            sim.active[mid] = msg
    for node, ids in enumerate(state.queues):
        for mid in ids:
            sim.queues[node].append(by_id[mid])
    if sim.fast_path:
        sim.rebuild_activity()


# -- scripted stepping ---------------------------------------------------------------
def step_with_script(
    sim: NetworkSimulator, script: Sequence[int] = ()
) -> ChoiceController:
    """Advance ``sim`` one cycle with every draw scripted.

    Both the arbitration/selection stream (``sim.draws``) and the traffic
    stream (``sim.generator.draws``) are pointed at one shared controller:
    the phases run in a fixed order, so a single sequential trail captures
    the step's entire decision sequence.  Returns the controller (its
    ``trail`` records the decision points actually encountered).
    """
    controller = ChoiceController(script)
    sim.draws = sim.generator.draws = ScriptedDraws(controller)
    sim.step()
    return controller


def successors(
    config: SimulationConfig,
    state: CanonicalState,
    limit: Optional[int] = None,
    _sim: Optional[NetworkSimulator] = None,
) -> list[tuple[tuple[int, ...], CanonicalState]]:
    """Every one-step successor of ``state``, with its choice script.

    Enumerates the step's full choice tree depth-first: each leaf restores
    the simulator to ``state`` (so enumeration is path-independent),
    replays the script prefix, and extends it with default choices.
    Distinct scripts may reach the same successor state; callers
    deduplicate.  ``limit`` bounds the number of leaves explored (a guard
    against mis-pinned configurations), raising
    :class:`~repro.errors.SimulationError` when exceeded.

    ``_sim`` is the enumeration fast path: a reusable simulator built from
    ``oracle_config(config)`` (the caller keeps it across states; it is
    cleared and reloaded per leaf).
    """
    sim = _sim if _sim is not None else NetworkSimulator(oracle_config(config))
    out: list[tuple[tuple[int, ...], CanonicalState]] = []
    script: Sequence[int] = ()
    while True:
        clear_state(sim)
        load_state(sim, state)
        controller = step_with_script(sim, script)
        out.append((controller.choices(), snapshot_state(sim)))
        if limit is not None and len(out) > limit:
            raise SimulationError(
                f"choice-tree fan-out exceeded {limit} leaves for one state; "
                "the configuration is too branchy for exhaustive enumeration"
            )
        sibling = next_script(controller.trail)
        if sibling is None:
            return out
        script = sibling
