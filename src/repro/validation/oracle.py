"""Exhaustive small-config model-checking oracle for the knot detector.

The differential fuzzer (:mod:`repro.validation.differential`) checks that
the production engine and the detector pipeline agree with their
references; nothing there checks that what they agree on is *correct*.
This module closes that gap for configurations small enough to enumerate
completely: it explores **every reachable state**
of a generation-capped simulation across **all nondeterministic branches**
(per-node Bernoulli injections, destination draws, arbitration shuffles,
selection tie-breaks — see :mod:`repro.validation.statespace`), derives
ground-truth deadlock labels *by reachability* over the resulting state
graph, and cross-checks the knot detector's verdict at every single state.

Ground truth needs no graph theory: under the oracle pins messages leave
the system only by delivery, so a live message is **doomed** at a state
exactly when *no* reachable state has it delivered.  That is computed by a
backward traversal per message — independent of the CWG/knot machinery
under test.  Two properties tie the detector to this truth:

* **soundness** (no false positives) — at *every* reachable state, each
  message the detector places in a deadlock or dependent set is doomed;
* **completeness** (no false negatives) — at every *terminal* state that
  still holds active messages, the detector reports a deadlock and its
  event sets cover every active message.

The per-state biconditional "knot now ⟺ doomed" is deliberately **not**
asserted: reachability can doom a message a few cycles before the losing
wait materializes as a knot (the detector is an instant-by-instant
instrument, not a prophet), and that lead time is correct behaviour.

Any violation yields a **replayable minimal witness** — the shortest
choice-script path from the empty network, in the same artifact spirit as
the fuzzer — and the *teeth* mode proves the oracle is not vacuous by
arming the ``REPRO_INJECT_FAULT`` bookkeeping faults and demanding each
produces a concrete counterexample.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.config import SimulationConfig, config_from_json
from repro.core.cwg import ChannelWaitForGraph
from repro.core.cycles import count_simple_cycles
from repro.core.detector import DeadlockDetector, DetectionRecord
from repro.core.knots import knot_of_vertex
from repro.errors import SimulationError
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceDetector, ReferenceEngine, reference_pass
from repro.validation.statespace import (
    CanonicalState,
    clear_state,
    load_state,
    next_script,
    oracle_config,
    snapshot_state,
    step_with_script,
    successors,
)

__all__ = [
    "OracleCase",
    "ORACLE_GRID",
    "get_case",
    "StateGraph",
    "explore",
    "GroundTruth",
    "analyze",
    "OracleViolation",
    "OracleReport",
    "check_case",
    "build_witness",
    "dump_witness",
    "load_witness",
    "ReplayResult",
    "replay_witness",
    "make_deadlock_witness",
    "make_wake_witness",
    "make_immobile_witness",
    "TeethOutcome",
    "teeth_candidates",
    "run_teeth",
    "TEETH_FAULTS",
    "TEETH_CASE",
    "cwg_doomed_messages",
]


# -- the oracle grid -----------------------------------------------------------------
@dataclass(frozen=True)
class OracleCase:
    """One exhaustively-checkable configuration class.

    The expected counts are **regression pins**: they were measured once at
    full closure and any drift — a changed branch point, a new RNG draw, a
    altered phase order — fails the smoke check loudly instead of silently
    shrinking (or exploding) the verified space.
    """

    name: str
    description: str
    config: SimulationConfig
    expected_states: int
    expected_terminals: int
    expected_deadlocked_terminals: int


def _case(name, description, expected, terminals, deadlocked, **overrides):
    base = dict(
        n=1,
        bidirectional=False,
        num_vcs=1,
        buffer_depth=1,
        routing="dor",
        selection="lowest",
        arbitration="oldest-first",
        traffic="uniform",
        load=1.0,
        message_length=2,
        max_queued_per_node=2,
        seed=0,
    )
    base.update(overrides)
    return OracleCase(
        name=name,
        description=description,
        config=SimulationConfig(**base),
        expected_states=expected,
        expected_terminals=terminals,
        expected_deadlocked_terminals=deadlocked,
    )


#: the verified configuration classes.  Together they cover: a class whose
#: closure *contains* true deadlocks under deterministic arbitration, the
#: same class under random arbitration (shuffle branch points, more
#: terminals), a deadlock-free 2-D torus, a deadlock-free 2-VC ring (the
#: extra VC breaks the 3-cycle), and a deterministic-destination tornado
#: ring (no destination branch points at all).
ORACLE_GRID: tuple[OracleCase, ...] = (
    _case(
        "ring-deadlock",
        "3-ary 1-cube uni ring, 3 two-flit messages, deterministic "
        "arbitration — the minimal wormhole ring deadlock",
        expected=807, terminals=2, deadlocked=1,
        k=3, max_messages=3,
    ),
    _case(
        "ring-random-arb",
        "same ring under random arbitration: shuffle branch points widen "
        "the tree and five distinct deadlocked terminals appear",
        expected=991, terminals=6, deadlocked=5,
        k=3, max_messages=3, arbitration="random",
    ),
    _case(
        "torus-free",
        "2-ary 2-cube uni torus, 3 two-flit messages — dimension-ordered "
        "routing on this radix cannot close a wait cycle",
        expected=4542, terminals=1, deadlocked=0,
        k=2, n=2, max_messages=3,
    ),
    _case(
        "ring-2vc-free",
        "3-ary ring with 2 virtual channels, 2 messages: the extra VC "
        "gives every blocked header an escape, so the closure is "
        "deadlock-free",
        expected=149, terminals=1, deadlocked=0,
        k=3, num_vcs=2, max_messages=2,
    ),
    _case(
        "tornado-free",
        "4-ary uni ring under tornado traffic (deterministic "
        "destinations): only injection branches remain and 4 messages "
        "drain",
        expected=812, terminals=1, deadlocked=0,
        k=4, max_messages=4, traffic="tornado",
    ),
    _case(
        "dragonfly-min-free",
        "(a=2, h=1) dragonfly (3 groups, 6 routers) under hierarchical "
        "minimal routing, 2 two-flit messages: a local-global-local wait "
        "cycle needs two distinct global channels between one group pair, "
        "which the palmtree arrangement never provides — the closure is "
        "deadlock-free",
        expected=3430, terminals=1, deadlocked=0,
        topology="dragonfly", dims=(2, 1, 1), bidirectional=True,
        routing="df-min", max_messages=2,
    ),
    _case(
        "fullmesh-direct-free",
        "3-node full mesh under direct routing: every message holds at "
        "most one channel and waits only on reception, so no wait cycle "
        "can close at any reachable state",
        expected=24, terminals=1, deadlocked=0,
        topology="fullmesh", dims=(3,), bidirectional=True,
        routing="fm-direct", selection="random", max_messages=3,
    ),
    _case(
        "fullmesh-2hop-deadlock",
        "the same 3-node full mesh with one misroute hop allowed "
        "(fm-2hop): three mutually-misrouted worms close a 3-channel "
        "knot — misrouting provably reintroduces deadlock",
        expected=204, terminals=3, deadlocked=2,
        topology="fullmesh", dims=(3,), bidirectional=True,
        routing="fm-2hop", selection="random", max_messages=3,
    ),
    _case(
        "fullmesh-2hop-idle",
        "the same mesh, 4 one-flit messages injected with probability "
        "1/2: a 4th message can inject after idle cycles while three "
        "deadlocked worms sit immobile",
        expected=3799, terminals=5, deadlocked=4,
        topology="fullmesh", dims=(3,), bidirectional=True,
        routing="fm-2hop", selection="random", max_messages=4,
        load=0.25, message_length=1,
    ),
    _case(
        "ring-hybrid-mix",
        "the 3-ary ring under hybrid tornado/uniform traffic and a 1/2-flit "
        "length mix, every trial injecting: categorical branch points",
        expected=156, terminals=9, deadlocked=8,
        k=3, max_messages=3, load=3.0, traffic="hybrid",
        traffic_mix=(("tornado", 0.5), ("uniform", 0.5)),
        length_mix=((1, 0.5), (2, 0.5)),
    ),
)


def get_case(name: str) -> OracleCase:
    for case in ORACLE_GRID:
        if case.name == name:
            return case
    known = ", ".join(c.name for c in ORACLE_GRID)
    raise KeyError(f"unknown oracle case {name!r}; known cases: {known}")


# -- state-graph exploration ---------------------------------------------------------
class StateGraph:
    """The full reachable state graph of one pinned configuration.

    States are interned to indices in BFS discovery order (index 0 is the
    empty initial state).  ``succ[i]`` is the sorted tuple of distinct
    successor indices; ``scripts[i][j]`` is the first choice script found
    that steps ``i`` to ``j``; ``parent[i]`` is the BFS tree edge
    ``(parent_index, script)``, which makes every state's discovery path a
    *shortest* path — the minimality guarantee behind witness traces.
    """

    __slots__ = ("config", "states", "index", "succ", "scripts", "parent")

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.states: dict[CanonicalState, int] = {}
        self.index: list[CanonicalState] = []
        self.succ: list[tuple[int, ...]] = []
        self.scripts: list[dict[int, tuple[int, ...]]] = []
        self.parent: list[Optional[tuple[int, tuple[int, ...]]]] = []

    def __len__(self) -> int:
        return len(self.index)

    def intern(self, state: CanonicalState) -> tuple[int, bool]:
        idx = self.states.get(state)
        if idx is not None:
            return idx, False
        idx = len(self.index)
        self.states[state] = idx
        self.index.append(state)
        self.succ.append(())
        self.scripts.append({})
        self.parent.append(None)
        return idx, True

    def is_terminal(self, idx: int) -> bool:
        """Only successor is itself: the network can make no further move."""
        return self.succ[idx] == (idx,)

    def terminal_indices(self) -> list[int]:
        return [i for i in range(len(self.index)) if self.is_terminal(i)]

    def deadlocked_terminal_indices(self) -> list[int]:
        return [
            i for i in self.terminal_indices() if self.index[i].active_ids()
        ]

    def path_to(self, idx: int) -> list[tuple[tuple[int, ...], int]]:
        """BFS-tree path from the initial state: ``[(script, state_index)]``.

        The returned scripts, replayed in order from the empty network,
        traverse a shortest path to ``idx``.
        """
        steps: list[tuple[tuple[int, ...], int]] = []
        cur = idx
        while self.parent[cur] is not None:
            parent_idx, script = self.parent[cur]
            steps.append((script, cur))
            cur = parent_idx
        if cur != 0:
            raise SimulationError(f"state {idx} has no path from the root")
        steps.reverse()
        return steps


def _stepper(config: SimulationConfig, engine: Callable = NetworkSimulator):
    """An ``engine`` for single steps from restored states.  Each steps
    cycle 0 to 1, so an interval of 2 spares it a detector pass nobody
    reads: under the pins detection only observes, and check_case runs the
    detector on every state itself."""
    return engine(config.replace(detection_interval=2))


def explore(
    config: SimulationConfig,
    max_states: int = 500_000,
    max_leaves_per_state: int = 100_000,
    log: Optional[Callable[[str], None]] = None,
    engine: Callable = NetworkSimulator,
) -> StateGraph:
    """Enumerate the configuration's full reachable state graph (BFS).

    ``engine`` builds the stepping simulator (the graph of
    :class:`~repro.validation.reference.ReferenceEngine` must be the same).
    Exhausts the state space to closure; ``max_states`` is a safety rail
    against mis-pinned configurations (raises
    :class:`~repro.errors.SimulationError` rather than returning a
    truncated graph — a partial closure would silently weaken every
    downstream guarantee).
    """
    pinned = oracle_config(config)
    graph = StateGraph(pinned)
    sim = _stepper(pinned, engine)
    initial = snapshot_state(sim)
    graph.intern(initial)
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for idx in frontier:
            state = graph.index[idx]
            first_scripts: dict[int, tuple[int, ...]] = {}
            for script, succ_state in successors(
                config, state, limit=max_leaves_per_state, _sim=sim
            ):
                succ_idx, fresh = graph.intern(succ_state)
                if fresh:
                    graph.parent[succ_idx] = (idx, script)
                    next_frontier.append(succ_idx)
                first_scripts.setdefault(succ_idx, script)
                if len(graph) > max_states:
                    raise SimulationError(
                        f"state space exceeded {max_states} states before "
                        "closure; the configuration is too large for "
                        "exhaustive checking"
                    )
            graph.succ[idx] = tuple(sorted(first_scripts))
            graph.scripts[idx] = first_scripts
        frontier = next_frontier
        if log:
            log(f"  explored {len(graph)} states, frontier {len(frontier)}")
    return graph


# -- ground truth by reachability ----------------------------------------------------
@dataclass
class GroundTruth:
    """Reachability-derived deadlock labels, independent of the detector.

    ``doomed[i]`` is the set of message ids live at state ``i`` for which
    no reachable state has them delivered — the definition of deadlocked
    messages under delivery-only semantics.
    """

    doomed: list[frozenset[int]]
    terminals: tuple[int, ...]
    deadlocked_terminals: tuple[int, ...]


def analyze(graph: StateGraph) -> GroundTruth:
    """Label every state of ``graph`` with its doomed message set.

    One backward traversal per message id: seed with the states where the
    message has been delivered, walk predecessor edges to find every state
    that can still *reach* a delivery, and doom the message everywhere else
    it is live.  Terminal self-loops need no special casing — a terminal
    state reaches only itself.
    """
    n = len(graph)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in graph.succ[i]:
            if j != i:
                preds[j].append(i)
    universe = max((s.next_id for s in graph.index), default=0)
    doomed_sets: list[set[int]] = [set() for _ in range(n)]
    for mid in range(universe):
        # seed: states where mid has left the system (delivered)
        can_escape = bytearray(n)
        stack = [
            i
            for i, s in enumerate(graph.index)
            if mid < s.next_id and mid not in s.live_ids()
        ]
        for i in stack:
            can_escape[i] = 1
        while stack:
            j = stack.pop()
            for i in preds[j]:
                if not can_escape[i]:
                    can_escape[i] = 1
                    stack.append(i)
        for i, s in enumerate(graph.index):
            if not can_escape[i] and mid in s.live_ids():
                doomed_sets[i].add(mid)
    terminals = tuple(graph.terminal_indices())
    deadlocked = tuple(graph.deadlocked_terminal_indices())
    return GroundTruth(
        doomed=[frozenset(s) for s in doomed_sets],
        terminals=terminals,
        deadlocked_terminals=deadlocked,
    )


# -- detector cross-check ------------------------------------------------------------
@dataclass(frozen=True)
class OracleViolation:
    """One disagreement between the detector and reachability ground truth."""

    kind: str  #: "false-positive" | "missed-deadlock" | "uncovered-terminal"
    #: | "knot-definition" | "pipeline-census" | "state-count"
    state_index: int
    detail: str


@dataclass
class OracleReport:
    """The outcome of exhaustively checking one oracle case."""

    case: OracleCase
    num_states: int
    num_terminals: int
    num_deadlocked_terminals: int
    violations: list[OracleViolation] = field(default_factory=list)
    elapsed: float = 0.0
    graph: Optional[StateGraph] = None
    truth: Optional[GroundTruth] = None

    @property
    def counts_match(self) -> bool:
        return (
            self.num_states == self.case.expected_states
            and self.num_terminals == self.case.expected_terminals
            and self.num_deadlocked_terminals
            == self.case.expected_deadlocked_terminals
        )

    @property
    def ok(self) -> bool:
        return not self.violations and self.counts_match

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"[{status}] {self.case.name}: {self.num_states} states, "
            f"{self.num_terminals} terminals "
            f"({self.num_deadlocked_terminals} deadlocked), "
            f"{len(self.violations)} violations, {self.elapsed:.1f}s"
        )


def _fresh_detector() -> DeadlockDetector:
    """A reference full-pass detector (the *subject under test*)."""
    return ReferenceDetector(count_cycles=False)


def _pipeline_census_mismatch(
    sim: NetworkSimulator,
    record: DetectionRecord,
    adjacency: dict,
) -> Optional[str]:
    """The as-shipped worm-level pipeline against from-scratch counts.

    ``sim`` holds the restored state.  Runs a fresh pipeline detector with
    the census on (one whole-CWG pipeline pass) and compares its events
    and CWG size to the reference pass's, its census to plain
    :func:`count_simple_cycles` over the CWG, and every knot's cycle
    density to plain :func:`count_simple_cycles` over the knot's induced
    subgraph.  Returns a description of the first disagreement, or None.
    """
    pipeline = DeadlockDetector(count_cycles=True)
    got = pipeline.detect(sim)
    size = (got.cwg_vertices, got.cwg_arcs, got.blocked_messages)
    want = (record.cwg_vertices, record.cwg_arcs, record.blocked_messages)
    if size != want:
        return (
            f"pipeline CWG has {size} vertices/arcs/blocked, the reference "
            f"pass's has {want}"
        )
    if got.events != record.events:
        return (
            f"pipeline events {[sorted(map(repr, e.knot)) for e in got.events]} "
            f"differ from the reference pass's "
            f"{[sorted(map(repr, e.knot)) for e in record.events]}"
        )
    census = count_simple_cycles(adjacency, limit=pipeline.max_cycles_counted)
    if got.cycle_count != census:
        return f"pipeline census {got.cycle_count} vs from-scratch {census}"
    for event in got.events:
        knot = event.knot
        sub = {v: [w for w in adjacency[v] if w in knot] for v in knot}
        density = count_simple_cycles(sub, limit=pipeline.knot_density_cap)
        if (event.knot_cycle_density, event.density_saturated) != (
            density.count,
            density.saturated,
        ):
            return (
                f"knot {sorted(map(repr, knot))} density "
                f"{event.knot_cycle_density} (saturated="
                f"{event.density_saturated}) vs from-scratch {density}"
            )
    return None


def _arrive(sim: NetworkSimulator, graph: StateGraph, idx: int) -> None:
    """Put ``sim`` in state ``idx`` by replaying its discovering step, so
    the wait index the detector reads is the engine's own."""
    clear_state(sim)
    parent = graph.parent[idx]
    if parent is None:
        load_state(sim, graph.index[idx])
    else:
        load_state(sim, graph.index[parent[0]])
        step_with_script(sim, parent[1])


def _flagged_sets(record: DetectionRecord) -> tuple[set[int], set[int]]:
    """(deadlocked ∪ dependent, transient-dependent) over a record's events."""
    hard: set[int] = set()
    transient: set[int] = set()
    for event in record.events:
        hard.update(event.deadlock_set)
        hard.update(event.dependent)
        transient.update(event.transient_dependent)
    return hard, transient


def check_case(
    case: OracleCase,
    log: Optional[Callable[[str], None]] = None,
    keep_graph: bool = False,
) -> OracleReport:
    """Exhaustively cross-check the detector against ground truth.

    Runs a fresh full detector pass on **every** reachable state and
    verifies, per state: soundness of the deadlock and dependent sets
    against the reachability-doomed set, the knot *definition* for every
    reported knot (each knot vertex's reachable set must be exactly the
    knot and every member must have an out-arc), the worm-level pipeline's
    events, cycle census and knot densities against the reference pass and
    from-scratch :func:`~repro.core.cycles.count_simple_cycles`, and — at
    terminal states with active messages — completeness of the reported
    event coverage.  Each state is reached by its discovering step
    (:func:`_arrive`), so the pipeline reads the wait index the engine
    registered.
    """
    started = time.perf_counter()
    graph = explore(case.config, log=log)
    truth = analyze(graph)
    sim = _stepper(graph.config)
    violations: list[OracleViolation] = []
    for idx, state in enumerate(graph.index):
        _arrive(sim, graph, idx)
        record = _fresh_detector().detect(sim)
        hard, transient = _flagged_sets(record)
        doomed = truth.doomed[idx]
        # soundness: everything the detector condemns must really be doomed
        # (transient dependents are excluded — they may still escape, which
        # is exactly what "transient" asserts)
        false_pos = hard - doomed
        if false_pos:
            violations.append(OracleViolation(
                "false-positive", idx,
                f"detector flags {sorted(false_pos)} as deadlocked/dependent "
                f"but reachability shows they can still be delivered "
                f"(doomed set: {sorted(doomed)})",
            ))
        adjacency = DeadlockDetector.build_cwg(sim).adjacency()
        mismatch = _pipeline_census_mismatch(sim, record, adjacency)
        if mismatch:
            violations.append(OracleViolation("pipeline-census", idx, mismatch))
        # the reported knots must satisfy the knot definition on the CWG
        for event in record.events:
            probe = min(event.knot, key=repr)
            definitional = knot_of_vertex(adjacency, probe)
            if definitional != event.knot:
                violations.append(OracleViolation(
                    "knot-definition", idx,
                    f"event knot {sorted(map(repr, event.knot))} is not the "
                    f"definitional knot of vertex {probe!r}",
                ))
        # completeness at terminal states: stuck active messages must be
        # reported, and the event sets must cover all of them
        if graph.is_terminal(idx):
            active = set(state.active_ids())
            if active:
                if not record.events:
                    violations.append(OracleViolation(
                        "missed-deadlock", idx,
                        f"terminal state holds stuck active messages "
                        f"{sorted(active)} but the detector reports no deadlock",
                    ))
                elif active - hard - transient:
                    violations.append(OracleViolation(
                        "uncovered-terminal", idx,
                        f"stuck messages {sorted(active - hard - transient)} "
                        f"missing from every event's deadlock/dependent/"
                        f"transient sets",
                    ))
    report = OracleReport(
        case=case,
        num_states=len(graph),
        num_terminals=len(truth.terminals),
        num_deadlocked_terminals=len(truth.deadlocked_terminals),
        violations=violations,
        elapsed=time.perf_counter() - started,
        graph=graph if keep_graph else None,
        truth=truth if keep_graph else None,
    )
    if not report.counts_match:
        violations.append(OracleViolation(
            "state-count", -1,
            f"closure drifted from its regression pin: {report.num_states}/"
            f"{report.num_terminals}/{report.num_deadlocked_terminals} "
            f"states/terminals/deadlocked vs expected "
            f"{case.expected_states}/{case.expected_terminals}/"
            f"{case.expected_deadlocked_terminals}",
        ))
    if log:
        log(report.summary())
    return report


# -- witnesses -----------------------------------------------------------------------
def _organic_scripts(
    config: SimulationConfig, path_states: Sequence[CanonicalState]
) -> list[list[int]]:
    """Choice scripts that walk a *live* simulator through ``path_states``.

    Graph edge scripts are recorded against the canonical restoration order
    (``load_state`` inserts messages by sorted id); a run from the empty
    network visits its service lists in *arrival* order, so the same
    successor sets carry different script labels.  Witnesses replay as one
    run, so this re-derives, per path edge, the script that takes the live
    simulator to the same canonical successor: depth-first, restarting from
    the root per candidate (paths are shortest, so restarts are cheap).
    """
    pinned = oracle_config(config)
    scripts: list[list[int]] = []
    for depth, target in enumerate(path_states):
        script: Sequence[int] = ()
        while True:
            sim = NetworkSimulator(pinned)
            for s in scripts:
                step_with_script(sim, s)
            controller = step_with_script(sim, script)
            if snapshot_state(sim) == target:
                scripts.append(list(controller.choices()))
                break
            sibling = next_script(controller.trail)
            if sibling is None:
                raise SimulationError(
                    f"no organic script reaches path state {depth}: the "
                    "canonical and organic successor sets diverged "
                    "(canonicalization bug)"
                )
            script = sibling
    return scripts


def _verdict(record: Optional[DetectionRecord]) -> dict:
    """A detection record as a witness step records it (None: no pass)."""
    hard, transient = _flagged_sets(record) if record else (set(), set())
    return {
        "has_deadlock": bool(record and record.events),
        "flagged": sorted(hard),
        "transient": sorted(transient),
    }


def _reference_verdict(
    sim: NetworkSimulator, state: CanonicalState
) -> dict:
    """The reference full-pass verdict at ``state`` (restored canonically)."""
    clear_state(sim)
    load_state(sim, state)
    return _verdict(_fresh_detector().detect(sim))


def build_witness(
    graph: StateGraph,
    target: int,
    kind: str,
    detail: str = "",
    path: Optional[list[tuple[tuple[int, ...], int]]] = None,
) -> dict:
    """A replayable artifact for the shortest path to ``graph`` state ``target``.

    Mirrors the fuzzer's artifact shape: the full config for
    reconstruction, the step-by-step choice scripts with per-state digests
    and reference detector verdicts (so replay divergence — state drift
    *or* a stale cached verdict — is localized to a cycle), and the final
    canonical state for end-state comparison.  ``path`` overrides the
    BFS-tree path (for witnesses that must traverse a specific edge).
    """
    if path is None:
        path = graph.path_to(target)
    states = [graph.index[idx] for _, idx in path]
    scripts = _organic_scripts(graph.config, states)
    ref_sim = NetworkSimulator(graph.config)
    steps = [
        {
            "choices": script,
            "digest": state.digest(),
            "verdict": _reference_verdict(ref_sim, state),
        }
        for script, state in zip(scripts, states)
    ]
    final = graph.index[target]
    return {
        "kind": kind,
        "detail": detail,
        "config": dataclasses.asdict(graph.config),
        "steps": steps,
        "final_state": final.to_json(),
        "final_verdict": steps[-1]["verdict"],
        "replay": "python -m repro oracle replay <artifact>",
    }


def dump_witness(payload: dict, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_witness(path: Path | str) -> dict:
    payload = json.loads(Path(path).read_text())
    payload["config"] = dataclasses.asdict(config_from_json(payload["config"]))
    return payload


@dataclass
class ReplayResult:
    """The outcome of replaying a witness path."""

    ok: bool
    diverged_at: Optional[int]  #: step index of the first digest mismatch
    divergence: str  #: "" | "state" | "verdict"
    detail: str
    final_digest: str


def replay_witness(payload: dict, production: bool = False) -> ReplayResult:
    """Replay a witness's choice scripts and compare against its recording.

    ``production=False`` replays on the reference engine with the
    reference detector — this must reproduce the recorded digests exactly
    and runs none of the machinery the bookkeeping faults break.
    ``production=True`` replays on the production engine with the
    detector's worm-level pipeline and its short-circuit on the blocked
    epoch, the detector machinery the enumeration steps without:
    the state digests must still match cycle-for-cycle (the engines are
    bit-identical) and the replay engine's *own* detector verdict must
    match the recorded full-pass reference at every step — this is the
    teeth-mode subject, where an armed bookkeeping fault surfaces as a
    localized state or verdict divergence.  Both engines draw through the
    same seam (:mod:`repro.network.draws`), so the scripted source walks
    either one down the recorded choices.
    """
    config = oracle_config(config_from_json(payload["config"]))
    sim = NetworkSimulator(config) if production else reference_pass(
        config, ReferenceEngine
    )
    digest = ""
    for step_index, step in enumerate(payload["steps"]):
        try:
            step_with_script(sim, step["choices"])
        except SimulationError as exc:
            # an armed fault can change the branch widths mid-step, making
            # the recorded script unreplayable — that *is* a divergence
            return ReplayResult(
                ok=False,
                diverged_at=step_index,
                divergence="state",
                detail=f"script unreplayable at step {step_index}: {exc}",
                final_digest=digest,
            )
        digest = snapshot_state(sim).digest()
        if digest != step["digest"]:
            return ReplayResult(
                ok=False,
                diverged_at=step_index,
                divergence="state",
                detail=(
                    f"state digest diverged at step {step_index}: "
                    f"{digest} != recorded {step['digest']}"
                ),
                final_digest=digest,
            )
        # verdict from the replay engine's own detector (the pipeline and
        # its epoch short-circuit in production mode) vs the recorded
        # reference full-pass verdict
        got = _verdict(sim.detector.records[-1] if sim.detector.records else None)
        if got != step["verdict"]:
            return ReplayResult(
                ok=False,
                diverged_at=step_index,
                divergence="verdict",
                detail=(
                    f"detector verdict diverged at step {step_index}: "
                    f"replay engine {got}, reference recorded {step['verdict']}"
                ),
                final_digest=digest,
            )
    return ReplayResult(
        ok=True, diverged_at=None, divergence="", detail="", final_digest=digest
    )


def make_deadlock_witness(case: OracleCase, graph: Optional[StateGraph] = None) -> dict:
    """The shortest path into a true deadlock of ``case`` (its closure must
    contain one)."""
    if graph is None:
        graph = explore(case.config)
    deadlocked = graph.deadlocked_terminal_indices()
    if not deadlocked:
        raise SimulationError(
            f"oracle case {case.name!r} has a deadlock-free closure; "
            "pick a case with expected_deadlocked_terminals > 0"
        )
    # BFS tree paths are shortest paths; pick the nearest deadlocked terminal
    target = min(deadlocked, key=lambda i: len(graph.path_to(i)))
    return build_witness(
        graph,
        target,
        kind="deadlock",
        detail=(
            f"shortest path to a deadlocked terminal of case {case.name!r}"
        ),
    )


def make_wake_witness(case: OracleCase, graph: Optional[StateGraph] = None) -> dict:
    """The shortest path traversing a blocked→unblocked transition.

    An edge where a previously-blocked message comes unblocked (or is
    delivered outright) exercises the fast path's wake index — exactly the
    bookkeeping the ``skip-wake`` fault severs — so replaying this witness
    with that fault armed must diverge.
    """
    if graph is None:
        graph = explore(case.config)
    best: Optional[tuple[int, int, int]] = None  # (path_len, src, dst)
    for src in range(len(graph)):
        blocked_here = {
            rec[0] for rec in graph.index[src].messages if rec[9]
        }
        if not blocked_here:
            continue
        src_len = len(graph.path_to(src))
        if best is not None and src_len + 1 >= best[0]:
            continue
        for dst in graph.succ[src]:
            if dst == src:
                continue
            still_blocked = {
                rec[0] for rec in graph.index[dst].messages if rec[9]
            }
            if blocked_here - still_blocked:
                best = (src_len + 1, src, dst)
                break
    if best is None:
        raise SimulationError(
            f"oracle case {case.name!r} has no blocked→unblocked edge; "
            "every blocked message stays blocked (pure deadlock funnel)"
        )
    _, src, dst = best
    path = graph.path_to(src) + [(graph.scripts[src][dst], dst)]
    return build_witness(
        graph,
        dst,
        kind="wake",
        detail=(
            f"shortest path of case {case.name!r} through an edge where a "
            f"blocked message wakes"
        ),
        path=path,
    )


def make_immobile_witness(
    case: OracleCase, graph: Optional[StateGraph] = None
) -> dict:
    """The shortest path that idles a frozen network two cycles, then
    injects: the idle cycles raise the production engine's all-immobile
    flag and the injection must lower it — what ``skip-immobile-clear``
    stops."""
    if graph is None:
        graph = explore(case.config)
    sim = NetworkSimulator(graph.config)
    for idx, state in enumerate(graph.index):  # BFS order: shortest first
        clear_state(sim)
        load_state(sim, state)
        moves = [
            j for j in graph.succ[idx]
            if graph.index[j].active_ids() != state.active_ids()
        ]
        if sim._all_immobile and idx in graph.succ[idx] and moves:
            idle = (graph.scripts[idx][idx], idx)
            inject = (graph.scripts[idx][moves[0]], moves[0])
            path = graph.path_to(idx) + [idle, idle, inject]
            return build_witness(graph, moves[0], kind="immobile", path=path)
    raise SimulationError(
        f"oracle case {case.name!r} never injects into a frozen network"
    )


# -- teeth: armed faults must produce counterexamples --------------------------------
#: the bookkeeping faults the oracle must catch via production replay.
#: ``skip-wake`` breaks the fast path's wake index (stalled messages sleep
#: forever → the replayed trajectory leaves the recorded one at the first
#: wake), ``skip-block-epoch`` hides a header's first block from the
#: blocked epoch (states still match, the detector's short-circuit reuses
#: a stale "no deadlock" verdict) and ``skip-immobile-clear`` keeps the
#: all-immobile flag up through an acquisition (the injected worm never
#: moves: the immobile witness diverges at its injection step).
TEETH_FAULTS = ("skip-wake", "skip-block-epoch", "skip-immobile-clear")

#: the case the teeth battery runs on: it has every witness shape
TEETH_CASE = "fullmesh-2hop-idle"


@dataclass
class TeethOutcome:
    """Did an armed fault produce a concrete counterexample?"""

    fault: str
    caught: bool
    divergence: str  #: "state" | "verdict" | "" (uncaught)
    diverged_at: Optional[int]
    detail: str
    witness_kind: str = ""  #: which candidate witness caught it
    witness: Optional[dict] = None  #: the catching (replayable) payload


def teeth_candidates(
    case: OracleCase, graph: Optional[StateGraph] = None
) -> list[dict]:
    """The witness battery teeth mode replays under each armed fault.

    Different faults manifest on different trajectories: a stale blocked
    epoch needs a path whose *verdict* the short-circuit can get wrong
    (the deadlock witness), a severed wake index needs a path where a
    blocked message actually wakes (the wake witness), a stuck
    all-immobile flag a path that injects into a frozen network (the
    immobile witness).  The battery holds every witness shape the case
    supports.
    """
    if graph is None:
        graph = explore(case.config)
    candidates: list[dict] = []
    if graph.deadlocked_terminal_indices():
        candidates.append(make_deadlock_witness(case, graph))
    for make in (make_wake_witness, make_immobile_witness):
        try:
            candidates.append(make(case, graph))
        except SimulationError:
            pass
    if not candidates:
        raise SimulationError(
            f"oracle case {case.name!r} yields no teeth witnesses"
        )
    return candidates


def run_teeth(
    case: OracleCase,
    faults: Sequence[str] = TEETH_FAULTS,
    candidates: Optional[list[dict]] = None,
) -> list[TeethOutcome]:
    """Arm each fault and replay the case's witness battery against it.

    Every candidate's clean (unarmed) production replay is verified
    first — if *that* diverges the witnesses or the engines are broken and
    fault attribution would be meaningless.  Each armed fault must then
    diverge on at least one candidate: the divergent step index plus the
    witness scripts *are* the concrete counterexample (replaying them
    reproduces the fault deterministically).
    """
    if candidates is None:
        candidates = teeth_candidates(case)
    for payload in candidates:
        clean = replay_witness(payload, production=True)
        if not clean.ok:
            raise SimulationError(
                f"clean production replay of the {payload['kind']!r} "
                f"witness diverged ({clean.detail}); cannot attribute "
                "divergences to injected faults"
            )
    outcomes: list[TeethOutcome] = []
    previous = os.environ.get("REPRO_INJECT_FAULT")
    try:
        for fault in faults:
            os.environ["REPRO_INJECT_FAULT"] = fault
            outcome = TeethOutcome(
                fault, False, "", None, "no candidate witness diverged"
            )
            for payload in candidates:
                result = replay_witness(payload, production=True)
                if not result.ok:
                    outcome = TeethOutcome(
                        fault, True, result.divergence, result.diverged_at,
                        result.detail, payload["kind"], payload,
                    )
                    break
            outcomes.append(outcome)
    finally:
        if previous is None:
            os.environ.pop("REPRO_INJECT_FAULT", None)
        else:
            os.environ["REPRO_INJECT_FAULT"] = previous
    return outcomes


# -- abstract progress game over snapshot CWGs ---------------------------------------
def cwg_doomed_messages(graph: ChannelWaitForGraph) -> frozenset[int]:
    """Messages that can never complete, by the CWG's own progress game.

    An independent ground truth for *snapshot* wait-for graphs (the
    paper-figure galleries), needing no simulator: repeatedly complete any
    message that is unblocked (no outstanding requests), releasing its
    chain; a blocked message unblocks when any requested vertex is free or
    freed.  The fixpoint's survivors are doomed.  This is exactly the
    "no legal sequence of channel releases drains it" characterization of
    deadlock, and on the Figure 1–4 galleries it reproduces the paper's
    deadlock + dependent classifications.
    """
    completed: set[int] = set()
    messages = set(graph.chains)
    while True:
        progressed = False
        for m in sorted(messages - completed):
            requests = graph.requests.get(m, ())
            if requests:
                # can m's header advance? any requested vertex free or
                # owned by a completed (drained) message
                movable = any(
                    graph.owner.get(t) is None or graph.owner.get(t) in completed
                    for t in requests
                )
                if not movable:
                    continue
            completed.add(m)
            progressed = True
        if not progressed:
            return frozenset(messages - completed)
