"""The references the shipped code is specified bit-identical to, as
classes the correctness nets build (no config field selects one):

* :class:`ReferenceEngine`, the full-rescan engine of
  :class:`~repro.network.production.ProductionEngine`: every cycle
  rescans ``self.active``, keeps no activity state and draws through
  :class:`~repro.network.draws.Draws` (``random.Random``'s own methods);
* :class:`ReferenceDetector`, the from-scratch pass of the worm-level
  pipeline: the vertex-level CWG, global Tarjan in
  :func:`~repro.core.knots.find_knots` and uncontracted Johnson in
  :func:`~repro.core.cycles.count_simple_cycles`, which
  :func:`reference_pass` puts on an engine.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.config import SimulationConfig
from repro.core.cwg import ChannelWaitForGraph, worm_graph
from repro.core.cycles import (
    CycleCount, contract_graph, count_cycles_contracted, count_simple_cycles,
)
from repro.core.detector import DeadlockDetector, _knot_key, granularity_verdicts
from repro.core.knots import find_knots, strongly_connected_components
from repro.network.message import Message, MessageStatus
from repro.network.simulator import _PHASE_ALLOC, _PHASE_MOVE, NetworkSimulator

__all__ = ["ReferenceEngine", "ReferenceDetector", "reference_pass"]


class ReferenceEngine(NetworkSimulator):
    """The full-rescan reference engine (module docstring)."""

    fast_path = False

    def waiting_messages(self) -> Iterable[Message]:
        """Active messages whose ``blocked_since`` is set, by scanning."""
        return [m for m in self.active.values() if m.blocked_since is not None]

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


class ReferenceDetector(DeadlockDetector):
    """The from-scratch reference pass (module docstring)."""

    def _analyze(self, sim: NetworkSimulator, cycle: int):
        g = self.build_cwg(sim)
        events, census = self._analyze_reference(g, cycle)
        return events, census, g.blocked_messages(), g.num_vertices, g.num_arcs

    def _analyze_reference(self, g: ChannelWaitForGraph, cycle: int):
        """Events and census of one CWG: vertex-level global Tarjan +
        uncontracted Johnson."""
        adjacency = g.adjacency()
        succ = worm_graph(g)
        events = []
        for knot in sorted(find_knots(adjacency), key=_knot_key):
            sub = {v: [w for w in adjacency[v] if w in knot] for v in knot}
            members = frozenset(g.messages_owning(knot))
            resources = frozenset(g.resources_of(members))
            density = self._knot_density(sub)
            events.append(
                self._knot_event(succ, knot, members, resources, density, cycle)
            )
        if self._obs is not None:
            self._verdicts = granularity_verdicts(
                succ, strongly_connected_components(succ), len(events)
            )
        if not self.count_cycles:
            return events, None
        return events, count_simple_cycles(adjacency, limit=self.max_cycles_counted)

    def _knot_density(self, sub: dict) -> CycleCount:
        """Simple-cycle count within a knot's vertex-level subgraph, by the
        three cases of :meth:`DeadlockDetector._worm_density`; the bounded
        count runs on the chain-contracted knot, which keeps it exact."""
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


def reference_pass(
    config: SimulationConfig,
    engine: Callable[[SimulationConfig], NetworkSimulator] = NetworkSimulator,
) -> NetworkSimulator:
    """``engine(config)`` with the reference pass in place of its pipeline:
    :class:`ReferenceDetector` adds no state, so the fresh detector becomes
    one, every parameter kept, by taking its class."""
    sim = engine(config)
    sim.detector.__class__ = ReferenceDetector
    return sim
