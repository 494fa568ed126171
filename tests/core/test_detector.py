"""Unit tests for the deadlock detector (CWG building + event extraction).

A stub simulator supplies hand-crafted network state, so the detector's
classification logic is exercised in isolation from the flit engine.
"""

import random

from repro.config import tiny_default
from repro.core.cwg import ChannelWaitForGraph, worm_graph
from repro.core.detector import DeadlockDetector
from repro.core.gallery import figure2_cwg
from repro.network.simulator import NetworkSimulator


def make_sim(**overrides):
    cfg = tiny_default(**overrides)
    return NetworkSimulator(cfg)


def force_cycle_deadlock(sim):
    """Manually wedge four messages into a full dependency ring.

    Builds the Figure-1 situation inside a real simulator: message i owns
    the ring VC i and its next (and only, under minimal routing) hop is the
    VC message (i+1) owns — a knot of all four ring VCs.
    """
    from repro.network.message import Message

    topo, pool = sim.topology, sim.pool
    # a 4-node ring in dimension 0, row 0: nodes 0,1,2,3
    ring_nodes = [0, 1, 2, 3]
    links = [
        topo.link_between(ring_nodes[i], ring_nodes[(i + 1) % 4]) for i in range(4)
    ]
    vcs = [pool.vcs_of_link(l)[0] for l in links]
    messages = []
    for i in range(4):
        # message i is at node i+1 heading to node i+2: exactly one minimal
        # direction, whose single VC is owned by message i+1
        src = ring_nodes[i]
        dest = ring_nodes[(i + 2) % 4]
        m = Message(1000 + i, src, dest, sim.config.message_length, 0)
        m.acquire_vc(vcs[i], 0)
        vcs[i].occupancy = 1  # header sits in the owned VC's buffer
        m.at_source = m.length - 1
        m.blocked_since = 0
        sim.active[m.id] = m
        sim._live[m.id] = m
        messages.append(m)
    return messages, vcs


class TestBuildCWG:
    def test_empty_network_empty_graph(self):
        sim = make_sim()
        g = DeadlockDetector.build_cwg(sim)
        assert g.num_vertices == 0

    def test_owned_chain_appears(self):
        sim = make_sim()
        msgs, vcs = force_cycle_deadlock(sim)
        g = DeadlockDetector.build_cwg(sim)
        for m, vc in zip(msgs, vcs):
            assert g.owner[vc.index] == m.id

    def test_blocked_messages_have_requests(self):
        sim = make_sim(routing="dor")
        msgs, vcs = force_cycle_deadlock(sim)
        g = DeadlockDetector.build_cwg(sim)
        blocked = set(g.blocked_messages())
        assert {m.id for m in msgs} <= blocked


class TestDetect:
    def test_wedged_ring_is_detected_as_deadlock(self):
        sim = make_sim(routing="dor", recovery="none")
        msgs, vcs = force_cycle_deadlock(sim)
        record = sim.detector.detect(sim)
        assert record.events
        event = record.events[0]
        assert event.deadlock_set == {1000, 1001, 1002, 1003}
        assert event.knot_cycle_density == 1
        assert event.classification == "single-cycle"

    def test_no_deadlock_in_fresh_network(self):
        sim = make_sim()
        record = sim.detector.detect(sim)
        assert not record.events
        assert record.blocked_messages == 0
        assert record.cycle_count is not None
        assert record.cycle_count.count == 0

    def test_detection_record_accumulates(self):
        sim = make_sim()
        sim.detector.detect(sim)
        sim.detector.detect(sim)
        assert len(sim.detector.records) == 2

    def test_cycle_census_disabled(self):
        sim = make_sim(count_cycles=False)
        record = sim.detector.detect(sim)
        assert record.cycle_count is None

    def test_blocked_durations_recorded_when_enabled(self):
        sim = make_sim(routing="dor", record_blocked_durations=True)
        force_cycle_deadlock(sim)
        sim.cycle = 120
        record = sim.detector.detect(sim)
        assert record.blocked_durations
        for mid, duration, in_deadlock in record.blocked_durations:
            assert duration == 120  # blocked_since == 0
            assert in_deadlock


class TestDefaultPipeline:
    """The as-shipped config (``detector_caching=True``) runs the
    worm-level pipeline once over the whole CWG."""

    def test_default_pass_runs_tarjan_once(self, monkeypatch):
        import repro.core.cycles as cycles
        import repro.core.detector as detector
        import repro.core.knots as knots

        calls = []
        real = knots.strongly_connected_components

        def counting(adjacency):
            calls.append(sorted(adjacency))
            return real(adjacency)

        for module in (cycles, detector, knots):
            monkeypatch.setattr(module, "strongly_connected_components", counting)
        sim = make_sim(routing="dor", recovery="none")
        assert sim.detector.caching
        force_cycle_deadlock(sim)
        record = sim.detector.detect(sim)
        assert record.events and record.cycle_count.count == 1
        # one Tarjan, whose nodes are the worms (message ids), not VCs
        assert calls == [[1000, 1001, 1002, 1003]]

    def test_observed_pass_reuses_that_tarjan(self, monkeypatch):
        """At obs_level 1 the granularity verdicts come from the knot
        test's own decomposition: still one Tarjan per pass."""
        import repro.core.detector as detector

        calls = []
        real = detector.strongly_connected_components

        def counting(adjacency):
            calls.append(sorted(adjacency))
            return real(adjacency)

        monkeypatch.setattr(detector, "strongly_connected_components", counting)
        sim = make_sim(routing="dor", recovery="none", obs_level=1)
        force_cycle_deadlock(sim)
        sim.detector.detect(sim)
        assert calls == [[1000, 1001, 1002, 1003]]
        counters = sim.obs.registry.snapshot()["counters"]
        assert counters["detector/passes_cwg_knot"] == 1
        assert counters["detector/passes_pwfg_knot"] == 1

    def test_every_pass_is_observed(self):
        """Short-circuited passes land in the per-pass histograms and
        re-book the verdicts of the full pass they reuse."""
        sim = make_sim(routing="dor", load=0.05, detection_interval=5, obs_level=1)
        sim.run()
        stats = sim.detector.cache_stats()
        assert stats["shortcircuit_passes"] > 0
        passes = stats["full_passes"] + stats["shortcircuit_passes"]
        snap = sim.obs.snapshot()
        for name in ("detector/blocked_per_pass", "detector/knots_per_pass"):
            assert snap["histograms"][name]["count"] == passes, name
        blocked = sum(r.blocked_messages for r in sim.detector.records)
        assert snap["histograms"]["detector/blocked_per_pass"]["total"] == blocked
        cyclic = snap["counters"]["detector/passes_pwfg_cycle"]
        assert 0 <= cyclic <= passes

    def test_knotted_passes_are_observed_once(self):
        """On a run that deadlocks, ``detector/passes_cwg_knot`` counts
        exactly the knotted passes, and no per-pass instrument counts more
        passes than the detector ran."""
        sim = make_sim(
            routing="dor", bidirectional=False, load=1.0, warmup_cycles=100,
            measure_cycles=600, seed=7, obs_level=1,
        )
        sim.run()
        stats = sim.detector.cache_stats()
        passes = stats["full_passes"] + stats["shortcircuit_passes"]
        snap = sim.obs.snapshot()
        counts = {
            name: value
            for name, value in snap["counters"].items()
            if name.startswith("detector/passes_")
        }
        counts.update(
            (name, hist["count"])
            for name, hist in snap["histograms"].items()
            if name.endswith("_per_pass")
        )
        assert len(counts) > 2
        assert all(value <= passes for value in counts.values()), counts
        knotted = sum(1 for r in sim.detector.records if r.events)
        assert knotted > 0
        assert counts["detector/passes_cwg_knot"] == knotted

    def test_default_run_counts_full_passes_only(self):
        sim = make_sim(
            routing="tfar", load=1.0, warmup_cycles=100, measure_cycles=200
        )
        sim.run()
        stats = sim.detector.cache_stats()
        passes = len(sim.detector.records)
        assert passes > 0
        assert stats.pop("full_passes") + stats.pop("shortcircuit_passes") == passes
        assert stats == {}


class TestDependentClassification:
    def test_dependent_vs_transient(self):
        g = ChannelWaitForGraph()
        # knot between m1 and m2
        g.add_ownership_chain(1, ["a"])
        g.add_ownership_chain(2, ["b"])
        g.add_request(1, ["b"])
        g.add_request(2, ["a"])
        # m3: all requests owned by the deadlock set -> dependent
        g.add_ownership_chain(3, ["c"])
        g.add_request(3, ["a"])
        # m4: depends on dependent m3 -> transitively dependent
        g.add_ownership_chain(4, ["d"])
        g.add_request(4, ["c"])
        # m5: one alternative inside, one free -> transient
        g.add_ownership_chain(5, ["e"])
        g.add_request(5, ["b", "free-vc"])
        deps, transients = DeadlockDetector._dependents(
            worm_graph(g), frozenset({1, 2})
        )
        assert deps == {3, 4}
        assert transients == {5}

    def test_no_dependents_without_blocked_messages(self):
        g = ChannelWaitForGraph()
        g.add_ownership_chain(1, ["a"])
        deps, transients = DeadlockDetector._dependents(worm_graph(g), frozenset({1}))
        assert deps == frozenset() and transients == frozenset()


# -- the dependents worklist vs the naive fixed point --------------------------------


def _naive_dependents(g, deadlock_set):
    """The pre-rewrite O(blocked²) fixed point, kept as the oracle."""
    dependents = set()
    changed = True
    while changed:
        changed = False
        for mid, targets in g.requests.items():
            if mid in deadlock_set or mid in dependents:
                continue
            owners = [g.owner.get(t) for t in targets]
            if all(
                o is not None and (o in deadlock_set or o in dependents)
                for o in owners
            ):
                dependents.add(mid)
                changed = True
    transients = set()
    blocking = deadlock_set | dependents
    for mid, targets in g.requests.items():
        if mid in deadlock_set or mid in dependents:
            continue
        owners = [g.owner.get(t) for t in targets]
        if any(o in blocking for o in owners if o is not None):
            transients.add(mid)
    return frozenset(dependents), frozenset(transients)


def test_dependents_figure2():
    g = figure2_cwg()
    deadlock_set = frozenset({1, 2, 3, 4})
    deps, transients = DeadlockDetector._dependents(worm_graph(g), deadlock_set)
    assert deps == frozenset({6})
    assert transients == frozenset()
    assert (deps, transients) == _naive_dependents(g, deadlock_set)


def test_dependents_chain_of_waiters():
    """m2 waits on m1's VC, m3 on m2's: both join via the worklist ripple."""
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    g.add_ownership_chain(2, ["b"])
    g.add_ownership_chain(3, ["c"])
    g.add_request(2, ["a"])
    g.add_request(3, ["b"])
    deps, transients = DeadlockDetector._dependents(worm_graph(g), frozenset({1}))
    assert deps == frozenset({2, 3})
    assert transients == frozenset()


def test_dependents_free_alternative_is_transient_at_most():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    g.add_ownership_chain(2, ["b"])
    g.add_request(2, ["a", "free"])  # one alternative is unowned
    deps, transients = DeadlockDetector._dependents(worm_graph(g), frozenset({1}))
    assert deps == frozenset()
    assert transients == frozenset({2})


def test_dependents_self_wait_never_joins():
    g = ChannelWaitForGraph()
    g.add_ownership_chain(1, ["a"])
    g.add_ownership_chain(2, ["b", "c"])
    g.add_request(2, ["a", "b"])  # waits on the deadlock AND on itself
    deps, transients = DeadlockDetector._dependents(worm_graph(g), frozenset({1}))
    assert deps == frozenset()
    assert transients == frozenset({2})


def test_dependents_matches_naive_randomized():
    rng = random.Random(123)
    for _ in range(200):
        g = ChannelWaitForGraph()
        n_msgs = rng.randint(2, 12)
        vertex = 0
        for m in range(n_msgs):
            chain = list(range(vertex, vertex + rng.randint(1, 3)))
            vertex += len(chain)
            g.add_ownership_chain(m, chain)
        for m in range(n_msgs):
            if rng.random() < 0.7:
                # wait on a mix of owned and free vertices
                targets = rng.sample(range(vertex + 4), rng.randint(1, 3))
                g.add_request(m, targets)
        deadlock_set = frozenset(
            m for m in range(n_msgs) if rng.random() < 0.3
        )
        assert DeadlockDetector._dependents(
            worm_graph(g), deadlock_set
        ) == _naive_dependents(g, deadlock_set), (
            dict(g.chains),
            dict(g.requests),
            deadlock_set,
        )
