"""Property-based tests on whole-simulation invariants.

Each drawn configuration runs a short simulation with per-cycle invariant
checking enabled; the engine itself asserts flit conservation, exclusive VC
ownership and buffer bounds every cycle, and the test asserts global
message accounting afterwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.network.message import MessageStatus
from repro.network.simulator import NetworkSimulator

configs = st.fixed_dictionaries(
    {
        "k": st.sampled_from([3, 4, 5]),
        "n": st.just(2),
        "bidirectional": st.booleans(),
        "routing": st.sampled_from(["dor", "tfar"]),
        "num_vcs": st.integers(min_value=1, max_value=3),
        "buffer_depth": st.sampled_from([1, 2, 4, 8]),
        "message_length": st.sampled_from([1, 2, 5, 8]),
        "load": st.sampled_from([0.1, 0.5, 1.0]),
        "recovery": st.sampled_from(["disha", "abort-all"]),
        "recovery_teardown": st.sampled_from(["instant", "flit-by-flit"]),
        "router_delay": st.sampled_from([0, 1, 3]),
        "rx_channels": st.sampled_from([1, 2]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


@given(configs)
@settings(max_examples=25, deadline=None)
def test_short_run_preserves_all_invariants(params):
    cfg = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=250,
        detection_interval=25,
        max_queued_per_node=8,
        validation_level=2,
        **params,
    )
    sim = NetworkSimulator(cfg)
    result = sim.run()

    # global message accounting: everything generated is somewhere
    live = len(sim._live)
    done = result.delivered + result.recovered + result.aborted
    # stats only counted post-warmup (here warmup=0, so all); generated
    # messages are live, done, or were delivered... all accounted:
    assert sim.generator.generated >= done

    # all finished messages hold nothing
    for m in list(sim.active.values()):
        m.check_conservation()
    # every owned VC belongs to a live active message
    for vc in sim.pool.vcs:
        if vc.owner is not None:
            assert vc.owner in sim.active
    # reception channels owned only by draining active messages
    for group in sim.pool.reception_groups:
        for rx in group:
            if rx.owner is not None:
                assert rx.owner in sim.active


@given(configs)
@settings(max_examples=10, deadline=None)
def test_runs_are_deterministic(params):
    cfg = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=150,
        detection_interval=25,
        max_queued_per_node=8,
        **params,
    )
    r1 = NetworkSimulator(cfg).run()
    r2 = NetworkSimulator(cfg).run()
    assert r1.delivered == r2.delivered
    assert r1.deadlocks == r2.deadlocks
    assert r1.latency_sum == r2.latency_sum
    assert r1.cycle_counts == r2.cycle_counts


@given(
    st.sampled_from(["dor-dateline", "duato"]),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_avoidance_routers_never_knot(routing, seed):
    vcs = {"dor-dateline": 2, "duato": 3}[routing]
    cfg = SimulationConfig(
        k=4,
        n=2,
        routing=routing,
        num_vcs=vcs,
        message_length=4,
        load=1.2,
        warmup_cycles=0,
        measure_cycles=300,
        detection_interval=25,
        max_queued_per_node=8,
        seed=seed,
    )
    result = NetworkSimulator(cfg).run()
    assert result.deadlocks == 0


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_delivered_messages_always_complete(seed):
    cfg = SimulationConfig(
        k=4,
        n=2,
        routing="tfar",
        num_vcs=2,
        message_length=6,
        load=0.6,
        warmup_cycles=0,
        measure_cycles=300,
        max_queued_per_node=8,
        seed=seed,
    )
    sim = NetworkSimulator(cfg)
    delivered_ids = []
    orig = sim.stats.on_delivered

    def spy(message, cycle):
        assert message.status is MessageStatus.DELIVERED
        assert message.ejected == message.length
        assert not message.vcs
        delivered_ids.append(message.id)
        orig(message, cycle)

    sim.stats.on_delivered = spy
    sim.run()
    assert len(delivered_ids) == len(set(delivered_ids))
