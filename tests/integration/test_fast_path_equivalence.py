"""Legacy / production equivalence: the two engines are bit-identical.

The production engine (``engine_fast_path``, the default) restructures the
hot loops around incrementally-maintained activity state (routable flags, a
stalled-message wake index, immobile-worm skipping, whole-phase quiescence
skips, detection short-circuiting on the blocked epoch), a position-keyed
candidate table and an inline arbitration RNG stream.  All of it is pure
optimization: with the same seed it must produce the **same**
:class:`RunResult` fields and the **same** sequence of
:class:`DeadlockEvent`\\ s as the legacy reference, and leave the shared
arbitration RNG in the same state.

Every case runs the identical configuration once per engine and compares
everything except the config object itself.  Cases cover
the matrix the engine branches on: DOR/TFAR (plus the misrouting variant
whose candidate sets change as a blocked message's tail drains), uni- and
bidirectional tori, 1–4 VCs, wormhole and virtual cut-through switching,
knot and timeout detection, both CWG maintenance modes, both recovery
teardown styles, router pipeline delay, multiple reception channels, and
all three arbitration policies — plus the topology zoo (3D torus with a
slow TSV dimension, 3D mesh, dragonfly, full mesh).

Several cases run with ``check_invariants=True``: the simulator then also
asserts every cycle that the maintained flags (``routable``, ``stalled``,
``immobile``, the waiting set, ``_all_immobile`` and ``_alloc_quiet``)
agree with the predicates they cache.  The
zoo cases run at ``validation_level=2``, the full runtime battery (flit
conservation, channel exclusivity, worm contiguity, activity coherence
incl. the wake index, incremental CWG) every cycle.
"""

import dataclasses

import pytest

from repro.config import SimulationConfig, tiny_default
from repro.network.simulator import NetworkSimulator


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("config")  # differs by construction (the flag itself)
    return fields


def _event_keys(sim):
    return [
        (
            e.cycle,
            sorted(e.deadlock_set),
            sorted(e.resource_set, key=str),
            sorted(e.knot, key=str),
            e.knot_cycle_density,
            e.density_saturated,
            sorted(e.dependent),
            sorted(e.transient_dependent),
        )
        for e in sim.detector.events
    ]


ENGINES = {
    "legacy": dict(engine_fast_path=False),
    "production": dict(engine_fast_path=True),
}


def _run_engines(cfg):
    out = {}
    for name, flags in ENGINES.items():
        sim = NetworkSimulator(cfg.replace(**flags))
        result = sim.run()
        out[name] = (sim, result)
    return out


def _run_pair(**overrides):
    params = dict(measure_cycles=1500, warmup_cycles=100, seed=7)
    params.update(overrides)
    return _run_engines(tiny_default(**params))


def _assert_identical(runs):
    legacy_sim, legacy_result = runs["legacy"]
    legacy_fields = _result_fields(legacy_result)
    legacy_events = _event_keys(legacy_sim)
    for name in runs:
        sim, result = runs[name]
        assert _result_fields(result) == legacy_fields, name
        assert _event_keys(sim) == legacy_events, name
    # every draw — served, inlined or replayed by a whole-phase skip —
    # came off the shared RNG word for word
    draws = {name: sim.rng.getrandbits(64) for name, (sim, _) in runs.items()}
    assert len(set(draws.values())) == 1, draws
    # the workload actually exercised the engine
    assert legacy_result.delivered > 0


CASES = {
    # -- routing × topology × VCs ------------------------------------------------
    "tfar_saturated": dict(routing="tfar", load=1.0, num_vcs=1),
    "dor_unrecovered": dict(
        routing="dor", load=1.0, num_vcs=1, recovery="none"
    ),
    "tfar_four_vcs": dict(routing="tfar", load=1.0, num_vcs=4),
    "tfar_unidirectional": dict(
        routing="tfar", load=1.0, bidirectional=False, num_vcs=2
    ),
    "tfar_misrouting": dict(routing="tfar-mis", load=1.0, num_vcs=2),
    "duato_three_vcs": dict(routing="duato", load=1.0, num_vcs=3),
    "dateline_torus": dict(routing="dor-dateline", load=1.0, num_vcs=2),
    "negative_first_mesh": dict(
        routing="negative-first", load=1.0, mesh=True
    ),
    # -- switching ----------------------------------------------------------------
    "cut_through": dict(
        routing="dor", load=0.9, buffer_depth=8, message_length=8
    ),
    # -- detection / recovery modes ----------------------------------------------
    "timeout_recovery": dict(
        routing="tfar",
        load=1.0,
        detection_mode="timeout",
        timeout_threshold=100,
    ),
    "incremental_cwg": dict(
        routing="tfar", load=1.0, cwg_maintenance="incremental"
    ),
    "incremental_timeout_teardown": dict(
        routing="tfar",
        load=1.0,
        cwg_maintenance="incremental",
        detection_mode="timeout",
        timeout_threshold=100,
        recovery_teardown="flit-by-flit",
    ),
    "flit_by_flit_teardown": dict(
        routing="tfar", load=1.0, recovery_teardown="flit-by-flit"
    ),
    "abort_all_recovery": dict(
        routing="tfar", load=1.0, recovery="abort-all"
    ),
    "blocked_durations_recorded": dict(
        routing="tfar",
        load=1.0,
        record_blocked_durations=True,
        detection_mode="timeout",
        timeout_threshold=100,
        cwg_maintenance="incremental",
    ),
    # -- router / node structure ----------------------------------------------------
    "router_delay": dict(routing="tfar", load=1.0, router_delay=2),
    "two_rx_channels": dict(routing="tfar", load=1.0, rx_channels=2),
    # -- arbitration ------------------------------------------------------------------
    "round_robin": dict(
        routing="tfar", load=1.0, arbitration="round-robin"
    ),
    "oldest_first": dict(
        routing="tfar", load=1.0, arbitration="oldest-first"
    ),
}

#: cases that additionally validate the activity flags every cycle
CHECKED_CASES = {
    "tfar_saturated",
    "tfar_misrouting",
    "incremental_timeout_teardown",
    "router_delay",
    "cut_through",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_path_bit_identical(name):
    overrides = dict(CASES[name])
    if name in CHECKED_CASES:
        overrides["check_invariants"] = True
    _assert_identical(_run_pair(**overrides))


_ZOO_COMMON = dict(
    num_vcs=1,
    message_length=8,
    detection_interval=25,
    max_cycles_counted=2_000,
    warmup_cycles=50,
    measure_cycles=500,
    seed=11,
    validation_level=2,
)

#: topology-zoo rows
ZOO_CASES = {
    "torus3d_tsv": dict(
        topology="torus3d",
        dims=(4, 3, 2),
        link_latencies=(1, 1, 4),
        routing="dor",
        load=2.0,
    ),
    "mesh3d": dict(topology="mesh3d", dims=(3, 3, 2), routing="dor", load=1.5),
    "dragonfly_min": dict(
        topology="dragonfly", dims=(3, 1, 1), routing="df-min", load=2.0
    ),
    "dragonfly_valiant": dict(
        topology="dragonfly",
        dims=(3, 1, 1),
        routing="df-val",
        num_vcs=2,
        load=1.5,
        cwg_maintenance="incremental",
    ),
    "fullmesh_2hop": dict(
        topology="fullmesh", dims=(8,), routing="fm-2hop", load=1.5
    ),
    "torus3d_tsv_router_delay": dict(
        topology="torus3d",
        dims=(4, 2, 2),
        link_latencies=(1, 1, 3),
        routing="dor",
        load=2.0,
        router_delay=2,
        recovery_teardown="flit-by-flit",
    ),
    "dragonfly_round_robin": dict(
        topology="dragonfly",
        dims=(3, 1, 1),
        link_latencies=(1, 2),
        routing="df-min",
        load=2.0,
        arbitration="round-robin",
    ),
}


@pytest.mark.parametrize("name", sorted(ZOO_CASES))
def test_zoo_production_bit_identical(name):
    cfg = SimulationConfig(**{**_ZOO_COMMON, **ZOO_CASES[name]})
    runs = _run_engines(cfg)
    _assert_identical(runs)
    # the maintained activity state was actually in play
    stats = runs["production"][0].vec_stats()
    assert stats["stall_skips"] > 0 and stats["immobile_skips"] > 0


def test_fast_path_identical_across_seeds():
    """Sweep seeds on the most deadlock-prone configuration."""
    for seed in (1, 2, 3):
        _assert_identical(
            _run_pair(
                routing="dor",
                load=1.0,
                num_vcs=1,
                seed=seed,
                measure_cycles=1000,
            )
        )


def test_detection_records_match():
    """Per-pass structural fields survive the detector short-circuit."""
    pair = _run_pair(
        routing="tfar", load=0.9, cwg_maintenance="incremental"
    )
    fast_records = pair["production"][0].detector.records
    legacy_records = pair["legacy"][0].detector.records
    assert len(fast_records) == len(legacy_records)
    for fr, lr in zip(fast_records, legacy_records):
        assert fr.cycle == lr.cycle
        assert fr.cwg_vertices == lr.cwg_vertices
        assert fr.cwg_arcs == lr.cwg_arcs
        assert fr.blocked_messages == lr.blocked_messages
        assert fr.messages_in_network == lr.messages_in_network
        assert len(fr.events) == len(lr.events)


def test_fast_path_is_default():
    from repro.network.production import ProductionEngine

    cfg = tiny_default()
    assert cfg.engine_fast_path is True
    sim = NetworkSimulator(cfg)
    assert type(sim) is ProductionEngine
    assert sim.fast_path is True
    legacy = NetworkSimulator(cfg.replace(engine_fast_path=False))
    assert type(legacy) is NetworkSimulator


def test_vectorized_is_opt_in():
    """``engine_vectorized`` is a deprecated no-op alias: still off by
    default, still accepted, and it selects the same production engine."""
    cfg = tiny_default(measure_cycles=300)
    assert cfg.engine_vectorized is False
    plain = NetworkSimulator(cfg)
    aliased = NetworkSimulator(cfg.replace(engine_vectorized=True))
    assert type(aliased) is type(plain)
    assert _result_fields(aliased.run()) == _result_fields(plain.run())


def test_deprecated_engine_flags_are_inert():
    """``engine_kernels`` / ``engine_vectorized`` select nothing and reject
    nothing: the tiers they named are gone, and the fields survive only
    inside stored result digests."""
    from repro.campaign.store import config_digest
    from repro.network.production import ProductionEngine

    flags = dict(engine_kernels=True, engine_vectorized=True)
    assert type(NetworkSimulator(tiny_default(**flags))) is ProductionEngine
    legacy = NetworkSimulator(tiny_default(engine_fast_path=False, **flags))
    assert type(legacy) is NetworkSimulator
    # a zoo / non-unit-latency config, which the kernel tier used to reject
    zoo = SimulationConfig(**{**_ZOO_COMMON, **ZOO_CASES["torus3d_tsv"]})
    flagged = zoo.replace(engine_kernels=True)
    flagged.validate()
    assert _result_fields(NetworkSimulator(flagged).run()) == _result_fields(
        NetworkSimulator(zoo).run()
    )
    # the field list (and so every stored digest) is the parent commit's
    assert config_digest(tiny_default()) == "90949b61107460f2ef9a510d"
