"""The case table behind every reference and inert-field A/B test.

The production engine, the detector's worm-level pipeline and
observability (``obs_level``) are pure optimization or pure observation:
with the same seed, a run must be bit-identical to its twin, a reference
class of :mod:`repro.validation.reference` or the run with observability
off.  "Bit-identical" is defined once, by
:func:`repro.validation.differential.compare`: the same ``RunResult``
fields, the same detection records (events, census counts and saturation
flags, blocked durations and listings) and the same post-run RNG word.

Each row is a configuration, the twin it is compared with (a changed
config or a builder called with the row's config) and the builder of the
row's own run.  The rows cover what the engine and detector branch on: DOR/TFAR (plus the
misrouting variant whose candidate sets change as a blocked message's
tail drains), uni- and bidirectional tori, 1–4 VCs, wormhole and virtual
cut-through switching, knot and timeout detection, both recovery teardown
styles, persistent knots, the census on, off and capped, router pipeline
delay, multiple reception channels, all three arbitration policies, both
engines under the detector and observability, a wrapping trace ring, and
the topology zoo (3D torus with a slow TSV dimension, 3D mesh, dragonfly,
full mesh), and light and moderate loads where most worms drain.  Several
rows, the zoo rows among them, run at ``validation_level=2``, so the
runtime invariant battery also holds every cycle.

``tests/integration/test_{fast_path,detector_caching,obs}_equivalence.py``
run the groups through :func:`run_case`.
"""

from functools import partial
from typing import Callable, NamedTuple, Union

from repro.config import SimulationConfig, tiny_default
from repro.network.simulator import NetworkSimulator
from repro.validation.differential import compare, fingerprint
from repro.validation.reference import ReferenceEngine, reference_pass
from tests.golden.test_golden_traces import SCENARIOS as GOLDEN_SCENARIOS


class Case(NamedTuple):
    config: SimulationConfig
    twin: Union[SimulationConfig, Callable]  #: see differential.compare
    build: Callable = NetworkSimulator  #: builds the row's own run


def _group(twin, make, rows, build=NetworkSimulator) -> dict[str, Case]:
    return {name: Case(make(**row), twin, build) for name, row in rows.items()}


def _reference_pass_on_reference_engine(config):
    return reference_pass(config, ReferenceEngine)


def run_case(case: Case) -> NetworkSimulator:
    """Run a row as built, assert that its twin is bit-identical, and
    return the row's own simulator."""
    sim = case.build(case.config)
    result = sim.run()
    detail = compare(case.config, case.twin, base=fingerprint(sim, result))
    assert detail is None, detail
    assert result.delivered > 0, "the workload must exercise the engine"
    return sim


_tiny = partial(tiny_default, measure_cycles=1500, warmup_cycles=100, seed=7)
_TIMEOUT = dict(detection_mode="timeout", timeout_threshold=100)

FAST_PATH = _group(ReferenceEngine, _tiny, {
    # -- routing × topology × VCs
    "tfar_saturated": dict(
        routing="tfar", load=1.0, num_vcs=1, validation_level=2
    ),
    "dor_unrecovered": dict(
        routing="dor", load=1.0, num_vcs=1, recovery="none"
    ),
    "tfar_four_vcs": dict(routing="tfar", load=1.0, num_vcs=4),
    "tfar_unidirectional": dict(
        routing="tfar", load=1.0, bidirectional=False, num_vcs=2
    ),
    "tfar_misrouting": dict(
        routing="tfar-mis", load=1.0, num_vcs=2, validation_level=2
    ),
    "duato_three_vcs": dict(routing="duato", load=1.0, num_vcs=3),
    "dateline_torus": dict(routing="dor-dateline", load=1.0, num_vcs=2),
    "negative_first_mesh": dict(
        routing="negative-first", load=1.0, mesh=True
    ),
    # -- switching
    "cut_through": dict(
        routing="dor", load=0.9, buffer_depth=8, message_length=8,
        validation_level=2,
    ),
    # -- detection / recovery modes
    "timeout_recovery": dict(routing="tfar", load=1.0, **_TIMEOUT),
    "timeout_teardown": dict(
        routing="tfar", load=1.0, recovery_teardown="flit-by-flit",
        validation_level=2, **_TIMEOUT,
    ),
    "flit_by_flit_teardown": dict(
        routing="tfar", load=1.0, recovery_teardown="flit-by-flit"
    ),
    "abort_all_recovery": dict(
        routing="tfar", load=1.0, recovery="abort-all"
    ),
    "blocked_durations_recorded": dict(
        routing="tfar", load=1.0, record_blocked_durations=True, **_TIMEOUT
    ),
    # -- router / node structure
    "router_delay": dict(
        routing="tfar", load=1.0, router_delay=2, validation_level=2
    ),
    "two_rx_channels": dict(routing="tfar", load=1.0, rx_channels=2),
    # -- arbitration
    "round_robin": dict(
        routing="tfar", load=1.0, arbitration="round-robin"
    ),
    "oldest_first": dict(
        routing="tfar", load=1.0, arbitration="oldest-first"
    ),
})

FAST_PATH_SEEDS = _group(ReferenceEngine, _tiny, {
    f"seed{seed}": dict(
        routing="dor", load=1.0, num_vcs=1, seed=seed, measure_cycles=1000
    )
    for seed in (1, 2, 3)
})

ZOO_COMMON = dict(
    num_vcs=1,
    message_length=8,
    detection_interval=25,
    max_cycles_counted=2_000,
    warmup_cycles=50,
    measure_cycles=500,
    seed=11,
    validation_level=2,
)

ZOO = _group(ReferenceEngine, partial(SimulationConfig, **ZOO_COMMON), {
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
})

#: light and moderate loads on pools with one VC per link and unit link
#: latency, where most mobile worms drain: the production engine's steady
#: drains (``vec_steady_drains``) carry these runs
STEADY = {
    **_group(ReferenceEngine, _tiny, {
        "dor_light": dict(routing="dor", load=0.3, num_vcs=1),
        "tfar_moderate": dict(
            routing="tfar", load=0.6, num_vcs=1, validation_level=2
        ),
        "cut_through_moderate": dict(
            routing="dor", load=0.5, num_vcs=1, buffer_depth=8,
            message_length=8, validation_level=2,
        ),
        "flit_by_flit_moderate": dict(
            routing="dor", load=0.6, num_vcs=1,
            recovery_teardown="flit-by-flit", validation_level=2,
        ),
    }),
    **_group(
        ReferenceEngine, partial(SimulationConfig, **ZOO_COMMON), {
            "dragonfly_moderate": dict(
                topology="dragonfly", dims=(3, 1, 1), routing="df-min",
                load=0.5,
            ),
            "fullmesh_moderate": dict(
                topology="fullmesh", dims=(8,), routing="fm-2hop", load=0.5
            ),
        },
    ),
}

#: rows on pools with sibling VCs or slow links, where no worm may drain
#: steady
NO_STEADY_POOL = ("tfar_four_vcs", "torus3d_tsv", "torus3d_tsv_router_delay")

_census = partial(_tiny, count_cycles=True)

DETECTOR = {
    **_group(reference_pass, _census, {
        # -- routing × VCs at saturation
        "dor_saturated_1vc": dict(routing="dor", load=1.0, num_vcs=1),
        "tfar_saturated_1vc": dict(routing="tfar", load=1.0, num_vcs=1),
        "tfar_saturated_2vc": dict(routing="tfar", load=1.0, num_vcs=2),
        "dor_saturated_3vc": dict(routing="dor", load=1.0, num_vcs=3),
        "tfar_saturated_4vc": dict(routing="tfar", load=1.0, num_vcs=4),
        "tfar_misrouting": dict(routing="tfar-mis", load=1.0, num_vcs=2),
        # -- moderate loads
        "dor_moderate": dict(routing="dor", load=0.45, num_vcs=2),
        "tfar_moderate": dict(routing="tfar", load=0.5, num_vcs=1),
        # -- switching
        "vct_saturated": dict(
            routing="dor", load=0.9, buffer_depth=8, message_length=8
        ),
        # -- persistent knots (regions stable across passes)
        "unrecovered_knots": dict(
            routing="dor", load=0.95, num_vcs=1, recovery="none"
        ),
        # -- detection / recovery modes
        "timeout_mode": dict(
            routing="tfar", load=1.0, record_blocked_durations=True, **_TIMEOUT
        ),
        "flit_by_flit_teardown": dict(
            routing="tfar", load=1.0, recovery_teardown="flit-by-flit"
        ),
        # -- census saturation (a tiny cap forces the saturated flag on)
        "census_cap_hit": dict(
            routing="tfar", load=1.0, max_cycles_counted=10
        ),
        "census_disabled": dict(routing="tfar", load=1.0, count_cycles=False),
        # -- census off: knots only
        "no_census_unrecovered_knots": dict(
            routing="dor",
            load=0.95,
            num_vcs=1,
            recovery="none",
            count_cycles=False,
        ),
        "no_census_timeout_mode": dict(
            routing="tfar", load=1.0, count_cycles=False, **_TIMEOUT
        ),
        # the census16_tfar1 benchmark shape: a persistent saturated 16-ary
        # CWG whose census exhausts a small budget on most passes
        "rebuild_saturated_16ary_census": dict(
            k=16,
            message_length=32,
            routing="tfar",
            load=1.0,
            max_cycles_counted=30,
            detection_interval=8,
            warmup_cycles=300,
            measure_cycles=200,
        ),
    }),
    # -- engine paths: both passes on the reference engine
    **_group(_reference_pass_on_reference_engine, _census, {
        "no_census_legacy_engine": dict(
            routing="dor", load=1.0, num_vcs=1, count_cycles=False
        ),
        "legacy_engine": dict(routing="tfar", load=1.0),
        "rebuild_legacy_engine_4vc": dict(routing="tfar", load=1.0, num_vcs=4),
    }, build=ReferenceEngine),
}

DETECTOR_SEEDS = _group(reference_pass, _census, {
    f"seed{seed}": dict(
        routing="dor",
        load=1.0,
        num_vcs=1,
        seed=seed,
        measure_cycles=1000,
        record_blocked_durations=True,
    )
    for seed in (1, 2, 3, 4)
})


def _unobserved(build):
    """The twin of an observed row: ``build`` with observability off."""
    return lambda config: build(config.replace(obs_level=0))


_observed = partial(_tiny, measure_cycles=1200, obs_level=2)

OBS = {
    **_group(_unobserved(NetworkSimulator), _observed, {
        "dor_saturated": dict(routing="dor", load=1.0, num_vcs=1),
        "tfar_saturated": dict(routing="tfar", load=1.0, num_vcs=1),
        # the pipeline's detect/knots + detect/census timers over a
        # branching multi-VC CWG
        "cached_detector": dict(
            routing="tfar", load=1.0, num_vcs=2, count_cycles=True
        ),
        "unrecovered_knots": dict(
            routing="dor", load=0.95, num_vcs=1, recovery="none"
        ),
        "metrics_only_level1": dict(
            routing="dor", load=1.0, num_vcs=1, obs_level=1
        ),
        "tiny_trace_ring_wraps": dict(
            routing="dor", load=1.0, num_vcs=1, obs_trace_capacity=64
        ),
    }),
    **_group(_unobserved(ReferenceEngine), _observed, {
        "legacy_engine": dict(routing="tfar", load=1.0),
    }, build=ReferenceEngine),
}

#: the golden scenarios under full tracing
OBS_GOLDEN = {
    name: Case(config.replace(obs_level=2), config)
    for name, config in GOLDEN_SCENARIOS.items()
}
