"""A/B equivalence: observability is pure observation.

``obs_level`` attaches a metrics registry, per-phase timers and (at level
2) a cycle-level trace ring buffer to the engine and detector.  None of it
may perturb the simulation: no RNG draws, no state mutation.  With the
same seed, a fully-instrumented run must produce the **same**
:class:`RunResult` fields, the **same** deadlock-event stream, and the
**same** golden digests as an uninstrumented one.

Cases span the paths instrumentation touches: both engine paths (the
profiled ``step()`` is a separate branch from the plain one), both CWG
maintenance modes, the cached detector pipeline (per-region ``prof.add``
accounting), recovery (the ``engine/recover`` timer and ``recovery``
instants), and a deliberately tiny trace capacity so ring-buffer wraparound
happens mid-run.
"""

import dataclasses

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator
from tests.golden.test_golden_traces import SCENARIOS, canonical_trace, digest_of


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


def _run_pair(obs_level=2, **overrides):
    params = dict(measure_cycles=1200, warmup_cycles=100, seed=7)
    params.update(overrides)
    cfg = tiny_default(**params)
    out = {}
    for level in (obs_level, 0):
        sim = NetworkSimulator(cfg.replace(obs_level=level))
        result = sim.run()
        out[level] = (sim, result)
    return out, obs_level


def _assert_identical(pair_and_level):
    pair, obs_level = pair_and_level
    obs_sim, obs_result = pair[obs_level]
    plain_sim, plain_result = pair[0]
    assert _result_fields(obs_result) == _result_fields(plain_result)
    assert _event_keys(obs_sim) == _event_keys(plain_sim)
    assert obs_sim.detector.records == plain_sim.detector.records
    # the instrumented run actually observed something
    assert obs_sim.obs.enabled
    assert plain_result.delivered > 0
    return obs_sim


CASES = {
    "dor_saturated": dict(routing="dor", load=1.0, num_vcs=1),
    "tfar_saturated": dict(routing="tfar", load=1.0, num_vcs=1),
    # the pipeline's detect/knots + detect/census timers over a branching
    # multi-VC CWG
    "cached_detector": dict(
        routing="tfar",
        load=1.0,
        num_vcs=2,
        count_cycles=True,
    ),
    "legacy_engine": dict(routing="tfar", load=1.0, engine_fast_path=False),
    "unrecovered_knots": dict(
        routing="dor", load=0.95, num_vcs=1, recovery="none"
    ),
    "metrics_only_level1": dict(
        routing="dor", load=1.0, num_vcs=1, obs_level=1
    ),
    "tiny_trace_ring_wraps": dict(
        routing="dor", load=1.0, num_vcs=1, obs_trace_capacity=64
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_obs_bit_identical(name):
    overrides = dict(CASES[name])
    obs_level = overrides.pop("obs_level", 2)
    obs_sim = _assert_identical(_run_pair(obs_level=obs_level, **overrides))
    # sanity on the observed side: the snapshot is well-formed and non-empty
    snap = obs_sim.obs.snapshot()
    assert snap["level"] == obs_level
    assert snap["phases"]["engine/allocate"]["calls"] > 0
    if obs_level >= 2:
        assert snap["trace"]["events"] > 0


def test_obs_ring_wraparound_actually_happened():
    (pair, level) = _run_pair(
        routing="dor", load=1.0, num_vcs=1, obs_trace_capacity=64
    )
    tracer = pair[level][0].obs.tracer
    assert tracer.dropped > 0, "capacity 64 should wrap on a 1300-cycle run"
    assert len(tracer) == 64


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_obs_preserves_golden_digests(name):
    """The committed golden digests must be reproduced under full tracing."""
    cfg = SCENARIOS[name].replace(obs_level=2)
    sim = NetworkSimulator(cfg)
    result = sim.run()
    plain = NetworkSimulator(SCENARIOS[name])
    plain_result = plain.run()
    assert digest_of(canonical_trace(sim, result)) == digest_of(
        canonical_trace(plain, plain_result)
    )
