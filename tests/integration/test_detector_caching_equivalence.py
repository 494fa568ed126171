"""A/B equivalence: the detector's contracted pipeline is bit-identical.

``detector_caching`` (the default) runs every pass through the contracted
pipeline — chain contraction, one Tarjan decomposition shared by the knot
test and the cycle census, each SCC re-contracted before Johnson
enumerates — instead of the plain reference (global Tarjan + knot test +
uncontracted Johnson over the whole CWG).  All of it is pure
optimization: with the same seed, both must produce the **same** sequence
of :class:`DetectionRecord`\\ s — knots, deadlock/resource/dependent sets,
cycle-census counts *and* saturation flags, blocked durations, everything
— and, since recovery acts on those records, the same :class:`RunResult`.

Every case runs the identical configuration twice — ``detector_caching``
on and off — over the matrix the detector branches on: DOR/TFAR (plus
misrouting, whose request sets churn as tails drain), 1–4 VCs, wormhole
and virtual cut-through switching, saturated and moderate loads, knot and
timeout detection, persistent knots (``recovery="none"``), the census on
and off, and both engine paths.
"""

import dataclasses

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("config")  # differs by construction (the flag itself)
    return fields


def _run_pair(**overrides):
    params = dict(
        measure_cycles=1500,
        warmup_cycles=100,
        seed=7,
        count_cycles=True,
    )
    params.update(overrides)
    cfg = tiny_default(**params)
    out = {}
    for cached in (True, False):
        sim = NetworkSimulator(cfg.replace(detector_caching=cached))
        result = sim.run()
        out[cached] = (sim, result)
    return out


def _assert_identical(pair):
    cached_sim, cached_result = pair[True]
    full_sim, full_result = pair[False]
    # DetectionRecord and DeadlockEvent are dataclasses: == compares every
    # field, so this covers knots, deadlock/resource sets, densities,
    # census counts + saturation flags, blocked durations and blocked ids.
    assert cached_sim.detector.records == full_sim.detector.records
    assert cached_sim.detector.events == full_sim.detector.events
    assert _result_fields(cached_result) == _result_fields(full_result)
    # the workload actually exercised the detector
    assert full_sim.detector.records
    assert full_result.delivered > 0


CASES = {
    # -- routing × VCs at saturation ------------------------------------------------
    "dor_saturated_1vc": dict(routing="dor", load=1.0, num_vcs=1),
    "tfar_saturated_1vc": dict(routing="tfar", load=1.0, num_vcs=1),
    "tfar_saturated_2vc": dict(routing="tfar", load=1.0, num_vcs=2),
    "dor_saturated_3vc": dict(routing="dor", load=1.0, num_vcs=3),
    "tfar_saturated_4vc": dict(routing="tfar", load=1.0, num_vcs=4),
    "tfar_misrouting": dict(routing="tfar-mis", load=1.0, num_vcs=2),
    # -- moderate loads ---------------------------------------------------------------
    "dor_moderate": dict(routing="dor", load=0.45, num_vcs=2),
    "tfar_moderate": dict(routing="tfar", load=0.5, num_vcs=1),
    # -- switching --------------------------------------------------------------------
    "vct_saturated": dict(
        routing="dor", load=0.9, buffer_depth=8, message_length=8
    ),
    # -- persistent knots (regions stable across passes: max cache reuse) ----------
    "unrecovered_knots": dict(
        routing="dor", load=0.95, num_vcs=1, recovery="none"
    ),
    # -- detection / recovery modes ---------------------------------------------------
    "timeout_mode": dict(
        routing="tfar",
        load=1.0,
        detection_mode="timeout",
        timeout_threshold=100,
        record_blocked_durations=True,
    ),
    "flit_by_flit_teardown": dict(
        routing="tfar", load=1.0, recovery_teardown="flit-by-flit"
    ),
    # -- census saturation (tiny cap forces the saturated flag on) ------------------
    "census_cap_hit": dict(
        routing="tfar", load=1.0, max_cycles_counted=10
    ),
    "census_disabled": dict(routing="tfar", load=1.0, count_cycles=False),
    # -- census off: knots only ------------------------------------------------------
    "no_census_unrecovered_knots": dict(
        routing="dor",
        load=0.95,
        num_vcs=1,
        recovery="none",
        count_cycles=False,
    ),
    "no_census_legacy_engine": dict(
        routing="dor",
        load=1.0,
        num_vcs=1,
        count_cycles=False,
        engine_fast_path=False,
    ),
    "no_census_timeout_mode": dict(
        routing="tfar",
        load=1.0,
        count_cycles=False,
        detection_mode="timeout",
        timeout_threshold=100,
    ),
    # -- engine paths -----------------------------------------------------------------
    "legacy_engine": dict(routing="tfar", load=1.0, engine_fast_path=False),
    # the census16_tfar1 benchmark shape: a persistent saturated 16-ary CWG
    # whose census exhausts a small budget on most passes
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
    "rebuild_legacy_engine_4vc": dict(
        routing="tfar",
        load=1.0,
        num_vcs=4,
        engine_fast_path=False,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_detector_caching_bit_identical(name):
    _assert_identical(_run_pair(**CASES[name]))


def test_detector_caching_identical_across_seeds():
    """Seed sweep on the most deadlock-prone configuration."""
    for seed in (1, 2, 3, 4):
        _assert_identical(
            _run_pair(
                routing="dor",
                load=1.0,
                num_vcs=1,
                seed=seed,
                measure_cycles=1000,
                record_blocked_durations=True,
            )
        )


def test_detector_caching_is_default():
    cfg = tiny_default()
    assert cfg.detector_caching is True
    sim = NetworkSimulator(cfg)
    assert sim.detector.caching is True


def test_cache_stats_accessor_and_repeat_pass_hits():
    """``cache_stats()`` exposes the two pass counters; an unchanged
    network short-circuits the repeated pass.

    After a saturated no-recovery run the network holds persistent knots,
    and a pass that finds a knot is never short-circuited: two manual
    passes re-analyse and re-report it identically.  With the knots gone
    (a fresh network) a repeated pass over an unchanged blocked epoch is a
    hit.
    """
    cfg = tiny_default(
        routing="dor",
        load=0.95,
        num_vcs=1,
        recovery="none",
        measure_cycles=1200,
        warmup_cycles=100,
        seed=7,
    )
    sim = NetworkSimulator(cfg)
    sim.run()
    stats = sim.detector.cache_stats()
    assert set(stats) == {"full_passes", "shortcircuit_passes"}
    assert stats["full_passes"] + stats["shortcircuit_passes"] == len(
        sim.detector.records
    )

    first = sim.detector.detect(sim)
    second = sim.detector.detect(sim)
    assert first.has_deadlock and second.events == first.events
    after = sim.detector.cache_stats()
    assert after["full_passes"] == stats["full_passes"] + 2
    assert after["shortcircuit_passes"] == stats["shortcircuit_passes"]

    fresh = NetworkSimulator(cfg)
    fresh.detector.detect(fresh)
    repeat = fresh.detector.detect(fresh)
    assert fresh.detector.cache_stats() == {
        "full_passes": 1,
        "shortcircuit_passes": 1,
    }
    assert repeat.cycle_count == fresh.detector.records[0].cycle_count


def test_cache_stats_uncached_detector_counts_full_passes():
    cfg = tiny_default(
        routing="dor",
        load=1.0,
        num_vcs=1,
        detector_caching=False,
        measure_cycles=600,
        warmup_cycles=100,
        seed=3,
    )
    sim = NetworkSimulator(cfg)
    sim.run()
    stats = sim.detector.cache_stats()
    assert stats["full_passes"] > 0
    assert stats["full_passes"] + stats["shortcircuit_passes"] == len(
        sim.detector.records
    )
